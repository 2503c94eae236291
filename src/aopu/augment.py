"""Random-feature augmentation: x_tilde = concat[acti(G.T @ x), x].

The augmentation matrix G is drawn once from a seeded standard normal
generator and frozen; the hidden block is passed through one of the catalog
activations and (optionally) per-sample layer normalization. The raw input
block is always appended verbatim below the hidden block.

Each augmented batch is built in one (d+h)-by-b buffer, which the caller
may pass in. x is copied into the buffer's last d rows first, so the product
reads a C-ordered block whatever the strides of x (a batch gathered from a
read-only window view, or a split of one). G is stored in Fortran order, so
G.T is C-contiguous, and the product G.T @ x is written straight into the
buffer's first h rows. The activation and the layer norm then overwrite
those rows in place. Without layer norm, no intermediate block of the
batch's size is allocated; with it, ``np.std`` forms one block of the
hidden rows' size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .errors import InvalidInputError

# Deterministic stand-in for the randomized-slope rectifier: midpoint of the
# conventional (1/8, 1/3) sampling range, so runs are reproducible.
RRELU_SLOPE = 11.0 / 48.0
LEAKY_SLOPE = 0.01
SHRINK_LAMBDA = 0.5


def _hardshrink(a):
    np.copyto(a, 0.0, where=~(np.abs(a) > SHRINK_LAMBDA))
    return a


def _softshrink(a):
    excess = np.abs(a)
    excess -= SHRINK_LAMBDA
    np.maximum(excess, 0.0, out=excess)
    return np.multiply(np.sign(a, out=a), excess, out=a)


def _sigmoid(a):
    # 1/(1+z) where a >= 0 and z/(1+z) elsewhere, with z = exp(-|a|)
    nonneg = a >= 0
    z = np.exp(np.negative(np.abs(a, out=a), out=a), out=a)
    denom = z + 1.0
    np.copyto(z, 1.0, where=nonneg)
    return np.divide(z, denom, out=a)


def _hardswish(a):
    gate = a + 3.0
    np.clip(gate, 0.0, 6.0, out=gate)
    a *= gate
    a /= 6.0
    return a


def _mish(a):
    gate = np.logaddexp(0.0, a)
    np.tanh(gate, out=gate)
    a *= gate
    return a


# Each entry overwrites its float64 array argument with the activation and
# returns it, so the augmented batch is activated in its own buffer.
ACTIVATIONS = {
    "tanh": lambda a: np.tanh(a, out=a),
    "hardshrink": _hardshrink,
    "tanhshrink": lambda a: np.subtract(a, np.tanh(a), out=a),
    "softsign": lambda a: np.divide(a, 1.0 + np.abs(a), out=a),
    "softshrink": _softshrink,
    "sigmoid": _sigmoid,
    "relu": lambda a: np.maximum(a, 0.0, out=a),
    "relu6": lambda a: np.clip(a, 0.0, 6.0, out=a),
    "rrelu": lambda a: np.multiply(a, RRELU_SLOPE, out=a, where=~(a >= 0)),
    "leakyrelu": lambda a: np.multiply(a, LEAKY_SLOPE, out=a, where=~(a >= 0)),
    "hardswish": _hardswish,
    "mish": _mish,
}

# Every catalog activation satisfies |f(z)| <= |z| + ACTIVATION_SLACK (relu6's
# cap), which bounds the norm of hidden rows that are never computed.
ACTIVATION_SLACK = 6.0


def _layer_norm(a: np.ndarray) -> np.ndarray:
    """Rescale each column (sample) of a float64 matrix with at least 2 rows
    to zero mean and unit variance over rows, in place.

    No learnable affine parameters. Columns with zero variance are left at
    zero after centering rather than divided. The bits are those of
    centering ``a`` on ``a.mean(axis=0)`` and dividing it by the centered
    block's ``std(axis=0)``; the one scratch of ``a``'s size is the squared
    deviations ``np.std`` forms.
    """
    a -= a.mean(axis=0)
    std = a.std(axis=0)
    zero = ~(std > 0)
    std[zero] = 1.0
    a /= std
    a[:, zero] = 0.0
    return a


def check_count(name: str, value, low: int) -> None:
    """Raise unless ``value`` is a Python or numpy integer, not a bool, and
    at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise InvalidInputError(f"{name} must be >= {low}, got {value}")


def check_real(name: str, value, positive: bool = False) -> None:
    """Raise unless ``value`` is a Python or numpy integer or float, not a
    bool, finite and positive or, by default, at least 0."""
    real = isinstance(value, (int, float, np.integer, np.floating))
    if isinstance(value, bool) or not real:
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")
    if not (0 < value < np.inf or value == 0 and not positive):
        bound = "positive" if positive else ">= 0"
        raise InvalidInputError(f"{name} must be {bound} and finite, got {value}")


@dataclass(frozen=True)
class AugmentConfig:
    """Shape, activation, normalization and seed of the augmentation block."""

    input_dim: int
    hidden: int
    activation: str = "tanh"
    layer_norm: bool = False
    seed: int = 0

    def __post_init__(self):
        check_count("input_dim", self.input_dim, 1)
        check_count("hidden", self.hidden, 0)
        check_count("seed", self.seed, 0)
        if self.activation not in ACTIVATIONS:
            raise InvalidInputError(
                f"unknown activation {self.activation!r}; "
                f"available: {sorted(ACTIVATIONS)}"
            )
        if self.layer_norm and self.hidden < 2:
            raise InvalidInputError("layer_norm requires a hidden block of >= 2 rows")


class Augmenter:
    """Frozen random-matrix feature map.

    The weight matrix is drawn i.i.d. standard normal from the seeded
    generator at construction time, marked read-only, and never changes, so
    concurrent :meth:`augment` calls are safe. It is drawn one input row at
    a time, so the ``G`` of input dim ``d`` is the first ``d`` rows of the
    ``G`` of any wider map with the same seed: one draw at the widest input
    serves every narrower one through :meth:`prefix`.
    """

    def __init__(self, config: AugmentConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        # Fortran order, filled row by row through one row buffer: the same
        # values as one (d, h) draw, with no transient copy of G and no
        # allocation per row, and g_hat.T is C-contiguous
        g = np.empty((config.hidden, config.input_dim)).T
        row_draw = np.empty(config.hidden)
        for row in g:
            row[...] = rng.standard_normal(out=row_draw)
        g.setflags(write=False)
        self.g_hat = g

    def prefix(self, d: int, k: int) -> Augmenter:
        """The map of the first ``d`` inputs onto the first ``k`` hidden
        units, over a view of ``G``.

        With ``k`` equal to this map's hidden size, it is the map an
        ``Augmenter`` of input dim ``d`` and the same seed draws. Without
        layer norm its hidden rows are the first ``k`` hidden rows of that
        map, and its raw rows the same, so its output is a subset of that
        map's rows; layer norm couples all hidden rows, so with it the ``k``
        units are normalized among themselves.
        """
        if not (1 <= d <= self.config.input_dim and 0 <= k <= self.config.hidden):
            raise InvalidInputError(
                f"prefix ({d}, {k}) exceeds the map's shape "
                f"({self.config.input_dim}, {self.config.hidden})"
            )
        view = object.__new__(Augmenter)
        view.config = replace(self.config, input_dim=d, hidden=k)
        view.g_hat = self.g_hat[:d, :k]
        return view

    @property
    def output_dim(self) -> int:
        return self.config.input_dim + self.config.hidden

    def augment(self, x, *, out=None) -> np.ndarray:
        """Map a d-by-b input block to its (d+h)-by-b augmented form.

        The form is written into ``out`` and returned when it is given: a
        writeable, C-contiguous float64 array of shape (d+h, b) that shares
        no memory with ``x``. Otherwise it is written into a new array.
        """
        xm = linalg.as_matrix(x, "x")
        if xm.shape[0] != self.config.input_dim:
            raise InvalidInputError(
                f"x has {xm.shape[0]} rows, augmenter expects {self.config.input_dim}"
            )
        h = self.config.hidden
        shape = (self.output_dim, xm.shape[1])
        if out is None:
            out = np.empty(shape)
        elif not (
            isinstance(out, np.ndarray)
            and out.dtype == np.float64
            and out.shape == shape
            and out.flags.c_contiguous
            and out.flags.writeable
        ):
            raise InvalidInputError(
                f"out must be a writeable C-contiguous float64 array of shape {shape}"
            )
        elif np.shares_memory(out, xm):
            raise InvalidInputError("out must share no memory with x")
        # the raw rows first: the product then reads them C-ordered
        out[h:] = xm
        hidden = out[:h]
        np.matmul(self.g_hat.T, out[h:], out=hidden)
        ACTIVATIONS[self.config.activation](hidden)
        if self.config.layer_norm:
            _layer_norm(hidden)
        return out
