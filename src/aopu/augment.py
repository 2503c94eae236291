"""Random-feature augmentation: x_tilde = concat[acti(G.T @ x), x].

The augmentation matrix G is drawn once from a seeded standard normal
generator and frozen; the hidden block is passed through one of the catalog
activations and (optionally) per-sample layer normalization. The raw input
block is always appended verbatim below the hidden block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidInputError

# Deterministic stand-in for the randomized-slope rectifier: midpoint of the
# conventional (1/8, 1/3) sampling range, so runs are reproducible.
RRELU_SLOPE = 11.0 / 48.0
LEAKY_SLOPE = 0.01
SHRINK_LAMBDA = 0.5


def _softplus(x):
    return np.logaddexp(0.0, x)


def _sigmoid(x):
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


ACTIVATIONS = {
    "tanh": np.tanh,
    "hardshrink": lambda x: np.where(np.abs(x) > SHRINK_LAMBDA, x, 0.0),
    "tanhshrink": lambda x: x - np.tanh(x),
    "softsign": lambda x: x / (1.0 + np.abs(x)),
    "softshrink": lambda x: np.sign(x) * np.maximum(np.abs(x) - SHRINK_LAMBDA, 0.0),
    "sigmoid": _sigmoid,
    "relu": lambda x: np.maximum(x, 0.0),
    "relu6": lambda x: np.clip(x, 0.0, 6.0),
    "rrelu": lambda x: np.where(x >= 0, x, RRELU_SLOPE * x),
    "leakyrelu": lambda x: np.where(x >= 0, x, LEAKY_SLOPE * x),
    "hardswish": lambda x: x * np.clip(x + 3.0, 0.0, 6.0) / 6.0,
    "mish": lambda x: x * np.tanh(_softplus(x)),
}

# Odd activations whose expectation under a symmetric input law is zero.
ZERO_MEAN_ACTIVATIONS = ("hardshrink", "tanh", "tanhshrink", "softsign", "softshrink")


def activation_apply(name: str, m) -> np.ndarray:
    """Apply a catalog activation element-wise."""
    try:
        fn = ACTIVATIONS[name]
    except KeyError:
        raise InvalidInputError(
            f"unknown activation {name!r}; available: {sorted(ACTIVATIONS)}"
        ) from None
    return fn(np.asarray(m, dtype=np.float64))


def layer_norm(m) -> np.ndarray:
    """Rescale each column (sample) to zero mean and unit variance over rows.

    No learnable affine parameters. Columns with zero variance are left at
    zero after centering rather than divided.
    """
    a = linalg.as_matrix(m, "layer_norm input")
    if a.shape[0] < 2:
        raise InvalidInputError(
            f"layer normalization needs at least 2 feature rows, got {a.shape[0]}"
        )
    return _layer_norm(a)


def _layer_norm(a: np.ndarray) -> np.ndarray:
    """:func:`layer_norm` of a validated matrix with at least 2 rows."""
    centered = a - a.mean(axis=0, keepdims=True)
    std = centered.std(axis=0, keepdims=True)
    return np.divide(centered, std, out=np.zeros_like(centered), where=std > 0)


@dataclass(frozen=True)
class AugmentConfig:
    """Shape, activation, normalization and seed of the augmentation block."""

    input_dim: int
    hidden: int
    activation: str = "tanh"
    layer_norm: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1:
            raise InvalidInputError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.hidden < 0:
            raise InvalidInputError(f"hidden must be >= 0, got {self.hidden}")
        if self.activation not in ACTIVATIONS:
            raise InvalidInputError(
                f"unknown activation {self.activation!r}; "
                f"available: {sorted(ACTIVATIONS)}"
            )
        if self.layer_norm and self.hidden < 2:
            raise InvalidInputError("layer_norm requires a hidden block of >= 2 rows")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise InvalidInputError(
                f"seed must be a non-negative integer, got {self.seed!r}"
            )


class Augmenter:
    """Frozen random-matrix feature map.

    The weight matrix is drawn i.i.d. standard normal from the seeded
    generator at construction time, marked read-only, and never changes, so
    concurrent :meth:`augment` calls are safe.
    """

    def __init__(self, config: AugmentConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        g = rng.standard_normal((config.input_dim, config.hidden))
        g.setflags(write=False)
        self.g_hat = g

    @property
    def output_dim(self) -> int:
        return self.config.input_dim + self.config.hidden

    def augment(self, x) -> np.ndarray:
        """Map a d-by-b input block to its (d+h)-by-b augmented form."""
        xm = linalg.as_matrix(x, "x")
        if xm.shape[0] != self.config.input_dim:
            raise InvalidInputError(
                f"x has {xm.shape[0]} rows, augmenter expects {self.config.input_dim}"
            )
        hidden = activation_apply(self.config.activation, self.g_hat.T @ xm)
        if self.config.layer_norm and self.config.hidden > 0:
            hidden = _layer_norm(hidden)
        return np.vstack([hidden, xm])
