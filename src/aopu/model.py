"""The approximated-orthogonal-projection unit and its truncated-gradient update.

The unit keeps a single trackable weight matrix ``w`` of shape (d+h, 1) over
augmented features. Training never differentiates through ``w`` directly:
the loss is expressed through the dual image ``D = x_tilde @ x_tilde.T @ w``,
the gradient is taken with respect to ``D``, and that gradient is applied to
``w``. On column-full-rank batches this equals the Fisher-preconditioned
(natural) gradient of the plain squared error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .augment import Augmenter, check_real
from .errors import DivergenceError, InvalidInputError


def forward(x_tilde, w) -> np.ndarray:
    """Model output ``x_tilde.T @ w`` of shape (b, o)."""
    xt = linalg.as_matrix(x_tilde, "x_tilde")
    wm = linalg.as_matrix(w, "w")
    if xt.shape[0] != wm.shape[0]:
        raise InvalidInputError(
            f"x_tilde has {xt.shape[0]} feature rows but w has {wm.shape[0]}"
        )
    return xt.T @ wm


def dual(x_tilde, w) -> np.ndarray:
    """Dual image ``x_tilde @ (x_tilde.T @ w)`` of shape (d+h, o).

    Computed in that association order; the (d+h)-square Gram matrix is never
    materialized.
    """
    xt, _, wm = _validated(x_tilde, None, "w", w)
    return xt @ (xt.T @ wm)


def _validated(x_tilde, y, name: str, m):
    """``x_tilde``, ``y`` and ``m`` (the weights or a dual image, called
    ``name``) as matrices (:func:`linalg.as_matrix`) that fit together.

    ``x_tilde`` must hold at least one sample; ``m`` one row per feature of
    ``x_tilde``; ``y``, unless None, one row per sample and one column per
    output.
    """
    xt = linalg.as_matrix(x_tilde, "x_tilde")
    y = None if y is None else linalg.as_matrix(y, "y")
    m = linalg.as_matrix(m, name)
    if xt.shape[1] == 0:
        raise InvalidInputError("x_tilde has no columns: batch size must be positive")
    if m.shape[0] != xt.shape[0]:
        raise InvalidInputError(
            f"{name} has {m.shape[0]} rows, x_tilde has {xt.shape[0]} feature rows"
        )
    if y is not None and y.shape != (xt.shape[1], m.shape[1]):
        raise InvalidInputError(
            f"y has shape {y.shape}, expected {(xt.shape[1], m.shape[1])}"
        )
    return xt, y, m


def _update(xt, y, d=None, recon=None):
    """Reconstruction, truncated gradient and rank of one batch.

    The kernel of :func:`truncated_gradient` and :meth:`AopuModel.step`, on
    validated arrays and a dual image ``d`` or the outputs ``recon``.
    """
    rank, recover, lift = linalg.gram_solver(xt)
    recon = recover(d) if recon is None else recon
    grad = -(2.0 / xt.shape[1]) * lift(y - recon)
    return recon, grad, rank


def reconstruct(x_tilde, dual_matrix) -> np.ndarray:
    """Recover batch outputs from a dual image: ``pinv(x.T x) @ (x.T @ D)``.

    On a column-full-rank, well-conditioned batch this reproduces
    :func:`forward` to working precision; near-singular batches amplify
    round-off through the reciprocal Gram eigenvalues.
    """
    xt, _, dm = _validated(x_tilde, None, "dual", dual_matrix)
    return linalg.gram_solver(xt)[1](dm)


def _squared_error(y, recon) -> float:
    # overflow to inf is meaningful here: it is what divergence detection sees
    with np.errstate(over="ignore"):
        return float(np.sum((y - recon) ** 2) / y.shape[0])


def loss_value(y, recon) -> float:
    """Mean over the batch of squared reconstruction error."""
    ym = linalg.as_matrix(y, "y")
    rm = np.asarray(recon, dtype=np.float64)
    if ym.shape != rm.shape:
        raise InvalidInputError(f"shape mismatch: y {ym.shape} vs recon {rm.shape}")
    return _squared_error(ym, rm)


def truncated_gradient(x_tilde, y, dual_matrix) -> np.ndarray:
    """Gradient of the reconstruction loss with respect to the dual image.

    Equals ``-(2/b) * x_tilde @ pinv(x.T x) @ (y - reconstruct)``. This is the
    only gradient the unit ever computes; backpropagation stops at the dual.
    """
    return _update(*_validated(x_tilde, y, "dual", dual_matrix))[1]


@dataclass(frozen=True)
class StepReport:
    """Pre-step loss, batch rank, rank ratio and gradient norm for one update.

    The rank and rank ratio are read off the factorization the step itself
    takes.
    """

    loss: float
    rank_ratio: float
    grad_norm: float
    rank: int


class LinearReadout:
    """One linear read-out of augmented features: the trackable weights
    ``w_tilde`` of shape (d+h, 1), sized by an augmenter and zero at the
    start, and the learning rate of their update (by default the subclass's
    ``DEFAULT_LR``).

    :class:`AopuModel` and :class:`baselines.RvflnnModel` differ only in
    ``step``, which mutates the weights and must be externally serialized
    (single-writer); ``forward`` on a fixed weight snapshot is safe to call
    concurrently.
    """

    DEFAULT_LR: float

    def __init__(self, augmenter: Augmenter, lr: float | None = None):
        lr = self.DEFAULT_LR if lr is None else lr
        check_real("learning rate", lr, positive=True)
        self.lr = float(lr)
        # zero init: the first update is a pure data-driven projection and no
        # extra randomness source is introduced
        self.w_tilde = np.zeros((augmenter.output_dim, 1))

    def forward(self, x_tilde) -> np.ndarray:
        return forward(x_tilde, self.w_tilde)

    def _apply(self, rank: int, bs: int, loss: float, grad, new_w) -> StepReport:
        """Store ``new_w`` and report the step that computed it.

        A non-finite loss or new weight stores nothing and raises a
        :class:`DivergenceError` carrying the batch's rank ratio.
        """
        rr = rank / bs
        if not np.isfinite(loss) or not np.all(np.isfinite(new_w)):
            raise DivergenceError(
                f"non-finite update on batch with rank ratio {rr:.4f}",
                rank_ratio=rr,
            )
        self.w_tilde = new_w
        return StepReport(
            loss=loss,
            rank_ratio=rr,
            grad_norm=linalg.frobenius_norm(grad),
            rank=rank,
        )


class AopuModel(LinearReadout):
    """The projection unit: a read-out updated by the truncated gradient."""

    DEFAULT_LR = 1.0

    def step(self, x_tilde, y) -> StepReport:
        """Apply one truncated-gradient update ``w <- w - lr * grad``.

        Validates ``x_tilde``, ``y`` and the weights once, then factors
        ``x_tilde`` once for the gradient and the reported rank ratio. The
        loss and gradient read :func:`forward`'s ``x_tilde.T @ w``, which the
        dual round trip of :func:`truncated_gradient` recovers in exact
        arithmetic (on the SVD route, up to what the lift annihilates). A
        non-finite loss, gradient or new weight aborts the step before any
        weight change and surfaces a :class:`DivergenceError` carrying that
        rank ratio.
        """
        xt, y, w = _validated(x_tilde, y, "w", self.w_tilde)
        # an overflow is what divergence detection sees: w is finite, so the
        # new weights are finite only if the outputs and the gradient are
        with np.errstate(over="ignore", invalid="ignore"):
            recon, grad, rank = _update(xt, y, recon=xt.T @ w)
            new_w = w - self.lr * grad
        return self._apply(rank, xt.shape[1], _squared_error(y, recon), grad, new_w)
