"""The approximated-orthogonal-projection unit and its truncated-gradient update.

The unit keeps a single trackable weight matrix ``w`` of shape (d+h, o) over
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
from .augment import Augmenter
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
    xt = linalg.as_matrix(x_tilde, "x_tilde")
    return xt @ forward(xt, w)


def _check_shapes(xt, y, name: str, m) -> None:
    """``xt`` must hold at least one sample; ``m`` (dual image or weights) one
    row per feature of ``xt``; ``y``, when given, one row per sample and one
    column per output."""
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


def _update(xt, y, d):
    """Reconstruction, truncated gradient and rank of one batch.

    The single kernel behind :func:`reconstruct`, :func:`truncated_gradient`
    and :meth:`AopuModel.step`; it takes validated arrays.
    """
    rank, solve = linalg.gram_solver(xt)
    recon = solve(xt.T @ d)
    grad = -(2.0 / xt.shape[1]) * (xt @ solve(y - recon))
    return recon, grad, rank


def reconstruct(x_tilde, dual_matrix) -> np.ndarray:
    """Recover batch outputs from a dual image: ``pinv(x.T x) @ (x.T @ D)``.

    On a column-full-rank, well-conditioned batch this reproduces
    :func:`forward` to working precision; near-singular batches amplify
    round-off through the reciprocal Gram eigenvalues.
    """
    xt = linalg.as_matrix(x_tilde, "x_tilde")
    dm = linalg.as_matrix(dual_matrix, "dual")
    _check_shapes(xt, None, "dual", dm)
    return linalg.gram_solver(xt)[1](xt.T @ dm)


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
    xt = linalg.as_matrix(x_tilde, "x_tilde")
    ym = linalg.as_matrix(y, "y")
    dm = linalg.as_matrix(dual_matrix, "dual")
    _check_shapes(xt, ym, "dual", dm)
    return _update(xt, ym, dm)[1]


def natural_gradient_reference(x_tilde, y, w) -> np.ndarray:
    """Fisher-preconditioned plain gradient, as an independent oracle.

    Preconditions ``-(2/b) x (y - x.T w)`` with the pseudo-inverse of the
    feature Gram ``x x.T`` (the Fisher information of the unit-covariance
    Gaussian output). Materializes the (d+h)-square Gram, so intended for
    small verification instances rather than training.
    """
    xt = linalg.as_matrix(x_tilde, "x_tilde")
    ym = linalg.as_matrix(y, "y")
    grad = -(2.0 / xt.shape[1]) * xt @ (ym - forward(xt, w))
    return linalg.pinv(linalg.row_gram(xt)) @ grad


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


class AopuModel:
    """Trackable parameter sized by an augmenter, plus the update's learning rate.

    ``step`` mutates the weights and must be externally serialized
    (single-writer); ``forward`` on a fixed weight snapshot is safe to call
    concurrently.
    """

    def __init__(self, augmenter: Augmenter, out_dim: int = 1, lr: float = 1.0):
        if lr <= 0:
            raise InvalidInputError(f"learning rate must be positive, got {lr}")
        if out_dim < 1:
            raise InvalidInputError(f"output width must be >= 1, got {out_dim}")
        self.lr = float(lr)
        # zero init: the first update is a pure data-driven projection and no
        # extra randomness source is introduced
        self.w_tilde = np.zeros((augmenter.output_dim, out_dim))

    def forward(self, x_tilde) -> np.ndarray:
        return forward(x_tilde, self.w_tilde)

    def step(self, x_tilde, y) -> StepReport:
        """Apply one truncated-gradient update ``w <- w - lr * grad``.

        Validates ``x_tilde``, ``y`` and the weights once, then factors
        ``x_tilde`` once for the loss, the gradient and the reported rank
        ratio. A non-finite loss or gradient, or a column Gram that is not
        representable (see :func:`linalg.gram_solver`), aborts the step before
        any weight change and surfaces a :class:`DivergenceError` carrying
        that rank ratio.
        """
        xt = linalg.as_matrix(x_tilde, "x_tilde")
        y = linalg.as_matrix(y, "y")
        w = linalg.as_matrix(self.w_tilde, "w")
        _check_shapes(xt, y, "w", w)
        # the dual image, associated as in dual(), so the update equals
        # lr * truncated_gradient(x, y, dual(x, w)) bit for bit
        recon, grad, rank = _update(xt, y, xt @ (xt.T @ w))
        rr = rank / xt.shape[1]
        pre_loss = _squared_error(y, recon)
        if not np.isfinite(pre_loss) or not np.all(np.isfinite(grad)):
            raise DivergenceError(
                f"non-finite update on batch with rank ratio {rr:.4f}",
                rank_ratio=rr,
            )
        self.w_tilde = w - self.lr * grad
        return StepReport(
            loss=pre_loss,
            rank_ratio=rr,
            grad_norm=float(np.linalg.norm(grad)),
            rank=rank,
        )
