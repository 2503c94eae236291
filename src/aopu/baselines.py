"""Comparison learners sharing the same feature map.

``RvflnnModel`` trains the identical architecture with plain mean-squared-
error gradients under Adam; the closed-form estimators implement the general
(conditional-mean) and linear minimum-variance solutions used as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .augment import Augmenter
from .errors import DivergenceError, InvalidInputError, UndefinedConditionalError
from .model import StepReport, _check_shapes, _squared_error, forward

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def mse_gradient(x_tilde, y, w) -> np.ndarray:
    """Plain gradient of the batch MSE through the linear output:
    ``-(2/b) * x_tilde @ (y - x_tilde.T @ w)``."""
    xt = linalg.as_matrix(x_tilde, "x_tilde")
    ym = linalg.as_matrix(y, "y")
    wm = linalg.as_matrix(w, "w")
    _check_shapes(xt, ym, "w", wm)
    return -(2.0 / xt.shape[1]) * xt @ (ym - xt.T @ wm)


class RvflnnModel:
    """Random-feature network trained by Adam on plain MSE gradients.

    Structurally identical to the projection unit (same augmenter, zero
    init); only the update rule differs. Single-writer like the unit.
    """

    def __init__(self, augmenter: Augmenter, out_dim: int = 1, lr: float = 0.005):
        if lr <= 0:
            raise InvalidInputError(f"learning rate must be positive, got {lr}")
        if out_dim < 1:
            raise InvalidInputError(f"output width must be >= 1, got {out_dim}")
        self.lr = float(lr)
        self.w_tilde = np.zeros((augmenter.output_dim, out_dim))
        self.adam_m = np.zeros_like(self.w_tilde)
        self.adam_v = np.zeros_like(self.w_tilde)
        self.adam_t = 0

    def forward(self, x_tilde) -> np.ndarray:
        return forward(x_tilde, self.w_tilde)

    def step(self, x_tilde, y) -> StepReport:
        """One Adam update on the plain MSE gradient.

        Validates ``x_tilde``, ``y`` and the weights once. The update takes
        no factorization, so the rank ratio it reports (and any
        :class:`DivergenceError` carries) comes from a separate rank of
        ``x_tilde``.
        """
        xt = linalg.as_matrix(x_tilde, "x_tilde")
        y = linalg.as_matrix(y, "y")
        w = linalg.as_matrix(self.w_tilde, "w")
        _check_shapes(xt, y, "w", w)
        rank = linalg._rank(xt)
        rr = rank / xt.shape[1]
        pred = xt.T @ w
        pre_loss = _squared_error(y, pred)
        grad = -(2.0 / xt.shape[1]) * xt @ (y - pred)
        if not np.isfinite(pre_loss) or not np.all(np.isfinite(grad)):
            raise DivergenceError(
                f"non-finite update on batch with rank ratio {rr:.4f}",
                rank_ratio=rr,
            )
        try:
            _adam_update(self, grad)
        except DivergenceError as exc:
            raise DivergenceError(str(exc), rank_ratio=rr) from exc
        return StepReport(
            loss=pre_loss,
            rank_ratio=rr,
            grad_norm=float(np.linalg.norm(grad)),
            rank=rank,
        )


def adam_step(model: RvflnnModel, grad) -> RvflnnModel:
    """Standard bias-corrected Adam update, applied in place."""
    g = linalg.as_matrix(grad, "grad")
    if g.shape != model.w_tilde.shape:
        raise InvalidInputError(
            f"gradient shape {g.shape} does not match weights {model.w_tilde.shape}"
        )
    return _adam_update(model, g)


def _adam_update(model: RvflnnModel, g: np.ndarray) -> RvflnnModel:
    """:func:`adam_step` on a gradient already validated against the weights.

    The new moments are computed aside and stored only with the weights, so a
    rejected (non-finite) update leaves the whole optimizer state unchanged.
    """
    t = model.adam_t + 1
    # overflow to inf or nan is what the finiteness check below detects
    with np.errstate(over="ignore", invalid="ignore"):
        m = ADAM_BETA1 * model.adam_m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * model.adam_v + (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        update = model.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    if not np.all(np.isfinite(update)):
        raise DivergenceError("non-finite Adam update")
    model.adam_t, model.adam_m, model.adam_v = t, m, v
    model.w_tilde = model.w_tilde - update
    return model


@dataclass(frozen=True)
class LinearMve:
    """Closed-form linear minimum-variance estimator ``y ~ W x + b``."""

    weights: np.ndarray  # (o, d)
    offset: np.ndarray  # (o,)

    def predict(self, x) -> np.ndarray:
        xm = linalg.as_matrix(x, "x")
        return self.weights @ xm + self.offset[:, None]


def linear_mve_fit(x, y) -> LinearMve:
    """Fit ``W = R_yx @ pinv(R_xx)`` and ``b = E[y] - W E[x]``.

    ``x`` is d-by-n, ``y`` is o-by-n. Covariances use the population (1/n)
    normalization; the ratio is normalization-invariant. The offset makes the
    estimator unbiased on the fitting sample by construction.
    """
    xm = linalg.as_matrix(x, "x")
    ym = linalg.as_matrix(y, "y")
    n = xm.shape[1]
    if ym.shape[1] != n:
        raise InvalidInputError(f"x has {n} samples but y has {ym.shape[1]}")
    if n < 2:
        raise InvalidInputError(f"need at least 2 samples to fit, got {n}")
    x_mean = xm.mean(axis=1, keepdims=True)
    y_mean = ym.mean(axis=1, keepdims=True)
    xc = xm - x_mean
    yc = ym - y_mean
    r_xx = linalg.symmetrize(xc @ xc.T / n)
    r_yx = yc @ xc.T / n
    weights = r_yx @ linalg.pinv(r_xx)
    offset = (y_mean - weights @ x_mean)[:, 0]
    return LinearMve(weights=weights, offset=offset)


def conditional_mean_mve(pmf, x_values, y_values, x_query) -> float:
    """Conditional mean E[y | x = x_query] of a discrete joint pmf.

    ``pmf[i, j]`` is P(x = x_values[i], y = y_values[j]); it must sum to 1.
    Querying an x with zero marginal probability raises
    :class:`UndefinedConditionalError`.
    """
    p = linalg.as_matrix(pmf, "pmf")
    xs = np.asarray(x_values, dtype=np.float64)
    ys = np.asarray(y_values, dtype=np.float64)
    if p.shape != (xs.size, ys.size):
        raise InvalidInputError(
            f"pmf shape {p.shape} does not match grid ({xs.size}, {ys.size})"
        )
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise InvalidInputError("pmf entries must be non-negative and sum to 1")
    matches = np.flatnonzero(np.isclose(xs, x_query, rtol=0.0, atol=1e-12))
    if matches.size == 0:
        raise InvalidInputError(f"x_query {x_query} is not on the x grid")
    row = p[matches[0]]
    p_x = row.sum()
    if p_x <= 0.0:
        raise UndefinedConditionalError(
            f"conditional mean undefined: P(x = {x_query}) = 0"
        )
    return float((ys * row).sum() / p_x)
