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
from .errors import InvalidInputError, UndefinedConditionalError
from .model import LinearReadout, StepReport, _squared_error, _validated

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def mse_gradient(x_tilde, y, w) -> np.ndarray:
    """Plain gradient of the batch MSE through the linear output:
    ``-(2/b) * x_tilde @ (y - x_tilde.T @ w)``."""
    xt, ym, wm = _validated(x_tilde, y, "w", w)
    return -(2.0 / xt.shape[1]) * xt @ (ym - xt.T @ wm)


class RvflnnModel(LinearReadout):
    """Random-feature network trained by Adam on plain MSE gradients.

    The projection unit's read-out (same augmenter, zero init) with another
    update rule.
    """

    DEFAULT_LR = 0.005

    def __init__(self, augmenter: Augmenter, lr: float | None = None):
        super().__init__(augmenter, lr)
        self.adam_m = np.zeros_like(self.w_tilde)
        self.adam_v = np.zeros_like(self.w_tilde)
        self.adam_t = 0

    def step(self, x_tilde, y) -> StepReport:
        """One Adam update on the plain MSE gradient.

        Validates ``x_tilde``, ``y`` and the weights once. The update takes
        no factorization, so the rank ratio it reports (and any
        :class:`DivergenceError` carries) comes from a separate rank of
        ``x_tilde``. A non-finite loss or update leaves the weights and the
        Adam state unchanged.
        """
        xt, y, w = _validated(x_tilde, y, "w", self.w_tilde)
        # the step count and moments are formed aside; overflow to inf or nan
        # is left for _apply to detect
        t = self.adam_t + 1
        with np.errstate(over="ignore", invalid="ignore"):
            pred = xt.T @ w
            grad = -(2.0 / xt.shape[1]) * xt @ (y - pred)
            m = ADAM_BETA1 * self.adam_m + (1.0 - ADAM_BETA1) * grad
            v = ADAM_BETA2 * self.adam_v + (1.0 - ADAM_BETA2) * grad * grad
            m_hat = m / (1.0 - ADAM_BETA1**t)
            v_hat = v / (1.0 - ADAM_BETA2**t)
            new_w = w - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        report = self._apply(
            linalg._rank(xt), xt.shape[1], _squared_error(y, pred), grad, new_w
        )
        self.adam_t, self.adam_m, self.adam_v = t, m, v
        return report


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
    r_xx = xc @ xc.T / n
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
