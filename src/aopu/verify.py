"""Numerical certificates for the mathematical claims behind the unit.

Each check takes its instance as plain arrays or draws it from its seed,
measures the relevant residual with an independent oracle (finite
differences, Monte-Carlo sampling, exhaustive grid search, perturbation
sweeps) and returns a pass/fail :class:`CheckResult` of plain data. The
``verify`` CLI subcommand runs :func:`run_default_suite` as a regression
gate, and :mod:`aopu.cli` writes its results to ``verify.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .augment import check_count, check_real
from .baselines import conditional_mean_mve, linear_mve_fit, mse_gradient
from .errors import InvalidInputError
from .model import (
    dual,
    forward,
    loss_value,
    reconstruct,
    truncated_gradient,
)


@dataclass
class CheckResult:
    """Outcome of one verification check."""

    name: str
    passed: bool
    error: float  # headline residual for quick scanning
    details: dict = field(default_factory=dict)


def finite_diff_gradient(f, point, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of a matrix."""
    p = np.array(point, dtype=np.float64)
    grad = np.zeros_like(p)
    it = np.nditer(p, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = p[idx]
        p[idx] = orig + eps
        hi = f(p)
        p[idx] = orig - eps
        lo = f(p)
        p[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * eps)
    return grad


def _rel_err(got, want) -> float:
    denom = np.linalg.norm(want)
    diff = np.linalg.norm(np.asarray(got) - np.asarray(want))
    return float(diff / denom) if denom > 0 else float(diff)


# ---------------------------------------------------------------------------
# reference formulas of the update kernel
# ---------------------------------------------------------------------------


def reconstruct_reference(x_tilde, dual_matrix) -> np.ndarray:
    """``pinv(x.T x) @ (x.T @ D)`` through an explicit Gram and its own SVD.

    The textbook form of :func:`aopu.model.reconstruct`, kept as an oracle
    for the single-factorization kernel.
    """
    xt = linalg.as_matrix(x_tilde, "x_tilde")
    dm = linalg.as_matrix(dual_matrix, "dual")
    return linalg.pinv(xt.T @ xt) @ (xt.T @ dm)


def truncated_gradient_reference(x_tilde, y, dual_matrix) -> np.ndarray:
    """``-(2/b) * x @ pinv(x.T x) @ (y - reconstruct_reference)``.

    The textbook form of :func:`aopu.model.truncated_gradient`, kept as an
    oracle for the single-factorization kernel.
    """
    xt = linalg.as_matrix(x_tilde, "x_tilde")
    ym = linalg.as_matrix(y, "y")
    dm = linalg.as_matrix(dual_matrix, "dual")
    gram_inv = linalg.pinv(xt.T @ xt)
    resid = ym - gram_inv @ (xt.T @ dm)
    return -(2.0 / xt.shape[1]) * xt @ (gram_inv @ resid)


def natural_gradient_reference(x_tilde, y, w) -> np.ndarray:
    """``pinv(x x.T) @ mse_gradient(x, y, w)``: the plain gradient
    preconditioned by the pseudo-inverse of the feature Gram ``x x.T`` (the
    Fisher information of the unit-covariance Gaussian output).

    The textbook form of the natural gradient that
    :func:`aopu.model.truncated_gradient` approximates. It materializes the
    (d+h)-square Gram, so it is meant for small verification instances.
    """
    xt = linalg.as_matrix(x_tilde, "x_tilde")
    return linalg.pinv(xt @ xt.T) @ mse_gradient(xt, y, w)


# ---------------------------------------------------------------------------
# gradient oracles
# ---------------------------------------------------------------------------


def check_gradient_oracles(n_instances: int = 100, seed: int = 0,
                           tol: float = 1e-5) -> CheckResult:
    """Truncated and plain gradients against central finite differences.

    Random instances with b <= 6 samples and at most 8 feature rows; the loss
    is quadratic in both arguments, so finite differences are exact up to
    round-off and step-size error.
    """
    rng = np.random.default_rng(seed)
    worst_truncated = 0.0
    worst_plain = 0.0
    for _ in range(n_instances):
        b = int(rng.integers(1, 7))
        dh = int(rng.integers(2, 9))
        xt = rng.standard_normal((dh, b))
        w = rng.standard_normal((dh, 1))
        y = rng.standard_normal((b, 1))

        d = dual(xt, w)
        got = truncated_gradient(xt, y, d)
        fd = finite_diff_gradient(lambda m: loss_value(y, reconstruct(xt, m)), d)
        worst_truncated = max(worst_truncated, _rel_err(got, fd))

        got_plain = mse_gradient(xt, y, w)
        fd_plain = finite_diff_gradient(
            lambda m: loss_value(y, forward(xt, m)), w
        )
        worst_plain = max(worst_plain, _rel_err(got_plain, fd_plain))
    worst = max(worst_truncated, worst_plain)
    return CheckResult(
        name="gradient_finite_difference",
        passed=worst <= tol,
        error=worst,
        details={
            "n_instances": n_instances,
            "truncated_max_rel_err": worst_truncated,
            "plain_max_rel_err": worst_plain,
            "tolerance": tol,
        },
    )


def check_natural_gradient_identity(n_instances: int = 200, seed: int = 0,
                                    tol: float = 1e-8) -> CheckResult:
    """Truncated gradient vs Fisher-preconditioned gradient, plus commutation.

    On column-full-rank batches the two must agree to working precision; the
    commutation identity x @ pinv(x.T x) == pinv(x x.T) @ x must hold at any
    rank. Deviations on rank-deficient instances are reported, not asserted.
    """
    rng = np.random.default_rng(seed)
    worst_full = 0.0
    worst_commutation = 0.0
    deficient_deviations = []
    for k in range(n_instances):
        b = int(rng.integers(1, 7))
        dh = int(rng.integers(b + 1, b + 8))  # more rows than columns
        xt = rng.standard_normal((dh, b))
        w = rng.standard_normal((dh, 1))
        y = rng.standard_normal((b, 1))
        tg = truncated_gradient(xt, y, dual(xt, w))
        ng = natural_gradient_reference(xt, y, w)
        worst_full = max(worst_full, _rel_err(tg, ng))

        # arbitrary-rank instance via a low-rank product plus optional noise
        r = int(rng.integers(0, min(dh, b) + 1))
        xr = (
            rng.standard_normal((dh, r)) @ rng.standard_normal((r, b))
            if r
            else np.zeros((dh, b))
        )
        left = xr @ linalg.pinv(xr.T @ xr)
        right = linalg.pinv(xr @ xr.T) @ xr
        denom = max(np.linalg.norm(right), 1.0)
        worst_commutation = max(
            worst_commutation, float(np.linalg.norm(left - right) / denom)
        )
        if 0 < r < b:
            tg_r = truncated_gradient(xr, y, dual(xr, w))
            ng_r = natural_gradient_reference(xr, y, w)
            deficient_deviations.append(_rel_err(tg_r, ng_r))
    worst = max(worst_full, worst_commutation)
    return CheckResult(
        name="natural_gradient_identity",
        passed=worst <= tol,
        error=worst,
        details={
            "n_instances": n_instances,
            "full_rank_max_rel_dev": worst_full,
            "commutation_max_rel_dev": worst_commutation,
            "deficient_rel_dev_max": max(deficient_deviations)
            if deficient_deviations
            else 0.0,
            "tolerance": tol,
        },
    )


# ---------------------------------------------------------------------------
# Fisher information via Monte Carlo
# ---------------------------------------------------------------------------


def check_fim_convergence(x_tilde, n_samples: int = 100_000, seed: int = 0,
                          tol: float = 0.05, replicates: int = 60) -> CheckResult:
    """Fisher MC error at n samples, and shrinkage when n is doubled.

    The output model is the unit-covariance Gaussian around x.T @ w, whose
    Fisher information x x.T does not depend on w; ``x_tilde`` has at most
    4 feature rows and 3 samples. The error at each sample count is the RMS
    over several disjoint streams, which tracks the 1/sqrt(n) law closely
    enough that doubling the samples shrinks it; everything is deterministic
    for a fixed seed.
    """
    xt = linalg.as_matrix(x_tilde, "x_tilde")
    check_count("n_samples", n_samples, 1)
    if xt.shape[0] > 4 or xt.shape[1] > 3:
        raise InvalidInputError(
            "Monte-Carlo Fisher check is restricted to <=4 feature rows "
            f"and <=3 samples, got {xt.shape}"
        )
    rng = np.random.default_rng(seed)
    fim_exact = xt @ xt.T
    denom = max(np.linalg.norm(fim_exact), np.finfo(float).tiny)

    def err_at(n):
        errs = []
        for _ in range(replicates):
            s = xt @ rng.standard_normal((xt.shape[1], n))
            errs.append((np.linalg.norm(s @ s.T / n - fim_exact) / denom) ** 2)
        return float(np.sqrt(np.mean(errs)))

    e1 = err_at(int(n_samples))
    e2 = err_at(2 * int(n_samples))
    return CheckResult(
        name="fisher_information_convergence",
        passed=(e1 <= tol) and (e2 < e1),
        error=e1,
        details={"error_at_n": e1, "error_at_2n": e2, "n_samples": int(n_samples)},
    )


# ---------------------------------------------------------------------------
# mirror map and coherence
# ---------------------------------------------------------------------------


def check_mirror_map(x_tilde, w, n_perturbations: int = 100, seed: int = 0,
                     tol: float = 1e-8) -> CheckResult:
    """Fixed point of the dual map under the Gram-weighted regularizer.

    With full row rank, the dual image D* = x x.T w must satisfy
    w == pinv(x x.T) @ D* and maximize <w, D> - 0.5 * D.T pinv(x x.T) D over
    random perturbations of D*.
    """
    xt = linalg.as_matrix(x_tilde, "x_tilde")
    wm = linalg.as_matrix(w, "w")
    if linalg.rank(xt) < xt.shape[0]:
        raise InvalidInputError(
            "mirror-map check needs full row rank (use at least d+h samples)"
        )
    gram_inv = linalg.pinv(xt @ xt.T)
    d_star = dual(xt, wm)
    residual = float(np.linalg.norm(wm - gram_inv @ d_star))

    def objective(d):
        return float(np.sum(wm * d) - 0.5 * np.sum(d * (gram_inv @ d)))

    f_star = objective(d_star)
    rng = np.random.default_rng(seed)
    scale = 0.1 * (1.0 + np.linalg.norm(d_star))
    margins = []
    for _ in range(n_perturbations):
        delta = scale * rng.standard_normal(d_star.shape)
        margins.append(f_star - objective(d_star + delta))
    min_margin = float(min(margins))
    return CheckResult(
        name="mirror_map_fixed_point",
        passed=(residual <= tol) and (min_margin > 0.0),
        error=residual,
        details={
            "stationarity_residual": residual,
            "min_perturbation_margin": min_margin,
            "n_perturbations": n_perturbations,
        },
    )


def check_coherence(x_tilde, d_star, noise: float = 0.0, n_samples: int = 1000,
                    seed: int = 0, tol: float = -1e-10,
                    noise_samples: int = 10_000) -> CheckResult:
    """Sign of <grad L(D), D - D*> over random duals.

    The targets are ``reconstruct(x_tilde, d_star)``, the outputs of the
    ground-truth dual image, plus ``noise`` times a standard normal draw.
    With exact targets every inner product must be non-negative (within
    round-off), with equality exactly when the reconstructions coincide; a
    direction from the null space of x.T exercises the equality case. With
    noisy targets the inequality only holds in expectation, so it is checked
    on a noise-averaged estimate with a 3-sigma allowance.
    """
    xt = linalg.as_matrix(x_tilde, "x_tilde")
    d_star = linalg.as_matrix(d_star, "d_star")
    check_real("noise", noise)
    check_count("n_samples", n_samples, 1)
    check_count("noise_samples", noise_samples, 1)
    rng = np.random.default_rng(seed)
    y = reconstruct(xt, d_star)

    if noise == 0.0:
        min_inner = np.inf
        for _ in range(int(n_samples)):
            d = d_star + rng.standard_normal(d_star.shape) * (
                1.0 + np.linalg.norm(d_star)
            )
            g = truncated_gradient(xt, y, d)
            min_inner = min(min_inner, float(np.sum(g * (d - d_star))))
        # equality case along a null direction of x.T, available when the
        # feature rows outnumber the batch rank
        r = linalg.rank(xt)
        null_inner = None
        null_loss_change = None
        if r < xt.shape[0]:
            u_full, _, _ = np.linalg.svd(xt, full_matrices=True)
            v_dir = u_full[:, -1][:, None] @ np.ones((1, d_star.shape[1]))
            d_null = d_star + v_dir
            g = truncated_gradient(xt, y, d_null)
            null_inner = float(np.sum(g * (d_null - d_star)))
            null_loss_change = abs(
                loss_value(y, reconstruct(xt, d_null))
                - loss_value(y, reconstruct(xt, d_star))
            )
        passed = min_inner >= tol
        if null_inner is not None:
            passed = passed and abs(null_inner) <= 1e-8 and null_loss_change <= 1e-8
        return CheckResult(
            name="coherence_inner_products",
            passed=passed,
            error=max(0.0, -min_inner),
            details={
                "min_inner_product": min_inner,
                "n_samples": int(n_samples),
                "null_direction_inner": null_inner,
                "null_direction_loss_change": null_loss_change,
                "rank": r,
            },
        )

    # noisy case: average over noise draws, require mean >= -3 sigma
    d = d_star + rng.standard_normal(d_star.shape) * (1.0 + np.linalg.norm(d_star))
    inners = np.empty(int(noise_samples))
    for k in range(int(noise_samples)):
        g = truncated_gradient(xt, y + noise * rng.standard_normal(y.shape), d)
        inners[k] = float(np.sum(g * (d - d_star)))
    mean = float(inners.mean())
    sem = float(inners.std() / np.sqrt(inners.size))
    passed = mean >= -3.0 * sem
    return CheckResult(
        name="coherence_inner_products_noisy",
        passed=passed,
        error=max(0.0, -mean),
        details={"mean_inner": mean, "sem": sem, "noise_samples": int(noise_samples)},
    )


# ---------------------------------------------------------------------------
# minimum-variance optimality
# ---------------------------------------------------------------------------


def _expected_squared_error(pmf, y_values, estimates) -> float:
    return float(np.sum(pmf * (y_values[None, :] - estimates[:, None]) ** 2))


def check_mve_optimality(seed: int = 0, n_pmfs: int = 20,
                         n_perturbations: int = 100,
                         grid_step: float = 0.01) -> CheckResult:
    """Conditional-mean and linear estimators against exhaustive competitors.

    Discrete part: on random joint pmfs, the conditional mean must beat every
    estimator tabulated on a fine grid, and the cross term
    E[(y - E[y|x]) (E[y|x] - f(x))] must vanish for arbitrary f.
    Linear part: the covariance-ratio fit must match the normal-equations
    solution and beat norm-0.1 perturbations with re-centered offsets.
    """
    rng = np.random.default_rng(seed)
    grid_margin = -np.inf  # worst (best_grid - conditional) gap; must be >= ~0
    cross_term_max = 0.0
    for _ in range(n_pmfs):
        nx = int(rng.integers(2, 5))
        ny = int(rng.integers(2, 6))
        pmf = rng.random((nx, ny))
        pmf /= pmf.sum()
        x_values = np.arange(nx, dtype=np.float64)
        y_values = np.sort(rng.uniform(0.0, 1.0, size=ny))
        cond_mean = np.array(
            [conditional_mean_mve(pmf, x_values, y_values, x) for x in x_values]
        )
        ese_cond = _expected_squared_error(pmf, y_values, cond_mean)
        grid = np.arange(y_values.min() - 0.05, y_values.max() + 0.05, grid_step)
        # per-x exhaustive minimization over the grid
        best_grid = np.empty(nx)
        for i in range(nx):
            errs = np.sum(pmf[i][None, :] * (y_values[None, :] - grid[:, None]) ** 2, axis=1)
            best_grid[i] = grid[np.argmin(errs)]
        ese_grid = _expected_squared_error(pmf, y_values, best_grid)
        grid_margin = max(grid_margin, ese_cond - ese_grid)
        # cross term with an arbitrary tabulated estimator
        f_arbitrary = rng.uniform(y_values.min(), y_values.max(), size=nx)
        cross = np.sum(
            pmf
            * (y_values[None, :] - cond_mean[:, None])
            * (cond_mean[:, None] - f_arbitrary[:, None])
        )
        cross_term_max = max(cross_term_max, abs(float(cross)))
    discrete_ok = grid_margin <= 1e-12 and cross_term_max <= 1e-12

    # linear instance
    d, n = 3, 400
    x = rng.standard_normal((d, n))
    a_true = rng.standard_normal((1, d))
    y = a_true @ x + 0.7 + 0.3 * rng.standard_normal((1, n))
    fit = linear_mve_fit(x, y)
    # normal-equations oracle with explicit intercept column
    design = np.vstack([x, np.ones((1, n))])
    theta, *_ = np.linalg.lstsq(design.T, y.T, rcond=None)
    ls_weights = theta[:d, 0][None, :]
    ls_offset = theta[d, 0]
    normal_eq_err = max(
        float(np.max(np.abs(fit.weights - ls_weights))),
        abs(float(fit.offset[0]) - float(ls_offset)),
    )
    mve_mse = float(np.mean((y - fit.predict(x)) ** 2))
    perturb_margin = np.inf
    x_mean = x.mean(axis=1, keepdims=True)
    y_mean = y.mean(axis=1, keepdims=True)
    for _ in range(n_perturbations):
        delta = rng.standard_normal(fit.weights.shape)
        delta *= 0.1 / np.linalg.norm(delta)
        w_p = fit.weights + delta
        b_p = y_mean - w_p @ x_mean  # keep the perturbed estimator unbiased
        mse_p = float(np.mean((y - (w_p @ x + b_p)) ** 2))
        perturb_margin = min(perturb_margin, mse_p - mve_mse)
    resid = y - fit.predict(x)
    f_lin = (fit.weights + 0.05) @ x + 0.1
    sample_cross = abs(float(np.mean(resid * (fit.predict(x) - f_lin))))
    linear_ok = (
        normal_eq_err <= 1e-8 and perturb_margin > 0.0 and sample_cross <= 1e-8
    )

    return CheckResult(
        name="minimum_variance_optimality",
        passed=discrete_ok and linear_ok,
        error=max(grid_margin, 0.0) + normal_eq_err,
        details={
            "grid_margin": grid_margin,
            "cross_term_max": cross_term_max,
            "normal_equations_err": normal_eq_err,
            "perturbation_margin": perturb_margin,
            "sample_cross_term": sample_cross,
            "n_pmfs": n_pmfs,
            "n_perturbations": n_perturbations,
        },
    )


# ---------------------------------------------------------------------------
# default suite
# ---------------------------------------------------------------------------


def run_default_suite(seed: int = 0, fim_samples: int = 100_000):
    """The full verification battery on canonical small instances."""
    check_count("seed", seed, 0)
    check_count("fim_samples", fim_samples, 1)
    rng = np.random.default_rng(seed)
    xt_small = rng.standard_normal((3, 2))
    rng.standard_normal((3, 1))  # the Fisher check's unused w; keeps later draws

    xt_wide = rng.standard_normal((3, 8))  # full row rank for the mirror map
    w_wide = rng.standard_normal((3, 1))

    xt_tall = rng.standard_normal((6, 4))  # feature rows exceed batch size
    d_tall = dual(xt_tall, rng.standard_normal((6, 1)))

    return [
        check_gradient_oracles(seed=seed),
        check_natural_gradient_identity(seed=seed),
        check_fim_convergence(xt_small, n_samples=fim_samples, seed=seed),
        check_mirror_map(xt_wide, w_wide, seed=seed),
        check_coherence(xt_tall, d_tall, n_samples=1000, seed=seed),
        check_coherence(xt_tall, d_tall, noise=0.1, seed=seed, noise_samples=10_000),
        check_mve_optimality(seed=seed),
    ]
