"""Acceptance gate: one test per release criterion, at its stated tolerance.

Each test prints one `[criterion NN] PASS/FAIL` line. Criteria 8 and 10 need
the public chemical-process dataset files; point AOPU_DATA_DIR at a directory
containing `debutanizer.csv` (2394 rows x 8 columns) and `sru.csv` (10080
rows x 7 columns) to enable them, otherwise they are skipped with an explicit
notice. All other criteria run self-contained on synthetic data.
"""

import os
import time

import numpy as np
import pytest

from aopu.baselines import linear_mve_fit
from aopu.data import load_csv, prepare_windows, synth_generate
from aopu.harness import TrainConfig, sweep, train_run
from aopu.model import dual
from aopu.survey import rr_survey
from aopu.verify import (
    check_coherence,
    check_fim_convergence,
    check_gradient_oracles,
    check_mirror_map,
    check_mve_optimality,
    check_natural_gradient_identity,
)

DATA_DIR = os.environ.get("AOPU_DATA_DIR", "")


def _report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion:02d}] {status} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _skip(criterion: int, reason: str) -> None:
    print(f"[criterion {criterion:02d}] SKIPPED - {reason}")
    pytest.skip(f"criterion {criterion}: {reason}")


def _load_real(name):
    if not DATA_DIR:
        return None
    path = os.path.join(DATA_DIR, f"{name}.csv")
    if not os.path.exists(path):
        return None
    return load_csv(path, schema=name)


def test_criterion_01_gradient_oracle_suite():
    t0 = time.time()
    res = check_gradient_oracles(n_instances=100, seed=0, tol=1e-5)
    _report(
        1,
        res.passed,
        f"100 finite-difference instances, max rel err {res.error:.2e} "
        f"(tol 1e-5, {time.time() - t0:.1f}s)",
    )


def test_criterion_02_natural_gradient_identity():
    t0 = time.time()
    res = check_natural_gradient_identity(n_instances=200, seed=0, tol=1e-8)
    d = res.details
    _report(
        2,
        res.passed,
        f"full-rank dev {d['full_rank_max_rel_dev']:.2e}, commutation dev "
        f"{d['commutation_max_rel_dev']:.2e} (tol 1e-8, {time.time() - t0:.1f}s)",
    )


def test_criterion_03_fisher_information_monte_carlo():
    t0 = time.time()
    rng = np.random.default_rng(0)
    res = check_fim_convergence(
        rng.standard_normal((3, 2)), n_samples=100_000, seed=0, tol=0.05
    )
    d = res.details
    _report(
        3,
        res.passed,
        f"MC error {d['error_at_n']:.4f} at 1e5 samples (tol 0.05), "
        f"{d['error_at_2n']:.4f} after doubling ({time.time() - t0:.1f}s)",
    )


def test_criterion_04_mirror_map_and_coherence():
    t0 = time.time()
    rng = np.random.default_rng(0)
    mirror = check_mirror_map(
        rng.standard_normal((4, 12)), rng.standard_normal((4, 1)), seed=0
    )
    xt = rng.standard_normal((6, 4))
    w = rng.standard_normal((6, 1))
    coh = check_coherence(xt, dual(xt, w), n_samples=1000, seed=0)
    ok = (
        mirror.passed
        and mirror.details["stationarity_residual"] < 1e-8
        and coh.passed
        and coh.details["min_inner_product"] >= -1e-10
    )
    _report(
        4,
        ok,
        f"stationarity {mirror.details['stationarity_residual']:.2e} (tol 1e-8), "
        f"min of 1000 inner products {coh.details['min_inner_product']:.2e} "
        f"(floor -1e-10, {time.time() - t0:.1f}s)",
    )


def test_criterion_05_minimum_variance_oracles():
    t0 = time.time()
    res = check_mve_optimality(seed=0, n_pmfs=20, n_perturbations=100)
    d = res.details
    _report(
        5,
        res.passed,
        f"conditional mean beat the 0.01 grid on 20 pmfs (margin "
        f"{d['grid_margin']:.1e}), normal-equations gap "
        f"{d['normal_equations_err']:.1e} (tol 1e-8), 100 perturbations beaten "
        f"({time.time() - t0:.1f}s)",
    )


def test_criterion_06_linear_system_convergence():
    t0 = time.time()
    ds = synth_generate(n=320, n_vars=6, noise=0.0, seed=4)
    results = {}
    for strategy in ("best", "final"):
        cfg = TrainConfig(
            model="aopu", bs=4, seq=1, hidden=0, epochs=40,
            strategy=strategy, seed=0,
        )
        results[strategy] = train_run(ds, cfg)
    train, _, _ = prepare_windows(ds, cfg.seq)
    fit = linear_mve_fit(train.features, train.targets.T)
    weight_gap = float(
        np.max(np.abs(results["final"].selected_weights[:, 0] - fit.weights[0]))
    )
    ok = (
        results["best"].mse < 1e-6
        and results["final"].mse < 1e-6
        and weight_gap < 1e-4
    )
    _report(
        6,
        ok,
        f"noise-free linear: test MSE best={results['best'].mse:.1e}, "
        f"final={results['final'].mse:.1e} (tol 1e-6), weight gap to the "
        f"closed-form fit {weight_gap:.1e} (tol 1e-4, {time.time() - t0:.1f}s)",
    )


def test_criterion_07_rank_ratio_trends():
    t0 = time.time()
    ds = _load_real("sru")
    hidden = 2048 if ds is not None else 0
    source = "sru" if ds is not None else "synthetic AR fallback"
    if ds is None:
        ds = synth_generate(n=4000, n_vars=5, noise=0.3, seed=7)
    bs_grid = [64, 128, 288]
    seq_grid = [16, 24, 32, 40, 48]
    summaries = rr_survey(ds, bs_grid=bs_grid, seq_grid=seq_grid, hidden=hidden)
    by = {(s.bs, s.seq): s.mean for s in summaries}
    non_increasing_in_bs = all(
        by[(a, seq)] >= by[(b, seq)] - 1e-12
        for seq in seq_grid
        for a, b in zip(bs_grid, bs_grid[1:])
    )
    non_decreasing_in_seq = all(
        by[(bs, a)] <= by[(bs, b)] + 1e-12
        for bs in bs_grid
        for a, b in zip(seq_grid, seq_grid[1:])
    )
    strict_bs = any(
        by[(a, seq)] > by[(b, seq)]
        for seq in seq_grid
        for a, b in zip(bs_grid, bs_grid[1:])
    )
    strict_seq = any(
        by[(bs, a)] < by[(bs, b)]
        for bs in bs_grid
        for a, b in zip(seq_grid, seq_grid[1:])
    )
    ok = non_increasing_in_bs and non_decreasing_in_seq and strict_bs and strict_seq
    _report(
        7,
        ok,
        f"{source}: mean RR non-increasing in bs and non-decreasing in seq "
        f"with strict changes (e.g. seq16: "
        f"{by[(64, 16)]:.3f}/{by[(128, 16)]:.3f}/{by[(288, 16)]:.3f}; "
        f"bs288: {by[(288, 16)]:.3f}->{by[(288, 48)]:.3f}; "
        f"{time.time() - t0:.0f}s)",
    )


def test_criterion_08_published_metric_reproduction():
    deb = _load_real("debutanizer")
    sru = _load_real("sru")
    if deb is None or sru is None:
        _skip(
            8,
            "public dataset files not found; set AOPU_DATA_DIR to a directory "
            "with debutanizer.csv and sru.csv to run the published-number "
            "reproduction",
        )
    t0 = time.time()
    seeds = [0, 1, 2, 3, 4]
    cfg = TrainConfig(
        model="aopu", bs=64, seq=48, hidden=2048, epochs=40,
        strategy="final", seed=0,
    )
    rep_deb, rep_deb_best = sweep(deb, cfg, {"strategy": ["final", "best"]}, seeds)
    (rep_sru,) = sweep(sru, cfg, {}, seeds)
    strategy_drop = rep_deb_best.mean["r2"] - rep_deb.mean["r2"]
    ok = (
        rep_deb.mean["r2"] >= 0.55
        and rep_sru.mean["r2"] >= 0.75
        and rep_deb.std["r2"] <= 0.05
        and rep_sru.std["r2"] <= 0.05
        and strategy_drop <= 0.15
    )
    _report(
        8,
        ok,
        f"debutanizer R2 {rep_deb.cell('r2')} (floor 0.55), "
        f"sru R2 {rep_sru.cell('r2')} (floor 0.75), stds <= 0.05, "
        f"best-vs-final drop {strategy_drop:.3f} (cap 0.15, "
        f"{time.time() - t0:.0f}s)",
    )


def test_criterion_09_stability_dominance():
    t0 = time.time()
    sru = _load_real("sru")
    if sru is not None:
        ds, hidden, seeds, source = sru, 2048, [0, 1, 2, 3, 4], "sru"
    else:
        ds = synth_generate(n=2400, n_vars=5, noise=0.3, seed=33)
        hidden, seeds, source = 512, [0, 1, 2, 3, 4], "synthetic fallback"
    cfg = TrainConfig(
        bs=64, seq=48, hidden=hidden, epochs=40, strategy="final", seed=0,
    )
    stats = {}
    for rep in sweep(ds, cfg, {"model": ["aopu", "rvflnn"]}, seeds):
        fluct = float(np.mean([r.stability.fluctuation for r in rep.runs]))
        stats[rep.config.model] = (fluct, rep.std["r2"], rep.mean["r2"])
    ok = (
        stats["aopu"][0] < stats["rvflnn"][0]
        and stats["aopu"][1] < stats["rvflnn"][1]
    )
    _report(
        9,
        ok,
        f"{source}: fluctuation {stats['aopu'][0]:.4f} < "
        f"{stats['rvflnn'][0]:.4f} and seed-std(R2) {stats['aopu'][1]:.4f} < "
        f"{stats['rvflnn'][1]:.4f} (aopu R2 {stats['aopu'][2]:.3f}, rvflnn "
        f"{stats['rvflnn'][2]:.3f}; {time.time() - t0:.0f}s)",
    )


def test_criterion_10_ablation_directions():
    deb = _load_real("debutanizer")
    if deb is None:
        _skip(
            10,
            "ablation directions are defined on the debutanizer dataset; set "
            "AOPU_DATA_DIR with debutanizer.csv to run them",
        )
    t0 = time.time()
    seeds = [0, 1, 2, 3, 4]
    cfg = TrainConfig(
        model="aopu", bs=64, seq=48, hidden=2048, epochs=40,
        strategy="final", seed=0,
    )
    zero_mean_family = ["hardshrink", "tanhshrink", "softsign", "softshrink"]
    rows = [
        *sweep(deb, cfg, {"layer_norm": [False, True],
                          "activation": ["tanh", "relu"]}, seeds),
        *sweep(deb, cfg, {"activation": zero_mean_family}, seeds),
    ]
    r2 = {(r.config.activation, r.config.layer_norm): r.mean["r2"] for r in rows}
    tanh_plain = r2["tanh", False]
    relu_plain = r2["relu", False]
    tanh_norm = r2["tanh", True]
    relu_norm = r2["relu", True]
    zero_mean = {name: r2[name, False] for name in ["tanh", *zero_mean_family]}
    spread = max(zero_mean.values()) - min(zero_mean.values())
    ok = (
        tanh_plain > relu_plain
        and tanh_norm < tanh_plain
        and relu_norm < relu_plain
        and spread < 0.02
    )
    _report(
        10,
        ok,
        f"tanh {tanh_plain:.4f} > relu {relu_plain:.4f}; layer norm degrades "
        f"both ({tanh_norm:.4f}, {relu_norm:.4f}); zero-mean family spread "
        f"{spread:.4f} (cap 0.02, {time.time() - t0:.0f}s)",
    )


def test_criterion_11_low_rank_ratio_divergence():
    t0 = time.time()
    sru = _load_real("sru")
    if sru is not None:
        ds, hidden, source = sru, 2048, "sru"
    else:
        ds = synth_generate(n=4000, n_vars=5, noise=0.3, nonlinear=True, seed=7)
        hidden, source = 0, "synthetic fallback"
    cfg = TrainConfig(
        model="aopu", bs=288, seq=16, hidden=hidden, epochs=40,
        strategy="final", seed=0,
    )
    rep = train_run(ds, cfg)
    # no convergence: either an explicit divergence error was recorded, or
    # the best validation MSE never reached half the zero-predictor baseline
    improvement_ok = rep.val_mse_best >= 0.5 * rep.val_mse_zero
    no_convergence = rep.diverged or improvement_ok
    attributed = rep.low_rr_warning or (
        rep.diverged and rep.divergence_rr is not None and rep.divergence_rr < 0.5
    )
    rr_band = 0.2 <= rep.mean_train_rr <= 0.45 if not rep.diverged else True
    ok = no_convergence and attributed and rr_band
    outcome = (
        f"divergence error at RR {rep.divergence_rr:.3f}"
        if rep.diverged
        else f"best val MSE {rep.val_mse_best:.3f} never reached half the "
        f"zero-predictor baseline {rep.val_mse_zero:.3f}"
    )
    _report(
        11,
        ok,
        f"{source}: bs 288 / seq 16 gives mean RR {rep.mean_train_rr:.3f}; "
        f"{outcome}; report flags low RR ({time.time() - t0:.0f}s)",
    )
