"""Tests for the numerical verification checks themselves."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from aopu.cli import main
from aopu.errors import InvalidInputError
from aopu.model import dual, forward, loss_value, reconstruct, truncated_gradient
from aopu.verify import (
    check_coherence,
    check_fim_convergence,
    check_gradient_oracles,
    check_mirror_map,
    check_mve_optimality,
    check_natural_gradient_identity,
    finite_diff_gradient,
    natural_gradient_reference,
    run_default_suite,
)


class TestFiniteDiffGradient:
    def test_quadratic(self):
        fd = finite_diff_gradient(lambda p: float(np.sum(p**2)), np.array([[1.0], [2.0]]))
        np.testing.assert_allclose(fd, [[2.0], [4.0]], atol=1e-6)

    def test_linear_recovers_coefficients(self):
        c = np.array([[0.3], [-1.2], [2.5]])
        fd = finite_diff_gradient(
            lambda p: float(np.sum(c * p)), np.zeros((3, 1))
        )
        np.testing.assert_allclose(fd, c, atol=1e-9)

    def test_matches_truncated_gradient(self):
        rng = np.random.default_rng(0)
        xt = rng.standard_normal((4, 3))
        w = rng.standard_normal((4, 1))
        y = rng.standard_normal((3, 1))
        d = dual(xt, w)
        fd = finite_diff_gradient(lambda m: loss_value(y, reconstruct(xt, m)), d)
        np.testing.assert_allclose(
            fd, truncated_gradient(xt, y, d), rtol=1e-6, atol=1e-8
        )


class TestNaturalGradientReference:
    def test_full_rank_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            b = int(rng.integers(1, 6))
            dh = int(rng.integers(b + 1, b + 6))
            xt = rng.standard_normal((dh, b))
            w = rng.standard_normal((dh, 1))
            y = rng.standard_normal((b, 1))
            tg = truncated_gradient(xt, y, dual(xt, w))
            ng = natural_gradient_reference(xt, y, w)
            rel = np.linalg.norm(tg - ng) / max(np.linalg.norm(ng), 1e-12)
            assert rel < 1e-8

    def test_zero_at_fit(self):
        rng = np.random.default_rng(10)
        xt = rng.standard_normal((4, 2))
        w = rng.standard_normal((4, 1))
        g = natural_gradient_reference(xt, forward(xt, w), w)
        assert np.max(np.abs(g)) < 1e-12

    def test_rank_deficient_agreement_via_commutation(self):
        rng = np.random.default_rng(11)
        deviations = []
        for _ in range(10):
            xt = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))
            w = rng.standard_normal((6, 1))
            y = rng.standard_normal((5, 1))
            tg = truncated_gradient(xt, y, dual(xt, w))
            ng = natural_gradient_reference(xt, y, w)
            deviations.append(
                np.linalg.norm(tg - ng) / max(np.linalg.norm(ng), 1e-12)
            )
        assert all(np.isfinite(deviations))
        assert max(deviations) < 1e-8  # clean rank deficiency stays benign

    def test_zero_column_batch_rejected(self):
        # the plain gradient's 2/b scaling needs a sample
        with pytest.raises(InvalidInputError, match="no columns"):
            natural_gradient_reference(np.zeros((5, 0)), np.zeros((0, 1)), np.zeros((5, 1)))


class TestGradientOracleChecks:
    def test_suite_passes(self):
        res = check_gradient_oracles(n_instances=40, seed=1)
        assert res.passed
        assert res.error < 1e-5

    def test_natural_gradient_identity_passes(self):
        res = check_natural_gradient_identity(n_instances=60, seed=2)
        assert res.passed
        assert res.details["commutation_max_rel_dev"] < 1e-8
        assert np.isfinite(res.details["deficient_rel_dev_max"])


class TestFisherInformation:
    def test_random_features_and_shrinkage(self):
        rng = np.random.default_rng(5)
        res = check_fim_convergence(rng.standard_normal((4, 3)), n_samples=100_000, seed=5)
        assert res.passed
        assert res.details["error_at_2n"] < res.details["error_at_n"] < 0.05

    def test_dimension_guard(self):
        for shape in ((5, 2), (4, 4)):
            with pytest.raises(InvalidInputError, match="<=4 feature rows"):
                check_fim_convergence(np.ones(shape))

    def test_sample_count_must_be_positive(self):
        with pytest.raises(InvalidInputError, match="n_samples"):
            check_fim_convergence(np.ones((2, 2)), n_samples=0)


class TestMirrorMap:
    def test_identity_features_fixed_point(self):
        w = np.array([[0.7], [-1.1], [0.4]])
        res = check_mirror_map(np.eye(3), w, seed=6)
        assert res.passed
        assert res.details["stationarity_residual"] < 1e-12

    def test_scaled_identity_dual_is_scaled(self):
        w = np.array([[1.0], [2.0]])
        xt = 2.0 * np.eye(2)
        np.testing.assert_allclose(dual(xt, w), 4.0 * w, atol=0)
        res = check_mirror_map(xt, w, seed=7)
        assert res.passed

    def test_random_full_row_rank(self):
        rng = np.random.default_rng(8)
        res = check_mirror_map(
            rng.standard_normal((4, 12)), rng.standard_normal((4, 1)), seed=8
        )
        assert res.passed
        assert res.details["min_perturbation_margin"] > 0

    def test_row_rank_deficient_rejected(self):
        rng = np.random.default_rng(9)
        with pytest.raises(InvalidInputError):
            check_mirror_map(
                rng.standard_normal((5, 3)), rng.standard_normal((5, 1))
            )


class TestCoherence:
    @pytest.fixture()
    def instance(self):
        rng = np.random.default_rng(10)
        xt = rng.standard_normal((6, 4))
        w = rng.standard_normal((6, 1))
        return xt, dual(xt, w)

    def test_exact_targets_are_coherent(self, instance):
        res = check_coherence(*instance, n_samples=500, seed=11)
        assert res.passed
        assert res.details["min_inner_product"] >= -1e-10

    def test_gradient_vanishes_at_ground_truth(self, instance):
        xt, d_star = instance
        g = truncated_gradient(xt, reconstruct(xt, d_star), d_star)
        inner = float(np.sum(g * (d_star - d_star)))
        assert inner == 0.0
        assert np.max(np.abs(g)) < 1e-10

    def test_null_direction_equality_case(self, instance):
        res = check_coherence(*instance, n_samples=50, seed=12)
        assert res.details["null_direction_inner"] is not None
        assert abs(res.details["null_direction_inner"]) <= 1e-8
        assert res.details["null_direction_loss_change"] <= 1e-8

    def test_noisy_targets_coherent_in_expectation(self, instance):
        res = check_coherence(*instance, noise=0.2, seed=13, noise_samples=4000)
        assert res.passed
        assert res.name == "coherence_inner_products_noisy"

    @pytest.mark.parametrize("noise", [-0.1, float("nan"), float("inf")])
    def test_noise_must_be_finite_and_non_negative(self, instance, noise):
        with pytest.raises(InvalidInputError, match="noise"):
            check_coherence(*instance, noise=noise)

    @pytest.mark.parametrize("noise", [0.0, 0.2])
    def test_sample_counts_must_be_positive(self, instance, noise):
        for counts in ({"n_samples": 0}, {"noise_samples": 0}):
            with pytest.raises(InvalidInputError, match=next(iter(counts))):
                check_coherence(*instance, noise=noise, **counts)

    @pytest.mark.parametrize("noise", [0.0, 0.2])
    def test_error_of_a_coherent_instance_is_positive_zero(self, instance, noise):
        # the inner products (or their mean) are positive here, so the
        # error is +0.0, never -0.0
        res = check_coherence(*instance, noise=noise, n_samples=20,
                              noise_samples=200, seed=14)
        assert res.passed
        assert min(res.details.get("min_inner_product", 1.0),
                   res.details.get("mean_inner", 1.0)) > 0.0
        assert res.error == 0.0 and not np.signbit(res.error)


class TestMveOptimality:
    def test_full_check_passes(self):
        res = check_mve_optimality(seed=14, n_pmfs=10, n_perturbations=50)
        assert res.passed
        assert res.details["grid_margin"] <= 1e-12
        assert res.details["cross_term_max"] <= 1e-12
        assert res.details["normal_equations_err"] <= 1e-8
        assert res.details["perturbation_margin"] > 0

    def test_deterministic_pmf_every_matching_estimator_ties_at_zero(self):
        # when y is a function of x the conditional mean reaches zero error
        from aopu.baselines import conditional_mean_mve

        pmf = np.array([[0.25, 0.0], [0.0, 0.75]])
        xs = [0.0, 1.0]
        ys = [0.5, 0.75]
        est = np.array([conditional_mean_mve(pmf, xs, ys, x) for x in xs])
        np.testing.assert_allclose(est, [0.5, 0.75], atol=0)
        ese = float(
            np.sum(pmf * (np.array(ys)[None, :] - est[:, None]) ** 2)
        )
        assert ese == 0.0


class TestDefaultSuite:
    def test_everything_passes_and_serializes(self, tmp_path):
        results = run_default_suite(seed=0, fim_samples=20_000)
        assert len(results) == 7
        for res in results:
            assert res.passed, res.name
        argv = ["verify", "--fim-samples", "20000", "--out-dir", str(tmp_path)]
        assert main(argv) == 0

        def reject(token):
            raise ValueError(f"{token} is not strict JSON")

        doc = json.loads((tmp_path / "verify.json").read_text(), parse_constant=reject)
        assert set(doc) == {"results", "wall_time_s"}
        # every value the checks return is finite, so the file holds them as is
        assert doc["results"] == [asdict(res) for res in results]

    @pytest.mark.parametrize("kw, message", [
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"fim_samples": 0}, "fim_samples must be >= 1, got 0"),
        ({"fim_samples": -3}, "fim_samples must be >= 1, got -3"),
    ], ids=["negative-seed", "float-seed", "zero-fim-samples", "negative-fim-samples"])
    def test_bad_arguments_rejected_before_any_check(self, monkeypatch, kw, message):
        # fim_samples 0 once ran the Fisher check on no samples and reported nan
        calls = []
        monkeypatch.setattr(
            "aopu.verify.check_gradient_oracles", lambda **k: calls.append(k)
        )
        with pytest.raises(InvalidInputError, match=message):
            run_default_suite(**kw)
        assert calls == []
