"""Tests for the Adam-trained twin network and the closed-form estimators."""

import warnings

import numpy as np
import pytest

from aopu import linalg
from aopu.augment import AugmentConfig, Augmenter
from aopu.baselines import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    RvflnnModel,
    conditional_mean_mve,
    linear_mve_fit,
    mse_gradient,
)
from aopu.errors import (
    DivergenceError,
    InvalidInputError,
    UndefinedConditionalError,
)
from aopu.model import AopuModel, forward, loss_value
from aopu.verify import finite_diff_gradient

XT1 = np.array([[1.0], [2.0]])
W1 = np.array([[3.0], [4.0]])
Y1 = np.array([[13.0]])


class TestMseGradient:
    def test_scalar_instance(self):
        np.testing.assert_allclose(
            mse_gradient(XT1, Y1, W1), [[-4.0], [-8.0]], atol=1e-12
        )

    def test_zero_at_fit(self):
        rng = np.random.default_rng(0)
        xt = rng.standard_normal((4, 3))
        w = rng.standard_normal((4, 1))
        g = mse_gradient(xt, forward(xt, w), w)
        assert np.max(np.abs(g)) < 1e-12

    def test_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            b = int(rng.integers(1, 7))
            dh = int(rng.integers(2, 9))
            xt = rng.standard_normal((dh, b))
            w = rng.standard_normal((dh, 1))
            y = rng.standard_normal((b, 1))
            fd = finite_diff_gradient(
                lambda m: float(np.sum((y - xt.T @ m) ** 2) / b), w, eps=1e-6
            )
            got = mse_gradient(xt, y, w)
            rel = np.linalg.norm(got - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-5


def _textbook_adam(w, m, v, t, g, lr):
    """Bias-corrected Adam (Kingma & Ba, 2015, Algorithm 1), written out."""
    t += 1
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
    # the squared gradient is associated as (1 - beta2) * g * g, as the step
    # forms it, so the two agree bit for bit
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    return w - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), m, v, t


class TestAdam:
    """The Adam behaviours of ``RvflnnModel.step``. With unit features
    ``x_tilde = I`` and zero weights, the gradient is ``-(2/b) y``."""

    def _model(self, dh=3, lr=0.005):
        aug = Augmenter(AugmentConfig(input_dim=dh, hidden=0, seed=0))
        return RvflnnModel(aug, lr=lr)

    def test_zero_gradient_fresh_state_no_move(self):
        model = self._model()
        before = model.w_tilde.copy()
        model.step(np.eye(3), np.zeros((3, 1)))
        np.testing.assert_array_equal(model.w_tilde, before)

    def test_first_step_magnitude_is_learning_rate(self):
        # after bias correction a first gradient moves each coordinate by
        # almost exactly lr: m_hat = g, v_hat = g^2, update = lr * g / |g|
        model = self._model(lr=0.005)
        y = np.array([[2.0], [-0.5], [0.01]])
        model.step(np.eye(3), y)
        np.testing.assert_allclose(
            np.abs(model.w_tilde), 0.005 * np.ones((3, 1)), rtol=1e-5
        )
        # the gradient is -(2/3) y, so each weight moves towards its target
        np.testing.assert_allclose(np.sign(model.w_tilde), np.sign(y), atol=0)

    def test_deterministic_trajectories(self):
        rng = np.random.default_rng(2)
        batches = [
            (rng.standard_normal((3, 4)), rng.standard_normal((4, 1)))
            for _ in range(20)
        ]

        def run():
            model = self._model()
            for xt, y in batches:
                model.step(xt, y)
            return model.w_tilde

        np.testing.assert_array_equal(run(), run())

    def test_step_counter_monotone(self):
        model = self._model()
        for expected in (1, 2, 3):
            model.step(np.eye(3), np.ones((3, 1)))
            assert model.adam_t == expected

    def test_rejected_update_leaves_state(self):
        # a finite loss and gradient whose update overflows: the first moment
        # leaves the float range once it is bias-corrected
        model = self._model(dh=2)
        model.adam_m = np.full((2, 1), 1.7e308)
        state = [model.adam_t, model.adam_m.copy(), model.adam_v.copy(), model.w_tilde.copy()]
        # the overflow must surface as the typed error, never as a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError) as err:
                model.step(1e200 * np.eye(2), np.ones((2, 1)))
        assert err.value.rank_ratio == 1.0
        assert model.adam_t == state[0]
        for name, before in zip(("adam_m", "adam_v", "w_tilde"), state[1:]):
            np.testing.assert_array_equal(getattr(model, name), before)

    def test_divergent_batch_surfaces_rank_ratio(self):
        model = self._model(dh=2)
        with pytest.raises(DivergenceError) as err:
            model.step(XT1, np.array([[1e200]]))
        assert err.value.rank_ratio == 1.0


class TestRvflnnStep:
    @pytest.mark.parametrize("warm_steps", [0, 2])
    def test_matches_textbook_adam_on_the_mse_gradient(self, warm_steps):
        # the step must equal textbook Adam on mse_gradient bit for bit, on
        # a fresh model and on one with non-zero Adam moments
        rng = np.random.default_rng(21)
        aug = Augmenter(AugmentConfig(input_dim=4, hidden=6, seed=3))
        model = RvflnnModel(aug)
        w = m = v = np.zeros((aug.output_dim, 1))
        t = 0
        for _ in range(warm_steps + 1):
            xt = aug.augment(rng.standard_normal((4, 7)))
            y = rng.standard_normal((7, 1))
            grad = mse_gradient(xt, y, w)
            loss = loss_value(y, forward(xt, w))
            w, m, v, t = _textbook_adam(w, m, v, t, grad, model.lr)
            report = model.step(xt, y)
        assert model.adam_t == t == warm_steps + 1
        for name, want in (("w_tilde", w), ("adam_m", m), ("adam_v", v)):
            assert getattr(model, name).tobytes() == want.tobytes(), name
        assert report.loss == loss
        assert report.rank == linalg.rank(xt)
        assert report.rank_ratio == report.rank / 7
        assert report.grad_norm == float(np.linalg.norm(grad))

    def test_shape_mismatch_rejected(self):
        model = RvflnnModel(Augmenter(AugmentConfig(input_dim=2, hidden=0)))
        with pytest.raises(InvalidInputError):
            model.step(np.ones((3, 4)), np.ones((4, 1)))
        with pytest.raises(InvalidInputError):
            model.step(np.ones((2, 4)), np.ones((3, 1)))


class TestStructuralEquality:
    def test_same_forward_before_training(self):
        # identical augmenter and zero init: both models coincide pre-training
        aug = Augmenter(AugmentConfig(input_dim=3, hidden=5, seed=7))
        a = AopuModel(aug)
        r = RvflnnModel(aug)
        x = np.random.default_rng(3).standard_normal((3, 6))
        xt = aug.augment(x)
        np.testing.assert_array_equal(a.forward(xt), r.forward(xt))


class TestLinearMve:
    def test_exact_relation_without_offset(self):
        x = np.array([[-1.0, 1.0, -1.0, 1.0]])
        y = 2.0 * x
        fit = linear_mve_fit(x, y)
        np.testing.assert_allclose(fit.weights, [[2.0]], atol=1e-12)
        np.testing.assert_allclose(fit.offset, [0.0], atol=1e-12)

    def test_exact_relation_with_offset(self):
        x = np.array([[-1.0, 0.0, 1.0, 2.0]])
        y = 2.0 * x + 3.0
        fit = linear_mve_fit(x, y)
        np.testing.assert_allclose(fit.weights, [[2.0]], atol=1e-12)
        np.testing.assert_allclose(fit.offset, [3.0], atol=1e-12)
        np.testing.assert_allclose(fit.predict(x), y, atol=1e-12)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 200))
        y = np.array([[1.5, -2.0, 0.3]]) @ x + 0.7 + 0.1 * rng.standard_normal((1, 200))
        fit = linear_mve_fit(x, y)
        design = np.vstack([x, np.ones((1, 200))])
        theta, *_ = np.linalg.lstsq(design.T, y.T, rcond=None)
        np.testing.assert_allclose(fit.weights[0], theta[:3, 0], atol=1e-8)
        np.testing.assert_allclose(fit.offset[0], theta[3, 0], atol=1e-8)

    def test_residuals_unbiased_on_fit_sample(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 80))
        y = rng.standard_normal((1, 80))
        fit = linear_mve_fit(x, y)
        assert abs(float((y - fit.predict(x)).mean())) < 1e-8

    def test_beats_norm_point_one_perturbations(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 150))
        y = np.array([[0.5, 1.0, -0.7]]) @ x + 0.3 * rng.standard_normal((1, 150))
        fit = linear_mve_fit(x, y)
        base = float(np.mean((y - fit.predict(x)) ** 2))
        x_mean = x.mean(axis=1, keepdims=True)
        y_mean = y.mean(axis=1, keepdims=True)
        for _ in range(100):
            delta = rng.standard_normal((1, 3))
            delta *= 0.1 / np.linalg.norm(delta)
            w_p = fit.weights + delta
            b_p = y_mean - w_p @ x_mean
            mse_p = float(np.mean((y - (w_p @ x + b_p)) ** 2))
            assert mse_p >= base

    def test_centered_data_reduces_to_inner_product_form(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 120))
        x = x - x.mean(axis=1, keepdims=True)
        y = np.array([[1.0, -1.0, 2.0]]) @ x
        y = y - y.mean(axis=1, keepdims=True)
        fit = linear_mve_fit(x, y)
        np.testing.assert_allclose(fit.offset, [0.0], atol=1e-8)
        from aopu.linalg import pinv

        inner_form = (y @ x.T) @ pinv(x @ x.T)
        np.testing.assert_allclose(fit.weights, inner_form, atol=1e-8)

    def test_too_few_samples(self):
        with pytest.raises(InvalidInputError):
            linear_mve_fit(np.ones((2, 1)), np.ones((1, 1)))


class TestConditionalMeanMve:
    def test_uniform_two_point_conditional(self):
        pmf = np.array([[0.25, 0.25], [0.25, 0.25]])
        got = conditional_mean_mve(pmf, [0.0, 1.0], [0.0, 2.0], 0.0)
        assert got == 1.0

    def test_deterministic_pmf_returns_g(self):
        # y = g(x) with g(0)=0.3, g(1)=0.9
        pmf = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert conditional_mean_mve(pmf, [0.0, 1.0], [0.3, 0.9], 1.0) == 0.9

    def test_zero_probability_query(self):
        pmf = np.array([[0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(UndefinedConditionalError):
            conditional_mean_mve(pmf, [0.0, 1.0], [0.0, 1.0], 1.0)

    def test_off_grid_query(self):
        pmf = np.array([[0.5, 0.5]])
        with pytest.raises(InvalidInputError):
            conditional_mean_mve(pmf, [0.0], [0.0, 1.0], 0.7)

    def test_unnormalized_pmf_rejected(self):
        with pytest.raises(InvalidInputError):
            conditional_mean_mve(np.ones((2, 2)), [0, 1], [0, 1], 0)

    def test_minimizes_expected_squared_error_on_grid(self):
        rng = np.random.default_rng(8)
        pmf = rng.random((3, 4))
        pmf /= pmf.sum()
        xs = np.arange(3.0)
        ys = np.sort(rng.uniform(0, 1, 4))
        cond = np.array([conditional_mean_mve(pmf, xs, ys, x) for x in xs])

        def ese(est):
            return float(np.sum(pmf * (ys[None, :] - est[:, None]) ** 2))

        base = ese(cond)
        grid = np.arange(-0.05, 1.05, 0.01)
        for _ in range(200):
            candidate = rng.choice(grid, size=3)
            assert ese(candidate) >= base - 1e-12
