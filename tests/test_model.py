"""Unit tests for the projection unit: forward, dual, reconstruction,
truncated gradient and update step."""

import functools
import math

import numpy as np
import pytest

from aopu import linalg
from aopu.augment import AugmentConfig, Augmenter
from aopu.baselines import RvflnnModel, mse_gradient
from aopu.data import batches, prepare_windows, synth_generate
from aopu.errors import DivergenceError, InvalidInputError
from aopu.model import (
    AopuModel,
    dual,
    forward,
    loss_value,
    reconstruct,
    truncated_gradient,
)
from aopu.verify import (
    finite_diff_gradient,
    reconstruct_reference,
    truncated_gradient_reference,
)

# the worked scalar instance used across the update-path tests:
# one sample with features (1, 2), weights (3, 4), target 13
XT1 = np.array([[1.0], [2.0]])
W1 = np.array([[3.0], [4.0]])
Y1 = np.array([[13.0]])


def _naive_matmul(a, b):
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


class TestForward:
    def test_inner_product(self):
        np.testing.assert_allclose(forward(XT1, W1), [[11.0]], atol=0)

    def test_zero_weights(self):
        assert np.all(forward(XT1, np.zeros((2, 1))) == 0.0)

    def test_matches_naive_matmul(self):
        rng = np.random.default_rng(0)
        xt = rng.standard_normal((6, 3))
        w = rng.standard_normal((6, 2))
        np.testing.assert_allclose(
            forward(xt, w), _naive_matmul(xt.T, w), atol=1e-12
        )

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            forward(np.ones((3, 2)), np.ones((2, 1)))


class TestDual:
    def test_scalar_instance(self):
        np.testing.assert_allclose(dual(XT1, W1), [[11.0], [22.0]], atol=0)

    def test_zero_weights(self):
        assert np.all(dual(XT1, np.zeros((2, 1))) == 0.0)

    def test_matches_explicit_gram_product(self):
        rng = np.random.default_rng(1)
        xt = rng.standard_normal((5, 4))
        w = rng.standard_normal((5, 1))
        explicit = (xt @ xt.T) @ w
        got = dual(xt, w)
        assert np.linalg.norm(got - explicit) / np.linalg.norm(explicit) < 1e-12


class TestReconstruct:
    def test_single_sample_full_rank(self):
        d = np.array([[11.0], [22.0]])
        np.testing.assert_allclose(reconstruct(XT1, d), [[11.0]], atol=1e-12)

    def test_zero_dual(self):
        assert np.all(reconstruct(XT1, np.zeros((2, 1))) == 0.0)

    def test_full_rank_recovers_forward(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            xt = rng.standard_normal((7, 4))  # column-full-rank a.s.
            w = rng.standard_normal((7, 1))
            gap = np.max(np.abs(reconstruct(xt, dual(xt, w)) - forward(xt, w)))
            assert gap <= 1e-8

    def test_duplicate_columns_difference_recorded(self):
        # exact duplicates: rank ratio < 1; the clean zero singular values are
        # cut off, so the reconstruction stays near the forward output but is
        # no longer reproduced through an invertible Gram
        rng = np.random.default_rng(4)
        xt = rng.standard_normal((6, 4))
        xt[:, 3] = xt[:, 2]
        w = rng.standard_normal((6, 1))
        assert linalg.rank_ratio(xt) < 1.0
        gap = np.max(np.abs(reconstruct(xt, dual(xt, w)) - forward(xt, w)))
        assert np.isfinite(gap)
        assert gap < 1e-6

    def test_near_singular_batch_amplifies_roundoff(self):
        # a nearly-dependent column leaves a tiny retained singular value:
        # the reciprocal blows round-off far beyond the full-rank error level
        rng = np.random.default_rng(5)
        xt = rng.standard_normal((6, 4))
        xt[:, 3] = xt[:, 2] + 1e-6 * rng.standard_normal(6)
        w = rng.standard_normal((6, 1))
        gap = np.max(np.abs(reconstruct(xt, dual(xt, w)) - forward(xt, w)))
        assert np.isfinite(gap)
        assert gap > 1e-9


class TestLoss:
    def test_perfect_reconstruction(self):
        y = np.arange(4.0).reshape(4, 1)
        assert loss_value(y, y.copy()) == 0.0

    def test_scalar_instance(self):
        assert loss_value(np.array([[13.0]]), np.array([[11.0]])) == 4.0

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal((5, 1))
        r = rng.standard_normal((5, 1))
        acc = sum((y[i, 0] - r[i, 0]) ** 2 for i in range(5)) / 5
        np.testing.assert_allclose(loss_value(y, r), acc, atol=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            loss_value(np.ones((3, 1)), np.ones((2, 1)))


class TestTruncatedGradient:
    def test_scalar_instance_frozen_value(self):
        d = dual(XT1, W1)
        got = truncated_gradient(XT1, Y1, d)
        np.testing.assert_allclose(got, [[-0.8], [-1.6]], atol=1e-12)

    def test_scalar_instance_finite_differences(self):
        d = dual(XT1, W1)
        fd = finite_diff_gradient(
            lambda m: loss_value(Y1, reconstruct(XT1, m)), d, eps=1e-6
        )
        np.testing.assert_allclose(
            truncated_gradient(XT1, Y1, d), fd, rtol=1e-6, atol=1e-8
        )

    def test_zero_at_optimum(self):
        rng = np.random.default_rng(7)
        xt = rng.standard_normal((5, 3))
        w = rng.standard_normal((5, 1))
        d = dual(xt, w)
        y = reconstruct(xt, d)
        g = truncated_gradient(xt, y, d)
        assert np.max(np.abs(g)) < 1e-12

    def test_scalar_instance_matches_preconditioned_plain_gradient(self):
        plain = mse_gradient(XT1, Y1, W1)
        np.testing.assert_allclose(plain, [[-4.0], [-8.0]], atol=1e-12)
        ng = linalg.pinv(np.array([[1.0, 2.0], [2.0, 4.0]])) @ plain
        np.testing.assert_allclose(
            truncated_gradient(XT1, Y1, dual(XT1, W1)), ng, atol=1e-12
        )

    def test_finite_differences_across_shapes(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            b = int(rng.integers(1, 7))
            dh = int(rng.integers(2, 9))
            xt = rng.standard_normal((dh, b))
            w = rng.standard_normal((dh, 1))
            y = rng.standard_normal((b, 1))
            d = dual(xt, w)
            got = truncated_gradient(xt, y, d)
            fd = finite_diff_gradient(
                lambda m: loss_value(y, reconstruct(xt, m)), d, eps=1e-6
            )
            rel = np.linalg.norm(got - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-5


class TestStep:
    def _model(self, dh, lr=1.0):
        aug = Augmenter(AugmentConfig(input_dim=dh, hidden=0, seed=0))
        return AopuModel(aug, lr=lr)

    def test_scalar_instance_update(self):
        model = self._model(2)
        model.w_tilde = W1.copy()
        report = model.step(XT1, Y1)
        np.testing.assert_allclose(model.w_tilde, [[3.8], [5.6]], atol=1e-12)
        assert report.loss == 4.0
        assert report.rank_ratio == 1.0

    def test_zero_gradient_leaves_weights(self):
        rng = np.random.default_rng(12)
        xt = rng.standard_normal((4, 2))
        model = self._model(4)
        model.w_tilde = rng.standard_normal((4, 1))
        y = reconstruct(xt, dual(xt, model.w_tilde))
        before = model.w_tilde.copy()
        model.step(xt, y)
        np.testing.assert_allclose(model.w_tilde, before, atol=1e-12)

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5), (300, 64), (80, 288)])
    def test_update_is_lr_times_dual_gradient(self, shape):
        # the step reads forward's x.T @ w where the dual gradient recovers
        # it from dual(x, w), so the two agree within the forward-error scale
        # min(rows, cols) * eps * cond(gram) of the certified route
        rng = np.random.default_rng(13)
        xt = rng.standard_normal(shape)
        y = rng.standard_normal((shape[1], 1))
        model = self._model(shape[0], lr=0.5)
        model.w_tilde = rng.standard_normal((shape[0], 1))
        w_before = model.w_tilde.copy()
        expected = w_before - model.lr * truncated_gradient(
            xt, y, dual(xt, w_before)
        )
        report = model.step(xt, y)
        gram = linalg._certified_gram(xt)[0]
        bound = min(shape) * linalg.EPS * np.linalg.cond(gram)
        err = linalg.frobenius_norm(model.w_tilde - expected)
        assert err <= bound * linalg.frobenius_norm(expected)
        assert report.loss == loss_value(y, forward(xt, w_before))

    @pytest.mark.parametrize("lr", [0.25, 1.0, 4.0, 7.5])
    def test_step_scales_the_batch_residual(self, lr):
        # on a batch of full column rank (b < d+h) the step is the affine
        # projection w + mu x pinv(x.T x) (y - x.T w), mu = 2 lr / b, so it
        # leaves the batch's own residual at (1 - mu) times its value
        rng = np.random.default_rng(17)
        xt = rng.standard_normal((40, 8))
        y = rng.standard_normal((8, 1))
        model = self._model(40, lr=lr)
        model.w_tilde = rng.standard_normal((40, 1))
        before = y - forward(xt, model.w_tilde)
        assert linalg._certified_gram(xt)[0] is not None
        model.step(xt, y)
        after = y - forward(xt, model.w_tilde)
        mu = 2.0 * lr / 8
        err = linalg.frobenius_norm(after - (1.0 - mu) * before)
        assert err <= 1e-14 * linalg.frobenius_norm(before)

    def test_noise_free_linear_descent(self):
        rng = np.random.default_rng(14)
        d, n, bs = 6, 48, 4
        x = rng.standard_normal((d, n))
        w_true = rng.standard_normal((d, 1))
        y = x.T @ w_true
        model = self._model(d)
        losses = []
        for epoch in range(40):
            for i in range(0, n, bs):
                xt = x[:, i : i + bs]
                yb = y[i : i + bs]
                losses.append(model.step(xt, yb).loss)
        assert losses[-1] < 1e-10
        # strictly decreasing epoch-start losses until the floor
        starts = losses[:: n // bs]
        for a, b in zip(starts, starts[1:]):
            assert b < a or b < 1e-10

    def test_divergence_aborts_before_update(self):
        model = self._model(2)
        model.w_tilde = W1.copy()
        huge = np.array([[1e200]])  # squared residual overflows
        before = model.w_tilde.copy()
        with pytest.raises(DivergenceError) as err:
            model.step(XT1, huge)
        assert err.value.rank_ratio == 1.0
        np.testing.assert_array_equal(model.w_tilde, before)

    def test_overflowing_gram_still_steps(self):
        # every Gram eigenvalue ||x v_i||^2 overflows, but the update is
        # representable: the step applies the unit-scale update over the scale
        x = np.random.default_rng(0).standard_normal((40, 8))
        y, d = np.ones((8, 1)), np.zeros((40, 1))
        unit = self._model(40)
        unit.step(x, y)
        model = self._model(40)
        report = model.step(x * 1e160, y)
        assert report.rank_ratio == 1.0 and report.rank == 8
        for got, want in (
            (model.w_tilde, unit.w_tilde / 1e160),
            (truncated_gradient(x * 1e160, y, d), truncated_gradient(x, y, d) / 1e160),
        ):
            err = linalg.frobenius_norm(got - want)
            assert err <= 1e-13 * linalg.frobenius_norm(want)

    def test_overflowing_weights_are_refused(self):
        # the gradient is finite but lr * grad is not: no inf weight is stored
        xt = np.random.default_rng(0).standard_normal((40, 8)) * 1e-10
        model = self._model(40, lr=1e300)
        with pytest.raises(DivergenceError) as err:
            model.step(xt, np.ones((8, 1)))
        assert err.value.rank_ratio == 1.0
        np.testing.assert_array_equal(model.w_tilde, np.zeros((40, 1)))

    def test_grad_norm_of_huge_finite_gradient(self):
        # the gradient's entries pass 1e154, so their squares overflow
        xt = np.random.default_rng(0).standard_normal((40, 8)) * 1e-158
        model = self._model(40)
        report = model.step(xt, np.ones((8, 1)))
        grad = -model.w_tilde  # zero start, lr 1
        assert np.abs(grad).max() > 1e154
        want = math.hypot(*grad.ravel())
        assert abs(report.grad_norm - want) <= 1e-15 * want

    def test_grad_norm_on_normal_batch(self):
        rng = np.random.default_rng(16)
        xt = rng.standard_normal((40, 8))
        model = self._model(40)
        report = model.step(xt, rng.standard_normal((8, 1)))
        want = np.linalg.norm(model.w_tilde)
        assert abs(report.grad_norm - want) <= 1e-15 * want

    def test_trajectory_determinism(self):
        rng = np.random.default_rng(15)
        xs = [rng.standard_normal((4, 3)) for _ in range(10)]
        ys = [rng.standard_normal((3, 1)) for _ in range(10)]

        def run():
            model = self._model(4)
            for xt, y in zip(xs, ys):
                model.step(xt, y)
            return model.w_tilde

        np.testing.assert_array_equal(run(), run())



def _aug5():
    return Augmenter(AugmentConfig(input_dim=5, hidden=0))


def _step(cls, x=None, y=None, w=None):
    """One step of a fresh ``cls`` on a (5, 3) batch, with any of the batch,
    the targets or the weights replaced."""
    model = cls(_aug5())
    if w is not None:
        model.w_tilde = w
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 3)) if x is None else x
    return model.step(x, np.zeros((3, 1)) if y is None else y)


_NAN_W = np.full((5, 1), np.nan)

# (id, entry point on a read-out class, error type, message pattern)
READOUT_ERRORS = [
    ("lr-zero", lambda cls: cls(_aug5(), lr=0.0), InvalidInputError, "learning rate"),
    ("lr-nan", lambda cls: cls(_aug5(), lr=np.nan), InvalidInputError, "learning rate"),
    ("lr-inf", lambda cls: cls(_aug5(), lr=np.inf), InvalidInputError, "learning rate"),
    ("lr-negative", lambda cls: cls(_aug5(), lr=-1.0), InvalidInputError, "learning rate"),
    ("lr-bool", lambda cls: cls(_aug5(), lr=True), InvalidInputError,
     "learning rate must be a real number, got True"),
    ("lr-str", lambda cls: cls(_aug5(), lr="1"), InvalidInputError,
     "learning rate must be a real number, got '1'"),
    ("x-1d", lambda cls: _step(cls, x=np.ones(5)), InvalidInputError, "2-D"),
    ("x-nan", lambda cls: _step(cls, x=np.full((5, 3), np.nan)), InvalidInputError,
     "non-finite"),
    ("x-rows", lambda cls: _step(cls, x=np.ones((4, 3))), InvalidInputError, "rows"),
    ("x-no-columns", lambda cls: _step(cls, x=np.ones((5, 0)), y=np.ones((0, 1))),
     InvalidInputError, "no columns"),
    ("y-inf", lambda cls: _step(cls, y=np.full((3, 1), np.inf)), InvalidInputError,
     "non-finite"),
    ("y-shape", lambda cls: _step(cls, y=np.ones((4, 1))), InvalidInputError, "y has"),
    ("w-nan", lambda cls: _step(cls, w=_NAN_W), InvalidInputError, "non-finite"),
    ("y-overflow", lambda cls: _step(cls, y=np.full((3, 1), 1e200)), DivergenceError,
     "non-finite update"),
    ("grad-overflow", lambda cls: _step(cls, x=1e200 * np.eye(5, 3), y=np.full((3, 1), 1e200)),
     DivergenceError, "non-finite update"),
    ("forward-rows", lambda cls: cls(_aug5()).forward(np.ones((4, 3))),
     InvalidInputError, "rows"),
]


@pytest.mark.parametrize("cls", [AopuModel, RvflnnModel])
@pytest.mark.parametrize(
    "entry,error,match",
    [case[1:] for case in READOUT_ERRORS],
    ids=[case[0] for case in READOUT_ERRORS],
)
def test_readouts_reject_bad_input_alike(cls, entry, error, match):
    # both models share construction, validation and the step's epilogue
    with pytest.raises(error, match=match):
        entry(cls)


@pytest.mark.parametrize("cls", [AopuModel, RvflnnModel])
def test_readout_is_one_column_and_lr_the_second_parameter(cls):
    model = cls(_aug5(), 0.25)
    assert model.lr == 0.25
    assert model.w_tilde.shape == (5, 1) and not model.w_tilde.any()
    with pytest.raises(TypeError):
        cls(_aug5(), out_dim=1)


@pytest.mark.parametrize(
    "entry",
    [
        lambda xt, y, w: AopuModel(_aug5()).step(xt, y),
        lambda xt, y, w: RvflnnModel(_aug5()).step(xt, y),
        truncated_gradient,
        mse_gradient,
        lambda xt, y, w: dual(xt, w),
        lambda xt, y, w: reconstruct(xt, w),
    ],
    ids=[
        "aopu-step", "rvflnn-step", "truncated_gradient", "mse_gradient", "dual",
        "reconstruct",
    ],
)
def test_zero_column_batch_rejected(entry):
    # a batch of no samples has no rank ratio and no 2/b scaling
    with pytest.raises(InvalidInputError, match="no columns"):
        entry(np.zeros((5, 0)), np.zeros((0, 1)), np.zeros((5, 1)))


@functools.lru_cache(maxsize=None)
def _train_windows(seq):
    ds = synth_generate(n=4000, n_vars=5, noise=0.3, nonlinear=True, seed=0)
    train, _, _ = prepare_windows(ds, seq)
    return train


def _grid_batches(hidden, bs, seq, n=3):
    """The first ``n`` shuffled training batches of one (hidden, bs, seq) cell,
    as (augmenter, x_tilde, y) triples."""
    train = _train_windows(seq)
    aug = Augmenter(AugmentConfig(input_dim=train.dim, hidden=hidden, seed=0))
    out = []
    for feats, targs in batches(train, bs, shuffle=True, seed=0):
        out.append((aug, aug.augment(feats), targs))
        if len(out) == n:
            break
    return out


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestKernelParity:
    """The single-factorization kernel against the two-pseudo-inverse formulas,
    on full-rank (tall) and rank-deficient (wide) windowed batches."""

    @pytest.mark.parametrize("seq", (16, 48))
    @pytest.mark.parametrize("bs", (64, 128, 288))
    @pytest.mark.parametrize("hidden", (0, 16, 2048))
    def test_matches_reference_formulas(self, hidden, bs, seq):
        rng = np.random.default_rng(hidden + bs + seq)
        for aug, xt, y in _grid_batches(hidden, bs, seq):
            w = rng.standard_normal((xt.shape[0], 1)) / np.sqrt(xt.shape[0])
            d = dual(xt, w)
            model = AopuModel(aug)
            model.w_tilde = w
            report = model.step(xt, y)
            assert report.rank == linalg.rank(xt)
            assert report.rank_ratio == linalg.rank_ratio(xt)
            assert _rel(reconstruct(xt, d), reconstruct_reference(xt, d)) <= 1e-10
            assert (
                _rel(truncated_gradient(xt, y, d), truncated_gradient_reference(xt, y, d))
                <= 1e-10
            )


class TestRankRatioProvenance:
    def test_step_and_divergence_carry_the_batch_rank_ratio(self):
        # hidden 0, seq 16: 80 feature rows against 288 samples
        ((aug, xt, y),) = _grid_batches(hidden=0, bs=288, seq=16, n=1)
        rr = linalg.rank_ratio(xt)
        assert rr == 80 / 288
        assert AopuModel(aug).step(xt, y).rank_ratio == rr
        with pytest.raises(DivergenceError) as err:
            AopuModel(aug).step(xt, np.full_like(y, 1e200))
        assert err.value.rank_ratio == rr
