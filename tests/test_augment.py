"""Feature-map tests: determinism, freezing, activations, layer norm."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from aopu import linalg
from aopu.augment import (
    ACTIVATION_SLACK,
    ACTIVATIONS,
    AugmentConfig,
    Augmenter,
    _layer_norm,
)
from aopu.data import synth_generate, window
from aopu.errors import InvalidInputError


def _act(name, m):
    """The catalog activation on a fresh float64 copy of ``m`` (the catalog
    writes in place)."""
    return ACTIVATIONS[name](np.array(m, dtype=np.float64))


def _norm(m):
    """The layer norm on a fresh float64 copy of ``m``."""
    return _layer_norm(np.array(m, dtype=np.float64))


class TestInitAugmenter:
    def test_same_seed_identical(self):
        cfg = AugmentConfig(input_dim=4, hidden=8, seed=123)
        a1 = Augmenter(cfg)
        a2 = Augmenter(cfg)
        np.testing.assert_array_equal(a1.g_hat, a2.g_hat)

    def test_zero_hidden_columns(self):
        aug = Augmenter(AugmentConfig(input_dim=3, hidden=0))
        assert aug.g_hat.shape == (3, 0)

    def test_adjacent_seeds_differ(self):
        a1 = Augmenter(AugmentConfig(input_dim=4, hidden=8, seed=5))
        a2 = Augmenter(AugmentConfig(input_dim=4, hidden=8, seed=6))
        assert np.any(a1.g_hat != a2.g_hat)

    @pytest.mark.parametrize("field", ["input_dim", "hidden"])
    @pytest.mark.parametrize("value", [4.0, 4.5, True, False, np.float64(4.0), "4"])
    def test_non_integer_shape_rejected(self, field, value):
        kwargs = {"input_dim": 2, "hidden": 4, field: value}
        with pytest.raises(InvalidInputError, match=f"{field} must be an integer"):
            AugmentConfig(**kwargs)

    @pytest.mark.parametrize(
        "value",
        [True, False, 1.0, np.float64(1.0), "1"],
        ids=["true", "false", "float", "numpy-float", "str"],
    )
    def test_non_integer_seed_rejected(self, value):
        with pytest.raises(InvalidInputError, match="seed must be an integer"):
            AugmentConfig(input_dim=2, hidden=4, seed=value)

    def test_numpy_integer_seed_accepted(self):
        aug = Augmenter(AugmentConfig(input_dim=2, hidden=4, seed=np.uint8(7)))
        plain = Augmenter(AugmentConfig(input_dim=2, hidden=4, seed=7))
        assert aug.g_hat.tobytes() == plain.g_hat.tobytes()

    def test_numpy_integer_shape_accepted(self):
        aug = Augmenter(AugmentConfig(input_dim=np.int32(3), hidden=np.int64(5)))
        assert aug.augment(np.ones((3, 2))).shape == (8, 2)

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            AugmentConfig(input_dim=0, hidden=4)
        with pytest.raises(InvalidInputError):
            AugmentConfig(input_dim=2, hidden=-1)
        with pytest.raises(InvalidInputError):
            AugmentConfig(input_dim=2, hidden=4, activation="nope")
        with pytest.raises(InvalidInputError):
            AugmentConfig(input_dim=2, hidden=1, layer_norm=True)
        with pytest.raises(InvalidInputError, match="seed must be >= 0, got -1"):
            AugmentConfig(input_dim=2, hidden=4, seed=-1)


class TestAugment:
    def test_zero_weight_matrix_gives_zero_block(self):
        aug = Augmenter(AugmentConfig(input_dim=2, hidden=3))
        aug.g_hat = np.zeros((2, 3))
        x = np.array([[1.0, -2.0], [0.5, 3.0]])
        out = aug.augment(x)
        np.testing.assert_array_equal(out[:3], np.zeros((3, 2)))  # tanh(0) = 0
        np.testing.assert_array_equal(out[3:], x)

    def test_zero_hidden_is_identity(self):
        aug = Augmenter(AugmentConfig(input_dim=3, hidden=0))
        x = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(aug.augment(x), x)

    def test_scalar_tanh_value(self):
        aug = Augmenter(AugmentConfig(input_dim=1, hidden=1))
        aug.g_hat = np.array([[1.0]])
        out = aug.augment(np.array([[0.5]]))
        np.testing.assert_allclose(out[:, 0], [0.46212, 0.5], atol=1e-5)
        np.testing.assert_allclose(out[0, 0], np.tanh(0.5), atol=1e-15)

    def test_hidden_block_first_raw_second(self):
        aug = Augmenter(AugmentConfig(input_dim=2, hidden=4, seed=0))
        x = np.array([[1.0], [2.0]])
        out = aug.augment(x)
        np.testing.assert_array_equal(out[4:], x)
        np.testing.assert_allclose(out[:4], np.tanh(aug.g_hat.T @ x), atol=0)

    def test_dimension_mismatch(self):
        aug = Augmenter(AugmentConfig(input_dim=3, hidden=2))
        with pytest.raises(InvalidInputError):
            aug.augment(np.ones((2, 5)))

    def test_layer_norm_applies_to_hidden_block_only(self):
        aug = Augmenter(
            AugmentConfig(input_dim=2, hidden=8, layer_norm=True, seed=1)
        )
        x = np.array([[2.0, -1.0], [0.3, 0.7]])
        out = aug.augment(x)
        hidden = out[:8]
        np.testing.assert_allclose(hidden.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(hidden.std(axis=0), 1.0, atol=1e-12)
        np.testing.assert_array_equal(out[8:], x)  # raw copy untouched

    def test_layer_norm_validates_once(self, monkeypatch):
        # the hidden block is built from a validated input, so augment checks
        # its input once and normalizes the block without re-checking it
        aug = Augmenter(
            AugmentConfig(input_dim=240, hidden=2048, layer_norm=True, seed=2)
        )
        x = np.random.default_rng(3).standard_normal((240, 64))
        calls = []
        as_matrix = linalg.as_matrix

        def counting(*args, **kwargs):
            calls.append(args)
            return as_matrix(*args, **kwargs)

        monkeypatch.setattr(linalg, "as_matrix", counting)
        out = aug.augment(x)
        assert len(calls) == 1
        hidden = _act("tanh", aug.g_hat.T @ x)
        np.testing.assert_array_equal(out[:2048], _norm(hidden))  # bit-for-bit

    def test_freezing_under_repeated_calls(self):
        aug = Augmenter(AugmentConfig(input_dim=3, hidden=4, seed=9))
        before = hashlib.sha256(aug.g_hat.tobytes()).hexdigest()
        x = np.random.default_rng(0).standard_normal((3, 5))
        for _ in range(1000):
            aug.augment(x)
        after = hashlib.sha256(aug.g_hat.tobytes()).hexdigest()
        assert before == after
        with pytest.raises(ValueError):
            aug.g_hat[0, 0] = 1.0  # read-only buffer


class TestLeading:
    def test_leading_units_are_rows_of_the_full_map(self):
        aug = Augmenter(AugmentConfig(input_dim=6, hidden=40, activation="relu", seed=4))
        x = np.random.default_rng(5).standard_normal((6, 24))
        full = aug.augment(x)
        for k in (1, 16, 40):
            lead = aug.prefix(6, k)
            assert np.shares_memory(lead.g_hat, aug.g_hat)
            assert not lead.g_hat.flags.writeable
            assert lead.config.hidden == k and lead.output_dim == k + 6
            out = lead.augment(x)
            # equal up to the rounding of a product of another shape
            np.testing.assert_allclose(out[:k], full[:k], rtol=1e-13, atol=1e-14)
            np.testing.assert_array_equal(out[k:], x)


    def test_narrow_draw_is_a_row_prefix_of_a_wide_one(self):
        # G is drawn one input row at a time, so a narrower map's G is the
        # first rows of a wider one's, and prefix() reproduces its output
        wide = Augmenter(AugmentConfig(input_dim=240, hidden=64, seed=7))
        for d in (1, 80, 120, 160, 200, 240):
            fresh = Augmenter(AugmentConfig(input_dim=d, hidden=64, seed=7))
            np.testing.assert_array_equal(_bits(fresh.g_hat), _bits(wide.g_hat[:d]))
            assert wide.prefix(d, 64).config == fresh.config

    @pytest.mark.parametrize("b", [1, 64])
    @pytest.mark.parametrize(
        "name, norm", [("tanh", False), ("relu", True), ("hardshrink", False)]
    )
    def test_prefix_augments_as_a_fresh_map(self, name, norm, b):
        def draw(d):
            return Augmenter(
                AugmentConfig(d, hidden=96, activation=name, layer_norm=norm, seed=2)
            )

        wide = draw(240)
        for d in (80, 200):
            fresh = draw(d)
            view = wide.prefix(d, 96)
            assert np.shares_memory(view.g_hat, wide.g_hat)
            x = np.random.default_rng(d).standard_normal((d, b))
            got, want = view.augment(x), fresh.augment(x)
            np.testing.assert_array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("d, k", [(0, 4), (7, 4), (6, 41), (6, -1)])
    def test_prefix_beyond_the_map_rejected(self, d, k):
        aug = Augmenter(AugmentConfig(input_dim=6, hidden=40, seed=4))
        with pytest.raises(InvalidInputError, match="exceeds the map"):
            aug.prefix(d, k)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestOneBuffer:
    """augment builds x_tilde in one buffer, equal to the stacked reference."""

    @pytest.mark.parametrize("b", [1, 5])
    @pytest.mark.parametrize("norm", [False, True])
    @pytest.mark.parametrize("name", sorted(ACTIVATIONS))
    def test_matches_stacked_reference(self, name, norm, b):
        aug = Augmenter(
            AugmentConfig(input_dim=7, hidden=16, activation=name, layer_norm=norm, seed=4)
        )
        x = np.random.default_rng(b).standard_normal((7, b)) * 3.0
        hidden = _act(name, aug.g_hat.T @ x)
        if norm:
            hidden = _norm(hidden)
        ref = np.vstack([hidden, x])
        np.testing.assert_array_equal(_bits(aug.augment(x)), _bits(ref))

    @pytest.mark.parametrize("b", [1, 5])
    @pytest.mark.parametrize("name", sorted(ACTIVATIONS))
    def test_hidden_zero_is_a_copy(self, name, b):
        aug = Augmenter(AugmentConfig(input_dim=3, hidden=0, activation=name))
        x = np.random.default_rng(0).standard_normal((3, b))
        out = aug.augment(x)
        np.testing.assert_array_equal(_bits(out), _bits(x))
        assert not np.shares_memory(out, x)

    def test_g_hat_is_one_seeded_draw(self):
        aug = Augmenter(AugmentConfig(input_dim=6, hidden=11, seed=17))
        want = np.random.default_rng(17).standard_normal((6, 11))
        assert aug.g_hat.shape == (6, 11)
        np.testing.assert_array_equal(_bits(aug.g_hat), _bits(want))
        assert not aug.g_hat.flags.writeable
        assert aug.g_hat.T.flags.c_contiguous

    def test_returns_fresh_array(self):
        aug = Augmenter(AugmentConfig(input_dim=4, hidden=6, seed=1))
        x = np.random.default_rng(2).standard_normal((4, 3))
        keep = x.copy()
        out = aug.augment(x)
        assert not np.shares_memory(out, x)
        assert not np.shares_memory(out, aug.augment(x))
        out[:] = 0.0
        np.testing.assert_array_equal(x, keep)

    def test_warm_call_allocates_only_its_output(self):
        aug = Augmenter(AugmentConfig(input_dim=240, hidden=2048, seed=0))
        x = np.random.default_rng(0).standard_normal((240, 64))
        aug.augment(x)  # warm
        tracemalloc.start()
        try:
            out = aug.augment(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * out.nbytes

    def test_warm_layer_norm_call_allocates_its_output_and_one_block(self):
        # np.std forms the squared deviations in one array of the hidden
        # rows' size; a second such temporary would exceed the bound
        aug = Augmenter(
            AugmentConfig(input_dim=240, hidden=2048, layer_norm=True, seed=0)
        )
        x = np.random.default_rng(0).standard_normal((240, 64))
        aug.augment(x)  # warm
        tracemalloc.start()
        try:
            out = aug.augment(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 1.1 * out[:2048].nbytes

    def test_construction_allocates_only_g_hat(self):
        tracemalloc.start()
        try:
            aug = Augmenter(AugmentConfig(input_dim=240, hidden=2048, seed=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * aug.g_hat.nbytes


def _strided(kind, d, b, seed):
    """A d-by-b float64 input that is not C-contiguous: a column slice of a
    window view, an F-ordered array or a column slice of a C array."""
    rng = np.random.default_rng(seed)
    if kind == "window-view":
        ds = synth_generate(n=60, n_vars=d // 3, seed=seed)
        x = window(ds, 3).features[:, 7 : 7 + b]
        assert not x.flags.writeable
    elif kind == "fortran":
        x = np.asfortranarray(rng.standard_normal((d, b)))
    else:
        x = rng.standard_normal((d, 3 * b + 2))[:, 2 : 2 + b]
    assert not x.flags.c_contiguous or b == 1
    return x


class TestStridedInputs:
    """augment reads an input of any strides as it reads its C-ordered copy."""

    @pytest.mark.parametrize("kind", ["window-view", "fortran", "column-slice"])
    @pytest.mark.parametrize("norm", [False, True])
    @pytest.mark.parametrize("name", sorted(ACTIVATIONS))
    def test_equals_contiguous_copy(self, name, norm, kind):
        aug = Augmenter(
            AugmentConfig(input_dim=6, hidden=16, activation=name, layer_norm=norm, seed=3)
        )
        x = _strided(kind, 6, 5, seed=2)
        np.testing.assert_array_equal(
            _bits(aug.augment(x)), _bits(aug.augment(np.ascontiguousarray(x)))
        )

    def test_warm_call_on_a_view_allocates_only_its_output(self):
        # a batch of the train-paper windows, read straight from the view
        x = window(synth_generate(n=400, n_vars=5, seed=0), 48).features[:, 100:164]
        aug = Augmenter(AugmentConfig(input_dim=240, hidden=2048, seed=0))
        aug.augment(x)  # warm
        tracemalloc.start()
        try:
            out = aug.augment(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * out.nbytes


def _read_only(shape):
    a = np.empty(shape)
    a.setflags(write=False)
    return a


class TestOut:
    @pytest.mark.parametrize("norm", [False, True])
    @pytest.mark.parametrize("hidden", [0, 16])
    def test_fills_and_returns_out(self, norm, hidden):
        aug = Augmenter(
            AugmentConfig(input_dim=6, hidden=hidden, layer_norm=norm and hidden > 0,
                          seed=1)
        )
        x = _strided("fortran", 6, 5, seed=4)
        out = np.full((aug.output_dim, 5), np.nan)
        assert aug.augment(x, out=out) is out
        np.testing.assert_array_equal(_bits(out), _bits(aug.augment(x)))

    def test_warm_call_into_out_allocates_no_batch(self):
        aug = Augmenter(AugmentConfig(input_dim=240, hidden=2048, seed=0))
        x = np.random.default_rng(0).standard_normal((240, 64))
        out = np.empty((aug.output_dim, 64))
        aug.augment(x, out=out)  # warm
        tracemalloc.start()
        try:
            aug.augment(x, out=out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the finiteness check's mask of x, a sixty-fourth of x_tilde
        assert peak <= 0.05 * out.nbytes

    @pytest.mark.parametrize("kind", [
        "shape", "short", "float32", "fortran", "column-slice", "read-only", "list",
    ])
    def test_bad_out_rejected(self, kind):
        aug = Augmenter(AugmentConfig(input_dim=3, hidden=4, seed=0))
        x = np.ones((3, 5))
        out = {
            "shape": lambda: np.empty((7, 6)),
            "short": lambda: np.empty((6, 5)),
            "float32": lambda: np.empty((7, 5), dtype=np.float32),
            "fortran": lambda: np.empty((7, 5), order="F"),
            "column-slice": lambda: np.empty((7, 10))[:, :5],
            "read-only": lambda: _read_only((7, 5)),
            "list": lambda: [[0.0] * 5] * 7,
        }[kind]()
        with pytest.raises(InvalidInputError, match="out must be a writeable"):
            aug.augment(x, out=out)

    def test_out_sharing_memory_with_x_rejected(self):
        aug = Augmenter(AugmentConfig(input_dim=3, hidden=4, seed=0))
        out = np.zeros((7, 5))
        for x in (out[4:], out[:3], out[2:5]):
            with pytest.raises(InvalidInputError, match="share no memory"):
                aug.augment(x, out=out)
        np.testing.assert_array_equal(out, 0.0)

    def test_out_is_keyword_only(self):
        aug = Augmenter(AugmentConfig(input_dim=3, hidden=4, seed=0))
        with pytest.raises(TypeError):
            aug.augment(np.ones((3, 5)), np.empty((7, 5)))


class TestActivations:
    def test_closed_forms(self):
        z = lambda name, v: float(_act(name, np.array([[v]]))[0, 0])
        assert z("tanh", 0.0) == 0.0
        assert z("softsign", 1.0) == 0.5
        assert z("hardshrink", 0.3) == 0.0
        assert z("hardshrink", 0.7) == 0.7
        assert z("softshrink", 0.3) == 0.0
        np.testing.assert_allclose(z("softshrink", 0.8), 0.3, atol=1e-15)
        np.testing.assert_allclose(z("tanhshrink", 1.0), 1.0 - math.tanh(1.0), atol=1e-15)
        assert z("sigmoid", 0.0) == 0.5
        assert z("relu", -1.0) == 0.0 and z("relu", 2.0) == 2.0
        assert z("relu6", 7.0) == 6.0
        np.testing.assert_allclose(z("rrelu", -1.0), -11.0 / 48.0, atol=1e-15)
        np.testing.assert_allclose(z("leakyrelu", -2.0), -0.02, atol=1e-15)
        np.testing.assert_allclose(z("hardswish", -3.0), 0.0, atol=1e-15)
        np.testing.assert_allclose(z("hardswish", 4.0), 4.0, atol=1e-15)

    def test_mish_composition(self):
        got = float(_act("mish", np.array([[1.0]]))[0, 0])
        expected = 1.0 * math.tanh(math.log1p(math.e))  # independent composition
        np.testing.assert_allclose(got, expected, atol=1e-12)
        np.testing.assert_allclose(got, 0.86509, atol=1e-5)

    def test_all_catalog_entries_finite_on_wide_range(self):
        x = np.linspace(-20, 20, 401).reshape(1, -1)
        for name in ACTIVATIONS:
            out = _act(name, x)
            assert out.shape == x.shape
            assert np.all(np.isfinite(out)), name

    def test_in_place_entries_match_closed_forms(self):
        # the catalog overwrites its argument; each entry must give the bits
        # of the element-wise formula it implements
        def sigmoid(x):
            z = np.exp(-np.abs(x))
            return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))

        lam = 0.5
        formulas = {
            "tanh": np.tanh,
            "hardshrink": lambda x: np.where(np.abs(x) > lam, x, 0.0),
            "tanhshrink": lambda x: x - np.tanh(x),
            "softsign": lambda x: x / (1.0 + np.abs(x)),
            "softshrink": lambda x: np.sign(x) * np.maximum(np.abs(x) - lam, 0.0),
            "sigmoid": sigmoid,
            "relu": lambda x: np.maximum(x, 0.0),
            "relu6": lambda x: np.clip(x, 0.0, 6.0),
            "rrelu": lambda x: np.where(x >= 0, x, (11.0 / 48.0) * x),
            "leakyrelu": lambda x: np.where(x >= 0, x, 0.01 * x),
            "hardswish": lambda x: x * np.clip(x + 3.0, 0.0, 6.0) / 6.0,
            "mish": lambda x: x * np.tanh(np.logaddexp(0.0, x)),
        }
        assert sorted(formulas) == sorted(ACTIVATIONS)
        edges = [0.0, -0.0, lam, -lam, 3.0, -3.0, 6.0, -6.0, 1e300, -1e300]
        x = np.concatenate([np.linspace(-30, 30, 2000), edges]).reshape(3, -1)
        keep = x.copy()
        for name, formula in formulas.items():
            got = _act(name, x)
            np.testing.assert_array_equal(_bits(got), _bits(formula(x)), err_msg=name)
            np.testing.assert_array_equal(_bits(x), _bits(keep), err_msg=name)

    @pytest.mark.parametrize("name", sorted(ACTIVATIONS))
    def test_growth_is_at_most_the_slack(self, name):
        # |f(z)| <= |z| + 6 bounds the norm of hidden rows the rank-ratio
        # survey never computes
        edges = [0.0, -0.0, 0.5, -0.5, 3.0, -3.0, 6.0, -6.0, 1e300, -1e300]
        normals = np.random.default_rng(7).standard_normal(10_000)
        z = np.concatenate([edges, normals, 100.0 * normals]).reshape(1, -1)
        got = _act(name, z)
        assert np.all(np.abs(got) <= np.abs(z) + ACTIVATION_SLACK)
        assert ACTIVATION_SLACK == 6.0

    def test_rrelu_deterministic(self):
        x = np.random.default_rng(0).standard_normal((4, 4))
        np.testing.assert_array_equal(
            _act("rrelu", x), _act("rrelu", x)
        )

    def test_zero_mean_catalog(self):
        rng = np.random.default_rng(42)
        z = rng.standard_normal((1, 1_000_000))
        # odd activations, whose expectation under a symmetric law is zero
        for name in ("hardshrink", "tanh", "tanhshrink", "softsign", "softshrink"):
            assert abs(float(_act(name, z).mean())) < 0.01, name
        for name in ("sigmoid", "relu6", "rrelu"):
            assert abs(float(_act(name, z).mean())) > 0.1, name


class TestLayerNorm:
    def test_constant_column_zeroed(self):
        out = _norm(np.full((4, 2), 3.5))
        np.testing.assert_array_equal(out, np.zeros((4, 2)))

    def test_constant_column_with_inexact_mean_zeroed(self):
        # the mean of three 0.1s is not 0.1, so centering leaves a constant
        # -1.4e-17 whose std is 0; the column must still come out zero
        m = np.array([[0.1, 1.0], [0.1, 2.0], [0.1, 4.0]])
        out = _norm(m)
        np.testing.assert_array_equal(_bits(out[:, 0]), _bits(np.zeros(3)))

    def test_already_normalized_unchanged(self):
        col = np.array([[1.0], [-1.0]])
        np.testing.assert_allclose(_norm(col), col, atol=1e-15)

    def test_random_column_moments(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((50, 3)) * 4.0 + 2.0
        out = _norm(m)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.var(axis=0), 1.0, atol=1e-10)

    @pytest.mark.parametrize(
        "shape", [(2, 1), (130, 1), (2048, 1), (2, 5), (130, 3), (2048, 64)]
    )
    def test_equals_numpy_std_reference(self, shape):
        # the centered block divided by its std(axis=0), bit for bit, also
        # for one column, which numpy sums pairwise; a constant column,
        # whose inexact mean leaves a nonzero centered value, comes out zero
        m = np.tanh(np.random.default_rng(shape[0]).standard_normal(shape) * 3.0) + 0.1
        for block in (m, np.hstack([m, np.full((shape[0], 1), 0.1)])):
            ref = block - block.mean(axis=0)
            std = ref.std(axis=0)
            ref /= np.where(std > 0, std, 1.0)
            ref[:, shape[1]:] = 0.0
            np.testing.assert_array_equal(_bits(_norm(block)), _bits(ref))


class TestNonlinearityBreaksTracking:
    def test_activation_is_not_representable_as_operator(self):
        # acti(W (x1+x2)) must differ from acti(W x1) + acti(W x2) - the
        # post-activation weights cannot be decoupled from the input
        rng = np.random.default_rng(21)
        hits = 0
        for _ in range(100):
            w = rng.standard_normal((4, 3))
            x1 = rng.standard_normal((3, 1))
            x2 = rng.standard_normal((3, 1))
            lhs = np.tanh(w @ (x1 + x2))
            rhs = np.tanh(w @ x1) + np.tanh(w @ x2)
            if np.max(np.abs(lhs - rhs)) > 1e-6:
                hits += 1
        assert hits >= 99
