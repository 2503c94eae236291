"""Data pipeline tests: CSV ingestion, standardization, windowing, batching,
splitting, and the synthetic generator."""

import tracemalloc

import numpy as np
import pytest

from aopu import harness
from aopu.baselines import linear_mve_fit
from aopu.data import (
    SPLIT_RATIOS,
    ColumnCountError,
    Dataset,
    EmptyCsvError,
    NonNumericValueError,
    RowCountError,
    SCHEMAS,
    ZeroVarianceError,
    batches,
    check_shape,
    load_csv,
    prepare_windows,
    split,
    standardize,
    synth_generate,
    train_column_stats,
    window,
)
from aopu.errors import InvalidInputError


class TestLoadCsv:
    def test_small_file_round_trip(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("1.5,2,3\n-4,5e-1,6\n7,8,9.25\n")
        ds = load_csv(path)
        expected = np.array([[1.5, 2, 3], [-4, 0.5, 6], [7, 8, 9.25]])
        np.testing.assert_array_equal(ds.values, expected)
        assert ds.n_inputs == 2 and ds.target_col == 2

    def test_header_detection(self, tmp_path):
        path = tmp_path / "named.csv"
        path.write_text("temp,pressure,y\n1,2,3\n4,5,6\n")
        ds = load_csv(path)
        assert ds.columns == ("temp", "pressure", "y")
        assert ds.n_rows == 2

    @pytest.mark.parametrize("header", ["", "x0,x1,y\n"], ids=["data", "header"])
    def test_byte_order_mark_is_not_part_of_the_first_cell(self, tmp_path, header):
        # spreadsheet programs' "CSV UTF-8" starts with one; it once made the
        # first cell '\ufeff1.0' (unparsable) or the first column '\ufeffx0'
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + f"{header}1.0,2,3\n4,5,6\n".encode())
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.values, [[1.0, 2, 3], [4, 5, 6]])
        if header:
            assert ds.columns == ("x0", "x1", "y")

    def test_mixed_first_row_is_data_not_header(self, tmp_path):
        # a first row with any numeric cell is data, so its text cell fails
        # to parse instead of the row being dropped as a header
        path = tmp_path / "typo.csv"
        path.write_text("1.0,abc,3\n4,5,6\n7,8,9\n")
        with pytest.raises(NonNumericValueError, match="row 0, column 1"):
            load_csv(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(ColumnCountError):
            load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(NonNumericValueError):
            load_csv(path)

    def test_missing_value_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("1,2\n3,\n")
        with pytest.raises(NonNumericValueError):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EmptyCsvError):
            load_csv(path)

    def test_schema_row_count_enforced(self, tmp_path):
        path = tmp_path / "short.csv"
        rows = "\n".join(",".join("1" for _ in range(8)) for _ in range(10))
        path.write_text(rows + "\n")
        with pytest.raises(RowCountError):
            load_csv(path, schema="debutanizer")

    def test_known_schema_roles(self, tmp_path):
        # a file with the documented shape: 7 inputs and 1 target column
        rng = np.random.default_rng(0)
        path = tmp_path / "deb.csv"
        data = rng.standard_normal((2394, 8))
        np.savetxt(path, data, delimiter=",")
        ds = load_csv(path, schema="debutanizer")
        assert ds.n_rows == 2394
        assert ds.n_inputs == 7
        assert ds.target_col == 7

    def test_sru_schema_two_candidate_targets(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "sru.csv"
        np.savetxt(path, rng.standard_normal((10080, 7)), delimiter=",")
        ds = load_csv(path, schema="sru")
        assert ds.n_inputs == 5
        assert ds.target_col == 5  # first analyzer output by default
        ds2 = load_csv(path, schema="sru", target_col=6)
        assert ds2.target_col == 6

    def test_unknown_schema_name(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,2\n")
        with pytest.raises(InvalidInputError):
            load_csv(path, schema="mystery")

    def test_schema_object_rejected(self, tmp_path):
        # only a schema name or None selects the layout
        path = tmp_path / "x.csv"
        path.write_text("1,2,3,4,5,6,7,8\n")
        with pytest.raises(InvalidInputError, match="unknown schema"):
            load_csv(path, schema=SCHEMAS["debutanizer"])


def _toy_dataset(values, n_inputs=None, target_col=None):
    values = np.asarray(values, dtype=np.float64)
    n_inputs = values.shape[1] - 1 if n_inputs is None else n_inputs
    target_col = values.shape[1] - 1 if target_col is None else target_col
    cols = tuple(f"c{j}" for j in range(values.shape[1]))
    return Dataset(values=values, columns=cols, n_inputs=n_inputs, target_col=target_col)


class TestStandardize:
    def test_z_scores(self):
        # the stats come from the first 3 of 5 rows: mean 2, std sqrt(2/3)
        ds = _toy_dataset(np.column_stack([np.arange(1.0, 6.0), np.arange(5.0)]))
        stats = train_column_stats(ds)
        out = standardize(ds, stats)
        np.testing.assert_allclose(
            out.values[:, 0], [-1.2247, 0.0, 1.2247, 2.4495, 3.6742], atol=1e-4
        )
        np.testing.assert_allclose(
            out.values[:, 0],
            [-1.22474487, 0.0, 1.22474487, 2.44948974, 3.67423461],
            atol=1e-8,
        )

    def test_already_standardized_unchanged(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((40, 3))
        head = v[:24]  # the first 60% of the rows, which the stats come from
        v = (v - head.mean(axis=0)) / head.std(axis=0)  # exact unit stats
        ds = _toy_dataset(v)
        out = standardize(ds, train_column_stats(ds))
        np.testing.assert_allclose(out.values, v, atol=1e-12)

    def test_validation_rows_keep_train_stats(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((100, 2))
        v[60:] += 5.0  # later rows drift
        ds = _toy_dataset(v)
        stats = train_column_stats(ds)
        out = standardize(ds, stats)
        # train part is centered, the drifted tail is not re-fitted
        np.testing.assert_allclose(out.values[:60].mean(axis=0), 0.0, atol=1e-12)
        assert np.all(np.abs(out.values[60:].mean(axis=0)) > 1.0)

    def test_no_leakage_from_later_rows(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal((50, 2))
        ds = _toy_dataset(v)
        stats = train_column_stats(ds)
        v2 = v.copy()
        v2[40:] += 123.0  # perturb rows outside the fitting range
        stats2 = train_column_stats(_toy_dataset(v2))
        np.testing.assert_array_equal(stats.mean, stats2.mean)
        np.testing.assert_array_equal(stats.std, stats2.std)

    def test_zero_variance_column_named(self):
        v = np.column_stack([np.ones(10), np.arange(10.0)])
        ds = _toy_dataset(v)
        with pytest.raises(ZeroVarianceError, match="c0"):
            standardize(ds, train_column_stats(ds))


class TestWindow:
    def test_seq_one_is_transpose(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((20, 4))
        ds = _toy_dataset(v)
        ws = window(ds, 1)
        np.testing.assert_array_equal(ws.features, v[:, :3].T)
        np.testing.assert_array_equal(ws.targets[:, 0], v[:, 3])

    def test_two_variable_layout(self):
        v = np.array([[1.0, 2.0, 0.1], [3.0, 4.0, 0.2], [5.0, 6.0, 0.3]])
        ds = _toy_dataset(v, n_inputs=2, target_col=2)
        ws = window(ds, 2)
        np.testing.assert_array_equal(ws.features[:, 0], [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(ws.features[:, 1], [3.0, 4.0, 5.0, 6.0])
        np.testing.assert_array_equal(ws.targets[:, 0], [0.2, 0.3])

    def test_counts_at_production_shape(self):
        rng = np.random.default_rng(6)
        ds = _toy_dataset(rng.standard_normal((2394, 8)), n_inputs=7, target_col=7)
        ws = window(ds, 48)
        assert ws.dim == 48 * 7 == 336
        assert ws.n_windows == 2394 - 48 + 1 == 2347

    def test_windows_reconstruct_original_series(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal((30, 3))
        ds = _toy_dataset(v)
        seq = 5
        ws = window(ds, seq)
        rebuilt = np.empty((30, 2))
        rebuilt[: seq - 1] = ws.features[: 2 * (seq - 1), 0].reshape(seq - 1, 2)
        for k in range(ws.n_windows):
            rebuilt[k + seq - 1] = ws.features[-2:, k]
        np.testing.assert_array_equal(rebuilt, v[:, :2])

    def test_target_alignment(self):
        v = np.column_stack([np.arange(10.0), np.arange(10.0) * 10])
        ds = _toy_dataset(v, n_inputs=1, target_col=1)
        ws = window(ds, 3)
        # window k covers rows [k, k+3): its target sits at row k+2
        np.testing.assert_array_equal(ws.targets[:, 0], np.arange(2, 10) * 10)

    @pytest.mark.parametrize("n_inputs", [1, 5])
    @pytest.mark.parametrize("seq", [1, 7, 30])  # 30 = every row: one window
    def test_equals_gather_reference(self, n_inputs, seq):
        # the (N, seq, d) fancy-index gather, flattened and transposed
        v = np.random.default_rng(seq).standard_normal((30, n_inputs + 1))
        ds = _toy_dataset(v, n_inputs=n_inputs)
        ws = window(ds, seq)
        n = 30 - seq + 1
        idx = np.arange(n)[:, None] + np.arange(seq)[None, :]
        ref = v[:, :n_inputs][idx].reshape(n, seq * n_inputs).T
        # a read-only view of the window's own copy of the inputs
        assert not ws.features.flags.writeable
        assert not np.shares_memory(ws.features, ds.values)
        np.testing.assert_array_equal(
            ws.features.view(np.uint64), np.ascontiguousarray(ref).view(np.uint64)
        )

    def test_holds_one_copy_of_the_inputs(self):
        ds = synth_generate(n=4000, n_vars=5, seed=0)
        tracemalloc.start()
        try:
            ws = window(ds, 48)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a copy of every window would be 48 times as large
        assert ws.dim * ws.n_windows == 240 * 3953
        assert peak <= 1.1 * 4000 * 5 * 8

    def test_prepare_windows_allocates_under_a_mib(self):
        ds = synth_generate(n=4000, n_vars=5, seed=0)
        tracemalloc.start()
        try:
            train, val, test = prepare_windows(ds, 48)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert train.n_windows + val.n_windows + test.n_windows == 3953
        assert peak < 2**20

    def test_bad_seq(self):
        ds = _toy_dataset(np.ones((5, 3)) + np.arange(5)[:, None])
        with pytest.raises(InvalidInputError):
            window(ds, 0)
        with pytest.raises(InvalidInputError):
            window(ds, 6)
        for seq in (2.0, True):
            with pytest.raises(InvalidInputError, match="seq must be an integer"):
                window(ds, seq)


class TestSplit:
    def _ws(self, n):
        v = np.column_stack([np.arange(n, dtype=float), np.arange(n, dtype=float)])
        return window(_toy_dataset(v, n_inputs=1, target_col=1), 1)

    def test_ten_windows(self):
        tr, va, te = split(self._ws(10))
        assert (tr.n_windows, va.n_windows, te.n_windows) == (6, 2, 2)

    def test_floor_rule_remainder_to_test(self):
        tr, va, te = split(self._ws(2347))
        assert (tr.n_windows, va.n_windows, te.n_windows) == (1408, 469, 470)

    def test_chronological_contiguous(self):
        tr, va, te = split(self._ws(10))
        np.testing.assert_array_equal(tr.features[0], np.arange(6.0))
        np.testing.assert_array_equal(va.features[0], [6.0, 7.0])
        np.testing.assert_array_equal(te.features[0], [8.0, 9.0])

    def test_empty_partition_rejected(self):
        # 4 windows: 2 train, 0 validation, 2 test
        with pytest.raises(InvalidInputError, match="empty partition"):
            split(self._ws(4))

    def test_ratios_have_one_owner(self):
        # the README names the data module's ratios as data.SPLIT_RATIOS
        assert SPLIT_RATIOS == (0.6, 0.2, 0.2)
        assert not hasattr(harness, "SPLIT_RATIOS")


class TestCheckShape:
    @pytest.mark.parametrize("n_rows", [4, 11, 37])
    def test_agrees_with_windowing_and_splitting(self, n_rows):
        # the arithmetic check accepts a shape exactly when windowing and
        # splitting the rows leave at least bs training windows
        v = np.column_stack([np.arange(n_rows, dtype=float)] * 2)
        ds = _toy_dataset(v, n_inputs=1, target_col=1)
        for seq in range(-1, n_rows + 2):
            try:
                n_train = split(window(ds, seq))[0].n_windows
            except InvalidInputError:
                n_train = 0
            for bs in range(-1, n_train + 3):
                if 1 <= bs <= n_train:
                    check_shape(n_rows, seq, bs)
                else:
                    with pytest.raises(InvalidInputError):
                        check_shape(n_rows, seq, bs)

    @pytest.mark.parametrize(
        "seq, bs, message",
        [
            (0, 8, "seq must be >= 1, got 0"),
            (101, 8, r"seq must be in \[1, 100\], got 101"),
            (4, 0, "batch size must be >= 1, got 0"),
            (99, 1, "split of 2 windows leaves an empty partition"),
            (4, 59, "batch size 59 leaves no full training batch at seq 4"),
        ],
    )
    def test_messages(self, seq, bs, message):
        with pytest.raises(InvalidInputError, match=message):
            check_shape(100, seq, bs)
        check_shape(100, 4, 58)  # 97 windows: 58 train, 19 validation, 20 test

    @pytest.mark.parametrize(
        "seq, bs, message",
        [
            (4.0, 8, "seq must be an integer, got 4.0"),
            (True, 8, "seq must be an integer, got True"),
            (4, 8.0, "batch size must be an integer, got 8.0"),
            (4, True, "batch size must be an integer, got True"),
            (4, "8", "batch size must be an integer, got '8'"),
        ],
        ids=["float-seq", "bool-seq", "float-bs", "bool-bs", "str-bs"],
    )
    def test_shapes_must_be_integers(self, seq, bs, message):
        with pytest.raises(InvalidInputError, match=message):
            check_shape(100, seq, bs)
        check_shape(100, np.int32(4), np.int64(8))


class TestBatches:
    def _ws(self, n):
        v = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
        return window(_toy_dataset(v, n_inputs=1, target_col=1), 1)

    def test_drop_last_rule(self):
        out = batches(self._ws(100), 64)
        assert len(out) == 1
        assert out[0][0].shape == (1, 64)

    def test_same_seed_same_order(self):
        a = batches(self._ws(50), 8, shuffle=True, seed=3)
        b = batches(self._ws(50), 8, shuffle=True, seed=3)
        for (fa, _), (fb, _) in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_no_shuffle_is_time_order(self):
        out = batches(self._ws(12), 4)
        np.testing.assert_array_equal(out[0][0][0], [0.0, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(out[2][0][0], [8.0, 9.0, 10.0, 11.0])

    def test_all_training_batches_have_bs_columns(self):
        for feats, targs in batches(self._ws(103), 10, shuffle=True, seed=0):
            assert feats.shape[1] == 10
            assert targs.shape[0] == 10

    def test_bad_batch_size(self):
        with pytest.raises(InvalidInputError):
            batches(self._ws(10), 0)
        for bs in (4.0, True):
            with pytest.raises(InvalidInputError, match="batch size must be an integer"):
                batches(self._ws(10), bs)

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0, got -1"),
        (True, "seed must be an integer, got True"),
        (1.5, "seed must be an integer, got 1.5"),
    ], ids=["negative", "bool", "float"])
    def test_seed_must_be_a_non_negative_integer(self, seed, message):
        # -1 raised numpy's bare ValueError, True shuffled as seed 1 and 1.5
        # raised a bare TypeError
        with pytest.raises(InvalidInputError, match=message):
            batches(self._ws(10), 2, shuffle=True, seed=seed)


def _eager_batches(ws, bs, shuffle=False, seed=0):
    """The list that batches() returned before it became lazy."""
    n = ws.n_windows
    order = np.random.default_rng(seed).permutation(n) if shuffle else np.arange(n)
    return [
        (ws.features[:, order[s : s + bs]], ws.targets[order[s : s + bs]])
        for s in range(0, n - bs + 1, bs)
    ]


def _assert_same_batches(got, expected):
    assert len(got) == len(expected)
    for (f, t), (ef, et) in zip(got, expected):
        np.testing.assert_array_equal(f, ef)
        np.testing.assert_array_equal(t, et)


class TestLazyBatches:
    @pytest.fixture(scope="class")
    def ws(self):
        ds = synth_generate(n=230, n_vars=3, seed=1)
        return window(ds, 4)

    @pytest.mark.parametrize("bs", [1, 7, 16, 227])
    @pytest.mark.parametrize("shuffle", [False, True])
    def test_equals_eager_reference(self, ws, bs, shuffle):
        lazy = batches(ws, bs, shuffle=shuffle, seed=5)
        expected = _eager_batches(ws, bs, shuffle=shuffle, seed=5)
        # len, iteration (twice) and the drop-last rule
        assert len(lazy) == ws.n_windows // bs
        _assert_same_batches(list(lazy), expected)
        _assert_same_batches(list(lazy), expected)
        # every index from 0 up to the length, and none past the end
        for i in range(len(expected)):
            _assert_same_batches([lazy[i]], [expected[i]])
        with pytest.raises(IndexError):
            lazy[len(expected)]

    def test_negative_index_out_of_range(self, ws):
        # batches are cut forward only: batch i is counted from the start
        lazy = batches(ws, 7)
        for i in (-1, -len(lazy)):
            with pytest.raises(IndexError, match=f"batch {i} out of range"):
                lazy[i]

    def test_each_access_is_a_fresh_copy(self, ws):
        lazy = batches(ws, 8)
        f, _ = lazy[0]
        f[...] = np.nan
        assert np.all(np.isfinite(lazy[0][0]))
        assert np.all(np.isfinite(ws.features))

    @pytest.mark.parametrize("part", [0, 1, 2])
    def test_gathers_from_a_view_are_fresh_and_writeable(self, ws, part):
        sub = split(ws)[part]
        assert not sub.features.flags.writeable
        copy = np.ascontiguousarray(sub.features)
        bs = 5
        lazy = batches(sub, bs, shuffle=True, seed=4)
        order = np.random.default_rng(4).permutation(sub.n_windows)
        for i, (f, t) in enumerate(lazy):
            cols = order[i * bs : (i + 1) * bs]
            assert f.tobytes() == copy[:, cols].tobytes()
            assert t.tobytes() == sub.targets[cols].tobytes()
            assert f.flags.writeable and not np.shares_memory(f, ws.features)
        part = lazy.columns(2, 13)
        assert part.tobytes() == copy[:, order[2:13]].tobytes()
        assert part.flags.writeable and not np.shares_memory(part, ws.features)

    def test_columns_span_batches(self, ws):
        # survey._survey_ranks gathers each block of the shuffled split so
        lazy = batches(ws, 7, shuffle=True, seed=9)
        whole = np.hstack([f for f, _ in _eager_batches(ws, 7, shuffle=True, seed=9)])
        for start, stop in [(0, 7), (3, 25), (14, 21), (0, 7 * len(lazy))]:
            part = lazy.columns(start, stop)
            assert part.tobytes() == np.ascontiguousarray(whole[:, start:stop]).tobytes()
            assert not np.shares_memory(part, ws.features)

    def test_epoch_holds_at_most_two_batch_copies(self):
        # the train-paper shape: the training split of seq-48 windows over
        # 5 inputs, bs 64
        train, _, _ = split(window(synth_generate(n=4000, n_vars=5, seed=0), 48))
        one = (train.dim + 1) * 64 * 8  # bytes of one batch copy
        tracemalloc.start()
        try:
            lazy = batches(train, 64, shuffle=True, seed=0)
            for f, t in lazy:
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the batch in hand and the one being gathered, plus the permutation
        # (a sixth of a copy); a list of the batches would hold all 37
        assert len(lazy) == 37
        assert peak < 3 * one


class TestSynthGenerate:
    def test_noise_free_linear_recovered_by_closed_form(self):
        ds = synth_generate(n=400, n_vars=6, noise=0.0, seed=11)
        fit = linear_mve_fit(ds.inputs().T, ds.target()[None, :])
        np.testing.assert_allclose(fit.weights[0], ds.meta["w"], atol=1e-6)
        np.testing.assert_allclose(fit.offset, [0.0], atol=1e-6)

    def test_noise_floor_matches_analytic_r2(self):
        sigma = 0.1
        ds = synth_generate(n=20000, n_vars=5, noise=sigma, seed=12)
        w = ds.meta["w"]
        yhat = ds.inputs() @ w
        y = ds.target()
        r2 = 1.0 - np.sum((y - yhat) ** 2) / np.sum((y - y.mean()) ** 2)
        var_y = float(np.linalg.norm(w) ** 2 + sigma**2)
        np.testing.assert_allclose(r2, 1.0 - sigma**2 / var_y, atol=0.02)

    def test_same_seed_identical(self):
        a = synth_generate(n=100, n_vars=3, noise=0.2, nonlinear=True, seed=5)
        b = synth_generate(n=100, n_vars=3, noise=0.2, nonlinear=True, seed=5)
        np.testing.assert_array_equal(a.values, b.values)

    def test_marginal_moments_near_stationary_targets(self):
        ds = synth_generate(n=50000, n_vars=4, noise=0.0, seed=13)
        np.testing.assert_allclose(ds.inputs().mean(axis=0), 0.0, atol=0.1)
        np.testing.assert_allclose(ds.inputs().std(axis=0), 1.0, atol=0.1)

    def test_nonlinear_component_is_linearly_invisible(self):
        # the even tanh-product term must be uncorrelated with every input
        ds = synth_generate(n=100000, n_vars=4, noise=0.0, nonlinear=True, seed=14)
        x = ds.inputs()
        extra = ds.target() - x @ ds.meta["w"]
        corr = x.T @ (extra - extra.mean()) / len(extra)
        assert np.max(np.abs(corr)) < 0.02

    def test_invalid_args(self):
        with pytest.raises(InvalidInputError):
            synth_generate(n=0, n_vars=2)
        with pytest.raises(InvalidInputError):
            synth_generate(n=10, n_vars=2, noise=-0.5)

    @pytest.mark.parametrize("noise", [True, "0.1", None, np.nan, np.inf])
    def test_noise_must_be_a_finite_real(self, noise):
        # True once generated at noise 1.0, and "0.1" raised a bare TypeError
        with pytest.raises(InvalidInputError, match="noise must be"):
            synth_generate(n=10, n_vars=2, noise=noise)

    @pytest.mark.parametrize("noise", [0, np.float32(0.25), np.int64(1)])
    def test_noise_of_any_real_type(self, noise):
        ds = synth_generate(n=10, n_vars=2, noise=noise, seed=1)
        np.testing.assert_array_equal(
            ds.values, synth_generate(n=10, n_vars=2, noise=float(noise), seed=1).values
        )

    @pytest.mark.parametrize("n,n_vars", [
        (400.0, 4), (True, 4), ("400", 4), (400, 4.0), (400, False), (400, 0),
    ])
    def test_non_integer_counts_rejected(self, n, n_vars):
        # a float or bool count reached numpy, which raised a bare TypeError
        with pytest.raises(InvalidInputError, match="must be"):
            synth_generate(n=n, n_vars=n_vars)

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0, got -1"),
        (True, "seed must be an integer, got True"),
        (1.5, "seed must be an integer, got 1.5"),
    ], ids=["negative", "bool", "float"])
    def test_seed_must_be_a_non_negative_integer(self, seed, message):
        # -1 raised numpy's bare ValueError, True generated as seed 1 and 1.5
        # raised a bare TypeError
        with pytest.raises(InvalidInputError, match=message):
            synth_generate(n=10, n_vars=2, seed=seed)

    def test_numpy_integer_counts_accepted(self):
        a = synth_generate(n=np.int64(50), n_vars=np.int32(3), seed=2)
        np.testing.assert_array_equal(a.values, synth_generate(n=50, n_vars=3, seed=2).values)


class TestDatasetValidation:
    def test_target_must_be_outside_inputs(self):
        with pytest.raises(InvalidInputError):
            _toy_dataset(np.ones((5, 3)), n_inputs=2, target_col=1)

    def test_non_finite_rejected(self):
        v = np.ones((4, 2))
        v[2, 1] = np.nan
        with pytest.raises(InvalidInputError):
            _toy_dataset(v)
