"""Harness tests: metrics, stability indices, training runs, seed-repeated
sweeps over config grids and rank-ratio surveys."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from aopu import data, harness, linalg, survey
from aopu.augment import AugmentConfig, Augmenter
from aopu.data import Dataset, WindowedSet, batches, prepare_windows, synth_generate
from aopu.errors import ConstantTargetError, InvalidInputError
from aopu.harness import (
    RepeatReport,
    StabilityIndices,
    TrainConfig,
    make_model,
    metrics,
    stability_report,
    sweep,
    train_run,
)
from aopu.survey import RR_HIST_EDGES, _survey_ranks, rr_survey


class TestMetrics:
    def test_perfect_prediction(self):
        m = metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert (m.mse, m.mape, m.r2) == (0.0, 0.0, 1.0)

    def test_mean_predictor_r2_zero(self):
        y = np.array([1.0, 2.0, 3.0, 6.0])
        m = metrics(y, np.full(4, y.mean()))
        np.testing.assert_allclose(m.r2, 0.0, atol=1e-12)

    def test_hand_computed_instance(self):
        m = metrics([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        np.testing.assert_allclose(m.mse, 1.0 / 3.0, atol=1e-12)
        np.testing.assert_allclose(m.r2, 0.5, atol=1e-12)  # SSres=1, SStot=2
        np.testing.assert_allclose(m.mape, 100.0 / 9.0, atol=1e-10)

    def test_zero_target_distorts_mape_without_guard(self):
        m = metrics([0.0, 1.0], [0.5, 1.0])
        assert np.isinf(m.mape)

    def test_constant_target_undefined_r2(self):
        with pytest.raises(ConstantTargetError):
            metrics([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_length_checks(self):
        with pytest.raises(InvalidInputError):
            metrics([1.0], [1.0])
        with pytest.raises(InvalidInputError):
            metrics([1.0, 2.0], [1.0])


class TestStabilityReport:
    def test_monotone_curve_has_no_regression(self):
        s = stability_report([1.0, 0.8, 0.6, 0.5, 0.4])
        assert s.max_regression == 0.0

    def test_constant_curve(self):
        s = stability_report([0.3, 0.3, 0.3, 0.3])
        assert s == StabilityIndices(0.0, 0.0)

    def test_worked_example(self):
        s = stability_report([1.0, 0.5, 0.9, 0.4])
        np.testing.assert_allclose(s.max_regression, 0.4, atol=1e-15)
        np.testing.assert_allclose(s.fluctuation, 0.25, atol=1e-15)

    def test_too_short(self):
        with pytest.raises(InvalidInputError):
            stability_report([1.0, 0.5, 0.4])

    def test_overflowing_tail_reports_inf(self):
        # the squared deviations of the tail overflow; warnings are errors
        s = stability_report([1.0, 2.0, 1e200, 3e200])
        assert s.fluctuation == np.inf
        assert s.max_regression == 2e200

    def test_infinite_value_reported_as_is(self):
        s = stability_report([1.0, 2.0, 3.0, np.inf])
        assert not np.isfinite(s.fluctuation)
        assert s.max_regression == np.inf

    @pytest.mark.parametrize(
        "curve", [[1.0, np.inf, np.inf, np.inf], [1.0, 2.0, np.nan, 3.0]]
    )
    def test_non_finite_step_never_reports_finite_regression(self, curve):
        # np.diff gives a nan step (inf - inf, or a nan value), and a
        # maximum that skipped it would read 0.0
        s = stability_report(curve)
        assert not np.isfinite(s.max_regression)


class TestTrainConfig:
    def test_default_learning_rates(self):
        # lr=None takes the model's DEFAULT_LR
        aug = Augmenter(AugmentConfig(input_dim=2, hidden=0))
        assert make_model(TrainConfig(model="aopu"), aug).lr == 1.0
        assert make_model(TrainConfig(model="rvflnn"), aug).lr == 0.005
        assert make_model(TrainConfig(model="rvflnn", lr=0.1), aug).lr == 0.1

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            TrainConfig(model="transformer")
        with pytest.raises(InvalidInputError):
            TrainConfig(strategy="middle")
        with pytest.raises(InvalidInputError):
            TrainConfig(bs=0)
        for lr in (-1.0, np.nan, np.inf):
            with pytest.raises(InvalidInputError, match="lr must be positive"):
                TrainConfig(lr=lr)

    @pytest.mark.parametrize("kw, message", [
        ({"activation": "nosuch"}, "unknown activation 'nosuch'"),
        ({"hidden": 0, "layer_norm": True}, "layer_norm requires a hidden block"),
        ({"hidden": -1}, "hidden must be >= 0, got -1"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ], ids=["activation", "layer-norm", "hidden", "seed"])
    def test_feature_map_checked_at_construction(self, kw, message):
        # an unknown activation once passed until train_run built the map
        with pytest.raises(InvalidInputError, match=message):
            TrainConfig(**kw)

    @pytest.mark.parametrize("lr", [True, "1", 1j])
    def test_lr_must_be_a_real_number(self, lr):
        # True once trained at lr 1.0 with the manifest echoing "lr": true,
        # and "1" raised a bare TypeError
        with pytest.raises(InvalidInputError, match="lr must be a real number"):
            TrainConfig(lr=lr)

    @pytest.mark.parametrize("lr", [None, 2, 0.5, np.float32(0.5), np.int64(2)])
    def test_lr_of_any_real_type(self, lr):
        aug = Augmenter(AugmentConfig(input_dim=2, hidden=0))
        model = make_model(TrainConfig(lr=lr), aug)
        assert model.lr == (1.0 if lr is None else float(lr))
        assert type(model.lr) is float

    @pytest.mark.parametrize("field", ["bs", "seq", "hidden", "epochs"])
    @pytest.mark.parametrize("value", [16.0, 4.5, 2.5, True, np.float64(8.0), "16"])
    def test_non_integer_shape_rejected(self, field, value):
        with pytest.raises(InvalidInputError, match=f"{field} must be an integer"):
            TrainConfig(**{field: value})

    def test_bool_batch_size_does_not_train(self):
        # True once trained at bs 1
        with pytest.raises(InvalidInputError, match="bs must be an integer, got True"):
            _small_config(bs=True)

    def test_bool_seed_does_not_train(self, monkeypatch):
        # True once trained as seed 1
        with pytest.raises(InvalidInputError, match="seed must be an integer, got True"):
            _small_config(seed=True)
        calls = []
        monkeypatch.setattr("aopu.harness.train_run", lambda ds, c: calls.append(c))
        ds = synth_generate(n=200, n_vars=3, seed=0)
        with pytest.raises(InvalidInputError, match="seed must be an integer, got True"):
            sweep(ds, _small_config(), {}, [0, True])
        assert calls == []

    def test_numpy_integer_shape_accepted(self):
        ds = synth_generate(n=200, n_vars=3, seed=0)
        config = _small_config(
            bs=np.int64(8), seq=np.int32(4), hidden=np.int64(16), epochs=np.int16(2)
        )
        report, plain = train_run(ds, config), train_run(ds, _small_config(epochs=2))
        assert report.n_iterations == plain.n_iterations == 2 * (118 // 8)
        assert report.epoch_weight_hashes == plain.epoch_weight_hashes

    @pytest.mark.parametrize("seed", (-1, 1.5))
    def test_seed_must_be_a_non_negative_integer(self, seed):
        ds = synth_generate(n=200, n_vars=3, seed=0)
        with pytest.raises(InvalidInputError, match="seed must be"):
            train_run(ds, _small_config(seed=seed))
        with pytest.raises(InvalidInputError, match="seed must be"):
            rr_survey(ds, bs_grid=[8], seq_grid=[2], hidden=4, seed=seed)


def _small_config(**kw):
    base = dict(
        model="aopu", bs=8, seq=4, hidden=16,
        epochs=6, seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def small_ds():
    return synth_generate(n=500, n_vars=4, noise=0.2, nonlinear=True, seed=3)


class TestTrainRun:
    def test_report_is_bit_deterministic(self, small_ds):
        cfg = _small_config()
        a = train_run(small_ds, cfg)
        b = train_run(small_ds, cfg)
        assert a.to_dict() == b.to_dict()
        assert a.epoch_weight_hashes == b.epoch_weight_hashes

    def test_validation_best_never_worse_than_final(self, small_ds):
        # lr 32 diverges mid-epoch, after five epoch ends
        for seed in (0, 1, 2):
            for model, lr in (("aopu", None), ("rvflnn", None), ("aopu", 32.0)):
                rep = train_run(small_ds, _small_config(seed=seed, model=model, lr=lr))
                assert rep.diverged == (lr is not None)
                assert rep.val_mse_best <= rep.val_mse_final
                assert rep.caveat  # val/test transfer caveat is recorded

    def test_strategies_select_different_checkpoints(self, small_ds):
        fin = train_run(small_ds, _small_config(strategy="final"))
        best = train_run(small_ds, _small_config(strategy="best"))
        # identical trajectory, different selection
        assert fin.epoch_weight_hashes == best.epoch_weight_hashes
        assert best.best_epoch >= 0

    def test_noise_free_linear_system_is_solved(self):
        ds = synth_generate(n=320, n_vars=6, noise=0.0, seed=4)
        for strategy in ("best", "final"):
            cfg = TrainConfig(
                model="aopu", bs=4, seq=1, hidden=0, epochs=40,
                strategy=strategy, seed=0,
            )
            rep = train_run(ds, cfg)
            assert rep.mse < 1e-6
            assert rep.val_mse_final < 1e-6

    def test_curve_cadence_and_epoch_log(self, small_ds):
        cfg = _small_config(epochs=3)
        rep = train_run(small_ds, cfg)
        train, _, _ = prepare_windows(small_ds, cfg.seq)
        per_epoch = train.n_windows // cfg.bs
        total = per_epoch * cfg.epochs
        assert rep.n_iterations == total
        assert [it for it, _ in rep.val_curve] == [
            k for k in range(50, total + 1, 50)
        ]
        assert len(rep.val_by_epoch) == cfg.epochs
        assert len(rep.epoch_weight_hashes) == cfg.epochs

    def test_divergence_recorded_with_rank_ratio(self):
        # un-standardized astronomic targets overflow the squared loss
        ds = synth_generate(n=200, n_vars=3, noise=0.0, seed=5)
        huge = ds.values.copy()
        huge[:, 3] *= 1e180
        from dataclasses import replace

        ds_huge = replace(ds, values=huge)
        cfg = TrainConfig(
            model="aopu", bs=8, seq=2, hidden=8, epochs=2, seed=0,
            standardize=False,
        )
        rep = train_run(ds_huge, cfg)
        assert rep.diverged
        assert rep.divergence_rr == 1.0
        assert rep.n_iterations == 0  # aborted on the first batch
        # the divergent batch still counts toward the run's rank ratios
        assert rep.min_train_rr == 1.0
        assert rep.mean_train_rr == 1.0

    def test_aopu_training_takes_no_separate_rank(self, small_ds, monkeypatch):
        # the step reports each batch's rank ratio off its own factorization
        def no_rank(*args, **kwargs):
            raise AssertionError("train_run took a separate rank")

        monkeypatch.setattr(linalg, "rank", no_rank)
        rep = train_run(small_ds, _small_config(epochs=1))
        assert rep.n_iterations > 0
        assert rep.min_train_rr == rep.mean_train_rr == 1.0

    def test_low_rr_flag(self):
        ds = synth_generate(n=1200, n_vars=4, noise=0.2, nonlinear=True, seed=6)
        cfg = TrainConfig(model="aopu", bs=160, seq=4, hidden=0, epochs=2, seed=0)
        rep = train_run(ds, cfg)
        assert rep.mean_train_rr == pytest.approx(16 / 160)
        assert rep.low_rr_warning

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"bs": 100000}, "batch size 100000 leaves no full training batch at seq 4"),
            ({"seq": 500}, "split of 1 windows leaves an empty partition"),
            ({"seq": 501}, r"seq must be in \[1, 500\], got 501"),
        ],
        ids=["bs", "empty-partition", "seq"],
    )
    def test_bad_shape_raises_before_windowing(
        self, small_ds, monkeypatch, config, message
    ):
        calls = []
        monkeypatch.setattr(
            "aopu.harness.prepare_windows", lambda *args: calls.append(args)
        )
        with pytest.raises(InvalidInputError, match=message):
            train_run(small_ds, _small_config(**config))
        assert calls == []


class TestCheckpoints:
    """``_Checkpoints.select``: the minimum over the epoch ends and then the
    last record (epoch -1), the earlier on a tie; a NaN MSE reads inf."""

    @pytest.fixture
    def checkpoints(self, small_ds):
        val = prepare_windows(small_ds, 4)[1]
        return harness._Checkpoints(
            Augmenter(AugmentConfig(input_dim=16, hidden=0)), val, 8
        )

    @pytest.fixture
    def fit(self, small_ds):
        """Least-squares weights on the validation split, which every other
        weight validates strictly worse than."""
        val = prepare_windows(small_ds, 4)[1]
        return np.linalg.lstsq(val.features.T, val.targets, rcond=None)[0]

    ZERO = np.zeros((16, 1))
    HUGE = np.full((16, 1), 1e300)  # the squared residuals overflow: inf
    NAN = np.full((16, 1), np.nan)

    def test_earlier_epoch_end_wins_a_tie(self, checkpoints):
        first, again = self.ZERO.copy(), self.ZERO.copy()
        for w in (first, again):
            checkpoints.record(w, None, True)
        checkpoints.record(self.HUGE)
        mse, epoch, w = checkpoints.select()
        assert checkpoints.by_epoch[0] == checkpoints.by_epoch[1] == mse
        assert epoch == 0 and w is first

    def test_final_copy_of_the_best_epoch_end_loses_the_tie(self, checkpoints, fit):
        checkpoints.record(fit, None, True)
        checkpoints.record(self.ZERO, None, True)
        checkpoints.record(fit.copy())
        mse, epoch, w = checkpoints.select()
        assert mse == checkpoints.last and epoch == 0 and w is fit

    def test_final_wins_when_strictly_better(self, checkpoints, fit):
        checkpoints.record(self.ZERO, 50, True)
        checkpoints.record(fit)
        mse, epoch, w = checkpoints.select()
        assert mse == checkpoints.last < checkpoints.by_epoch[0]
        assert epoch == -1 and w is fit

    def test_final_without_an_epoch_end(self, checkpoints):
        checkpoints.record(self.ZERO, 50)
        checkpoints.record(self.HUGE)
        mse, epoch, w = checkpoints.select()
        assert mse == np.inf and epoch == -1 and w is self.HUGE
        assert checkpoints.by_epoch == [] and len(checkpoints.curve) == 1

    def test_recording_the_last_array_again_is_a_no_op(self, checkpoints):
        checkpoints.record(self.ZERO, 50, True)
        checkpoints.record(self.ZERO)
        assert len(checkpoints._pending) == 1
        mse, epoch, w = checkpoints.select()
        assert mse == checkpoints.last and epoch == 0 and w is self.ZERO
        assert len(checkpoints.curve) == len(checkpoints.by_epoch) == 1

    def test_nan_reads_inf(self, checkpoints):
        # so a NaN final ties with an overflowing epoch end, which wins
        checkpoints.record(self.HUGE, 50, True)
        checkpoints.record(self.NAN)
        mse, epoch, w = checkpoints.select()
        assert mse == checkpoints.last == np.inf and epoch == 0 and w is self.HUGE
        assert checkpoints.curve == [(50, np.inf)]

    def test_a_number_beats_a_nan_epoch_end(self, checkpoints):
        checkpoints.record(self.NAN, None, True)
        checkpoints.record(self.ZERO)
        mse, epoch, w = checkpoints.select()
        assert checkpoints.by_epoch == [np.inf] and mse < np.inf
        assert epoch == -1 and w is self.ZERO


class TestSweep:
    def test_duplicated_seed_zero_std(self, small_ds):
        (rep,) = sweep(small_ds, _small_config(epochs=3), {}, [7, 7])
        assert rep.std["mse"] == 0.0
        assert rep.std["r2"] == 0.0

    def test_mean_std_layout(self, small_ds):
        (rep,) = sweep(small_ds, _small_config(epochs=3), {}, [0, 1, 2])
        cell = rep.cell("r2")
        assert "±" in cell
        mean_str, std_str = cell.split("±")
        np.testing.assert_allclose(float(mean_str), rep.mean["r2"], atol=1e-4)
        np.testing.assert_allclose(float(std_str), rep.std["r2"], atol=1e-4)
        assert len(rep.runs) == 3

    def test_seed_variation_changes_runs(self, small_ds):
        (rep,) = sweep(small_ds, _small_config(epochs=3), {}, [0, 1])
        assert rep.runs[0].r2 != rep.runs[1].r2  # feature map + order vary

    def test_cell_is_mean_and_std_at_four_digits(self):
        runs = [
            SimpleNamespace(mse=mse, mape=1.0, r2=r2, diverged=False)
            for mse, r2 in ((1.0, 0.6148), (2.0, 0.5960))
        ]
        rep = RepeatReport(_small_config(), [0, 1], runs)
        assert rep.cell("r2") == "0.6054±0.0094"
        assert rep.cell("mse") == "1.5000±0.5000"

    def test_aggregates_skip_non_finite_runs(self):
        runs = [
            SimpleNamespace(mse=mse, mape=1.0, r2=0.5, diverged=diverged)
            for mse, diverged in ((1.0, False), (np.inf, True), (3.0, False))
        ]
        rep = RepeatReport(_small_config(), [4, 5, 6], runs)
        assert (rep.mean["mse"], rep.std["mse"]) == (2.0, 1.0)
        assert (rep.mean["r2"], rep.std["r2"]) == (0.5, 0.0)
        assert rep.diverged_seeds == [5]

    def test_grid_cells_first_key_outermost(self, small_ds):
        rows = sweep(
            small_ds, _small_config(epochs=2, seed=5),
            {"layer_norm": [False, True], "activation": ["tanh", "relu"]}, [0, 1],
        )
        assert [(r.config.layer_norm, r.config.activation) for r in rows] == [
            (False, "tanh"), (False, "relu"), (True, "tanh"), (True, "relu")
        ]
        for row in rows:
            assert row.config.seed == 0
            assert [r.config.seed for r in row.runs] == [0, 1]
            assert np.isfinite(row.mean["r2"])

    @pytest.mark.parametrize(
        "grid, seeds, message",
        [
            ({}, [0], "need at least 2 seeds, got 1"),
            ({"activation": []}, [0, 1], "grid key 'activation' has no values"),
            ({"width": [8]}, [0, 1], "grid key 'width' is not a TrainConfig field"),
            ({"seed": [3, 4]}, [0, 1], "seed is set by the seeds argument"),
        ],
        ids=["one-seed", "empty-values", "unknown-key", "seed-key"],
    )
    def test_rejected(self, small_ds, grid, seeds, message):
        with pytest.raises(InvalidInputError, match=message):
            sweep(small_ds, _small_config(), grid, seeds)

    @pytest.mark.parametrize(
        "config, grid, seeds, message",
        [
            ({}, {}, [0, 1, -1], "seed must be >= 0, got -1"),
            ({}, {"activation": ["tanh", "nosuch"]}, [0, 1], "unknown activation"),
            ({"hidden": 0}, {"layer_norm": [False, True]}, [0, 1],
             "layer_norm requires a hidden block"),
            ({}, {"bs": [16, 100000]}, [0, 1],
             "batch size 100000 leaves no full training batch at seq 4"),
            ({"bs": 100}, {"seq": [4, 400]}, [0, 1],
             "batch size 100 leaves no full training batch at seq 400"),
            ({}, {"seq": [4, 500]}, [0, 1],
             "split of 1 windows leaves an empty partition"),
            ({}, {"bs": [16, 32.0]}, [0, 1], "bs must be an integer, got 32.0"),
        ],
        ids=["negative-last-seed", "unknown-last-activation", "layer-norm-no-hidden",
             "bs-past-the-split", "seq-past-the-split", "seq-empty-partition",
             "float-last-bs"],
    )
    def test_bad_last_cell_raises_before_any_run(
        self, small_ds, monkeypatch, config, grid, seeds, message
    ):
        calls = []
        monkeypatch.setattr("aopu.harness.train_run", lambda ds, c: calls.append(c))
        with pytest.raises(InvalidInputError, match=message):
            sweep(small_ds, _small_config(**config), grid, seeds)
        assert calls == []


@pytest.fixture(scope="module")
def ar_ds():
    return synth_generate(n=1500, n_vars=5, noise=0.2, seed=8)


class TestRrSurvey:

    def test_grid_trends_without_hidden_block(self, ar_ds):
        summaries = rr_survey(
            ar_ds, bs_grid=[16, 64, 128], seq_grid=[2, 4, 8], hidden=0
        )
        by_key = {(s.bs, s.seq): s.mean for s in summaries}
        for seq in (2, 4, 8):
            assert by_key[(16, seq)] >= by_key[(64, seq)] >= by_key[(128, seq)]
        for bs in (16, 64, 128):
            assert by_key[(bs, 2)] <= by_key[(bs, 4)] <= by_key[(bs, 8)]
        assert by_key[(128, 2)] < by_key[(16, 2)]  # strict in batch size
        assert by_key[(128, 2)] < by_key[(128, 8)]  # strict in window length

    def test_batch_of_one_has_unit_rank_ratio(self, ar_ds):
        summaries = rr_survey(ar_ds, bs_grid=[1], seq_grid=[2], hidden=4)
        assert summaries[0].mean == 1.0
        assert summaries[0].std == 0.0

    def test_histogram_mass_equals_count(self, ar_ds):
        for s in rr_survey(ar_ds, bs_grid=[16, 64], seq_grid=[2, 4], hidden=0):
            assert sum(s.hist) == s.count
            assert 0.0 <= s.mean <= 1.0
            assert len(s.hist) == len(RR_HIST_EDGES) - 1

    def test_empty_grid_rejected(self, ar_ds):
        with pytest.raises(InvalidInputError):
            rr_survey(ar_ds, bs_grid=[], seq_grid=[2])

    @pytest.mark.parametrize(
        "bs, message",
        [
            (0, "batch size must be >= 1, got 0"),
            (-1, "batch size must be >= 1, got -1"),
            (5000, "batch size 5000 leaves no full training batch at seq 2"),
        ],
    )
    def test_bad_batch_size_rejected(self, ar_ds, bs, message):
        with pytest.raises(InvalidInputError, match=message):
            rr_survey(ar_ds, bs_grid=[16, bs], seq_grid=[2], hidden=0)

    @pytest.mark.parametrize(
        "bs_grid, seq_grid, seed, message",
        [
            ([16.0], [2], 0, "batch size must be an integer, got 16.0"),
            ([16, True], [2], 0, "batch size must be an integer, got True"),
            ([16], [2, 4.0], 0, "seq must be an integer, got 4.0"),
            ([16], [False], 0, "seq must be an integer, got False"),
            ([16], [2], True, "seed must be an integer, got True"),
        ],
        ids=["float-bs", "bool-bs", "float-seq", "bool-seq", "bool-seed"],
    )
    def test_non_integer_grid_rejected_before_the_draw(
        self, ar_ds, monkeypatch, bs_grid, seq_grid, seed, message
    ):
        # nothing is surveyed and G, (5 * 4) x 2048 at most, is not drawn
        calls = []
        monkeypatch.setattr(
            "aopu.survey._survey_ranks", lambda *args: calls.append(args)
        )
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match=message):
                rr_survey(ar_ds, bs_grid, seq_grid, hidden=2048, seed=seed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert calls == []
        assert peak < 2**18

    @pytest.mark.parametrize(
        "seq, message",
        [
            ("rows+1", r"seq must be in \[1, 1500\], got 1501"),
            (10**7, r"seq must be in \[1, 1500\], got 10000000"),
            (0, "seq must be >= 1, got 0"),
        ],
        ids=["rows+1", "10000000", "0"],
    )
    def test_bad_seq_rejected_before_the_draw(self, ar_ds, seq, message):
        # the whole grid is checked before G is drawn for its longest
        # window, which here would be (5 * seq) x 2048
        seq = ar_ds.n_rows + 1 if seq == "rows+1" else seq
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match=message):
                rr_survey(ar_ds, bs_grid=[16], seq_grid=[2, seq], hidden=2048)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_batch_too_large_for_a_later_seq_rejected_before_any_survey(
        self, ar_ds, monkeypatch
    ):
        # bs 800 fits the 899 training windows of seq 2 but not the 780 of
        # seq 200; nothing is surveyed and G, (5 * 200) x 2048, is not drawn
        calls = []
        monkeypatch.setattr(
            "aopu.survey._survey_ranks", lambda *args: calls.append(args)
        )
        tracemalloc.start()
        try:
            with pytest.raises(
                InvalidInputError,
                match="batch size 800 leaves no full training batch at seq 200",
            ):
                rr_survey(ar_ds, bs_grid=[16, 800], seq_grid=[2, 200], hidden=2048)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert calls == []
        assert peak < 2**20

    @pytest.mark.parametrize("seq_grid", [(4, 2, 3), (3, 3, 2)])
    @pytest.mark.parametrize("hidden", [8, 64])
    def test_unsorted_seq_grid_equals_per_seq_maps(self, ar_ds, seq_grid, hidden):
        # one G is drawn for the longest window and each seq takes a prefix
        # of it; a survey of one seq draws that seq's own G
        bs_grid = (16, 24, 40)
        got = rr_survey(ar_ds, bs_grid, seq_grid, hidden=hidden, seed=3)
        want = [
            cell
            for seq in seq_grid
            for cell in rr_survey(ar_ds, bs_grid, [seq], hidden=hidden, seed=3)
        ]
        assert got == want
        if hidden == 8:
            assert min(c.mean for c in got) < 1.0

    def test_repeated_batch_size_keeps_its_own_cell(self, ar_ds):
        for hidden in (0, 48):  # 10 or 58 augmented rows: wide or tall batches
            (single,) = rr_survey(ar_ds, bs_grid=[24], seq_grid=[2], hidden=hidden)
            first, _, last = rr_survey(
                ar_ds, bs_grid=[24, 16, 24], seq_grid=[2], hidden=hidden
            )
            assert first == last == single

    @pytest.mark.parametrize(
        "hidden, layer_norm", [(0, False), (32, True)], ids=["hidden0", "hidden32-ln"]
    )
    def test_cells_equal_per_batch_reference(self, ar_ds, hidden, layer_norm):
        # batch sizes that do not divide one another, so batches of different
        # sizes share windows without sharing boundaries; at hidden 0 most
        # batches are wide and rank-deficient, at hidden 32 the 64-column ones
        bs_grid, seq_grid = (16, 24, 64), (2, 4)
        got = rr_survey(
            ar_ds, bs_grid, seq_grid, hidden=hidden, layer_norm=layer_norm, seed=3
        )
        want = []
        for seq in seq_grid:
            train, _, _ = prepare_windows(ar_ds, seq)
            aug = Augmenter(
                AugmentConfig(
                    input_dim=train.dim, hidden=hidden, layer_norm=layer_norm, seed=3
                )
            )
            for bs in bs_grid:
                rrs = np.asarray(
                    [
                        linalg.rank(aug.augment(f)) / bs
                        for f, _ in batches(train, bs, shuffle=True, seed=3)
                    ]
                )
                hist = np.histogram(rrs, bins=RR_HIST_EDGES)[0]
                want.append(
                    (bs, seq, rrs.size, float(rrs.mean()), float(rrs.std()),
                     tuple(int(c) for c in hist))
                )
        assert [(c.bs, c.seq, c.count, c.mean, c.std, c.hist) for c in got] == want
        if hidden == 0:
            assert min(c.mean for c in got) < 1.0

    def test_each_window_augmented_at_most_once(self, ar_ds, monkeypatch):
        augmented = {}  # input rows (one count per seq) -> augmented columns
        original = Augmenter.augment

        def recording(self, x):
            cols = augmented.setdefault(x.shape[0], [])
            cols += [c.tobytes() for c in np.asarray(x, dtype=np.float64).T]
            return original(self, x)

        monkeypatch.setattr(Augmenter, "augment", recording)
        seq_grid = (2, 4)
        rr_survey(ar_ds, bs_grid=(16, 24, 64), seq_grid=seq_grid, hidden=8)
        for seq in seq_grid:
            train, _, _ = prepare_windows(ar_ds, seq)
            cols = augmented[train.dim]
            assert len(set(cols)) == len(cols)
            assert len(cols) <= train.n_windows


def test_benchmark_names_on_harness_are_their_owners_objects():
    """The benchmark looks the survey and the window preparation up on
    ``harness``; each name there is the owning module's own object, so a
    wrapper installed on it reaches the survey's calls too."""
    assert harness.rr_survey is survey.rr_survey
    assert harness.RR_HIST_EDGES is survey.RR_HIST_EDGES
    assert harness.prepare_windows is data.prepare_windows


def _per_batch_ranks(train, augmenter, sizes, seed):
    """linalg.rank of each shuffled batch of every size, augmented whole."""
    return {
        bs: [
            linalg.rank(augmenter.augment(f))
            for f, _ in batches(train, bs, shuffle=True, seed=seed)
        ]
        for bs in sizes
    }


class TestSurveyRanks:
    """The survey's per-batch ranks, from the certified blocks of the largest
    batch size, the Grams of smaller batches or an SVD, equal a brute-force
    rank of each batch."""

    def _setup(self, ds, hidden, activation="tanh"):
        train, _, _ = prepare_windows(ds, 2)  # 10 input rows
        aug = Augmenter(
            AugmentConfig(
                input_dim=train.dim, hidden=hidden, activation=activation, seed=3
            )
        )
        return train, aug

    @pytest.mark.parametrize(
        "sizes, hidden",
        [
            # 58 rows: every batch tall; 16, 24 and 40 do not nest, so
            # batches of 16 and 24 straddle the blocks of 40
            ((16, 24, 40), 48),
            ((16, 24, 64), 0),  # 10 rows: every batch wide
            ((8, 12, 16, 40), 12),  # 22 rows: tall up to 16, wide at 40
        ],
        ids=["tall", "wide", "mixed"],
    )
    def test_equals_per_batch_reference(self, ar_ds, sizes, hidden):
        train, aug = self._setup(ar_ds, hidden)
        got = _survey_ranks(train, aug, set(sizes), 3)
        assert got == _per_batch_ranks(train, aug, sizes, 3)

    def test_rank_deficient_tall_batches(self, ar_ds):
        # every fifth window repeats the one before it, so a tall batch that
        # draws both copies fails its certificate and is ranked by the SVD
        train, aug = self._setup(ar_ds, 48)
        features = train.features.copy()
        copies = features[:, 1::5].shape[1]
        features[:, 1::5] = features[:, 0::5][:, :copies]
        train = WindowedSet(features, train.targets)
        sizes = (16, 24, 40)
        want = _per_batch_ranks(train, aug, sizes, 3)
        for bs in sizes:
            assert min(want[bs]) < bs == max(want[bs])
        assert _survey_ranks(train, aug, set(sizes), 3) == want

    @pytest.mark.parametrize("hidden", [48, 64], ids=["every-row", "hidden-rows"])
    def test_certified_grid_joins_nothing(self, ar_ds, monkeypatch, hidden):
        # each largest batch is certified by one Cholesky of its own Gram,
        # and so is each smaller batch that is not inside one of them; none
        # is copied into a joined array
        train, aug = self._setup(ar_ds, hidden)
        sizes = (16, 24, 40)
        certified = []
        original = linalg._certificate

        def recording(gram, rows, *bound):
            certified.append(gram.shape)
            return original(gram, rows, *bound)

        def refuse(*args, **kwargs):
            raise AssertionError("np.hstack called")

        monkeypatch.setattr(linalg, "_certificate", recording)
        monkeypatch.setattr(np, "hstack", refuse)
        got = _survey_ranks(train, aug, set(sizes), 3)
        n = train.n_windows
        for bs in sizes:
            assert got[bs] == [bs] * (n // bs)
        blocks = n // 40
        outside = [
            bs
            for bs in (16, 24)
            for first in range(0, n - bs + 1, bs)
            if first // 40 != (first + bs - 1) // 40 or first // 40 >= blocks
        ]
        assert sorted(certified) == sorted(
            [(40, 40)] * blocks + [(bs, bs) for bs in outside]
        )

    @pytest.mark.parametrize("seq", [2, 4])
    def test_tail_is_certified_like_a_block(self, monkeypatch, seq):
        # blocks of 96 have fewer Gram rows (74 or 84) than columns, so each
        # batch of 8 or 12 in them takes its own certificate, and a batch of
        # 96 is ranked through its row Gram; the narrower tail has more rows
        # than columns, so its batches share one certificate
        ds = synth_generate(n=400, n_vars=5, noise=0.3, seed=0)
        train, _, _ = prepare_windows(ds, seq)
        aug = Augmenter(AugmentConfig(input_dim=train.dim, hidden=64, seed=3))
        sizes = (8, 12, 96)
        want = _per_batch_ranks(train, aug, sizes, 3)
        certified = []
        original = linalg._certificate

        def recording(gram, rows, *bound):
            certified.append(gram.shape)
            return original(gram, rows, *bound)

        monkeypatch.setattr(linalg, "_certificate", recording)
        assert _survey_ranks(train, aug, set(sizes), 3) == want
        n = train.n_windows
        blocks = n // 96
        tail = max(n - n % bs for bs in sizes) - 96 * blocks
        in_blocks = [(bs, bs) for bs in (8, 12) for _ in range(96 * blocks // bs)]
        rows = train.dim + 64
        assert sorted(certified) == sorted(
            in_blocks + [(rows, rows)] * blocks + [(tail, tail)]
        )
        assert sum(tail // bs for bs in (8, 12)) == 8

    def test_tail_without_a_batch_is_not_certified(self, ar_ds, monkeypatch):
        # with sizes 24 and 40 the split's last 8 columns lie past the last
        # block of 40, and only a batch of 24 that straddles into them uses
        # them, so no Gram narrower than 24 is certified
        train, aug = self._setup(ar_ds, 48)
        sizes = (24, 40)
        want = _per_batch_ranks(train, aug, sizes, 3)
        n = train.n_windows
        assert max(n - n % bs for bs in sizes) % 40 == 8
        certified = []
        original = linalg._certificate

        def recording(gram, rows, *bound):
            certified.append(len(gram))
            return original(gram, rows, *bound)

        monkeypatch.setattr(linalg, "_certificate", recording)
        assert _survey_ranks(train, aug, set(sizes), 3) == want
        assert min(certified) == 24

    def test_overflowing_gram_falls_back_to_rank(self, ar_ds):
        # a window of 1e200 augments to finite columns whose Gram overflows,
        # so its batches are joined and ranked by the SVD, without a warning
        train, aug = self._setup(ar_ds, 48)
        features = train.features.copy()
        features[:, 7] = 1e200
        train = WindowedSet(features, train.targets)
        sizes = (16, 24, 40)
        assert _survey_ranks(train, aug, set(sizes), 3) == _per_batch_ranks(
            train, aug, sizes, 3
        )

    @pytest.mark.parametrize("case", ["plain", "duplicated", "overflow"])
    @pytest.mark.parametrize("activation", ["tanh", "relu", "hardshrink", "sigmoid"])
    def test_leading_rows_equal_per_batch_reference(
        self, ar_ds, monkeypatch, activation, case
    ):
        # hidden 64 > max(sizes) + 8 = 48: each block is augmented with its
        # first 48 hidden units only, and a batch its hidden rows cannot
        # certify (a repeated window, or a 1e200 one whose raw rows' norm
        # overflows) is augmented whole and ranked by the SVD
        train, aug = self._setup(ar_ds, 64, activation)
        features = train.features.copy()
        if case == "duplicated":
            copies = features[:, 1::5].shape[1]
            features[:, 1::5] = features[:, 0::5][:, :copies]
        elif case == "overflow":
            features[:, 7] = 1e200
        train = WindowedSet(features, train.targets)
        sizes = (16, 24, 40)
        want = _per_batch_ranks(train, aug, sizes, 3)
        hidden_units = []
        original = Augmenter.augment

        def recording(self, x):
            hidden_units.append(self.config.hidden)
            return original(self, x)

        monkeypatch.setattr(Augmenter, "augment", recording)
        assert _survey_ranks(train, aug, set(sizes), 3) == want
        if case == "plain":
            assert set(hidden_units) == {48}
        else:
            assert set(hidden_units) == {48, 64}
        if case == "duplicated":
            for bs in sizes:
                assert min(want[bs]) < bs == max(want[bs])

    def test_huge_skipped_units_fail_the_leading_rows(self, ar_ds):
        # hidden units 48 to 63 share one weight column scaled by 1e16, so
        # each batch's SVD cutoff exceeds every singular value of its leading
        # rows; the bound on the skipped rows keeps them from certifying it
        train, aug = self._setup(ar_ds, 64, "relu")
        g = np.array(aug.g_hat)
        g[:, 48:] = 1e16 * g[:, :1]
        aug.g_hat = g
        sizes = (16, 24, 40)
        want = _per_batch_ranks(train, aug, sizes, 3)
        for bs in sizes:
            assert max(want[bs]) < bs
        assert _survey_ranks(train, aug, set(sizes), 3) == want

    def test_layer_norm_augments_every_hidden_unit(self, ar_ds, monkeypatch):
        # layer norm couples all hidden rows, so no leading rows are taken
        train, _ = self._setup(ar_ds, 0)
        aug = Augmenter(
            AugmentConfig(input_dim=train.dim, hidden=48, layer_norm=True, seed=3)
        )
        sizes = (16, 24, 40)
        want = _per_batch_ranks(train, aug, sizes, 3)
        hidden_units = []
        original = Augmenter.augment

        def recording(self, x):
            hidden_units.append(self.config.hidden)
            return original(self, x)

        monkeypatch.setattr(Augmenter, "augment", recording)
        assert _survey_ranks(train, aug, set(sizes), 3) == want
        assert set(hidden_units) == {48}

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    def test_overflowing_entry_rejected(self, ar_ds):
        # an input of 1e308 overflows the relu hidden block to inf (augment
        # warns); the batch's Gram trace is then inf, so it fails the
        # certificate and linalg.rank rejects it
        train, aug = self._setup(ar_ds, 48, activation="relu")
        features = train.features.copy()
        features[0, 7] = 1e308
        train = WindowedSet(features, train.targets)
        assert not np.all(np.isfinite(aug.augment(features[:, 7:8])))
        with pytest.raises(InvalidInputError, match="non-finite"):
            _survey_ranks(train, aug, {16, 24}, 3)


    @staticmethod
    def _record_augments(monkeypatch):
        """(hidden units, columns) of every ``Augmenter.augment`` call."""
        calls = []
        original = Augmenter.augment

        def recording(self, x):
            calls.append((self.config.hidden, x.shape[1]))
            return original(self, x)

        monkeypatch.setattr(Augmenter, "augment", recording)
        return calls

    def test_duplicated_window_in_one_block(self, ar_ds, monkeypatch):
        # two windows of the first largest batch are equal, and both lie in
        # its first 16- and 24-column batches: the block fails its
        # certificate, the three batches that hold both copies are augmented
        # whole and ranked by the SVD, and each other batch inside the block
        # is certified by its own slice of the block's Gram
        train, aug = self._setup(ar_ds, 64)
        order = np.random.default_rng(3).permutation(train.n_windows)
        features = train.features.copy()
        features[:, order[5]] = features[:, order[2]]
        train = WindowedSet(features, train.targets)
        sizes = (16, 24, 40)
        want = _per_batch_ranks(train, aug, sizes, 3)
        assert [want[bs][0] for bs in sizes] == [15, 23, 39]
        calls = self._record_augments(monkeypatch)
        assert _survey_ranks(train, aug, set(sizes), 3) == want
        assert sorted(cols for units, cols in calls if units == 64) == [16, 24, 40]

    @pytest.mark.parametrize("hidden", [48, 64], ids=["every-row", "hidden-rows"])
    def test_straddling_and_tail_batches(self, ar_ds, monkeypatch, hidden):
        # the blocks of 40 end at 880 of the 899 windows, so 24-column
        # batches straddle two blocks, and the last 16-column batch (880 to
        # 896) lies in the tail; a window repeated at positions 30 and 45 of
        # the shuffled split leaves the straddling batch 24-48 rank
        # deficient, and one repeated at 882 and 890 the tail batch
        train, aug = self._setup(ar_ds, hidden)
        n = train.n_windows
        assert (n - n % 40, n - n % 24, n - n % 16) == (880, 888, 896)
        order = np.random.default_rng(3).permutation(n)
        features = train.features.copy()
        features[:, order[45]] = features[:, order[30]]
        features[:, order[890]] = features[:, order[882]]
        train = WindowedSet(features, train.targets)
        sizes = (16, 24, 40)
        want = _per_batch_ranks(train, aug, sizes, 3)
        short = {(bs, i) for bs in sizes for i, r in enumerate(want[bs]) if r < bs}
        assert short == {(24, 1), (16, 55)}
        ranked = []
        original = linalg.rank

        def recording(m):
            ranked.append(m.shape[1])
            return original(m)

        monkeypatch.setattr(linalg, "rank", recording)
        assert _survey_ranks(train, aug, set(sizes), 3) == want
        assert sorted(ranked) == [16, 24]

    @pytest.mark.parametrize("case", ["overflow", "finite"])
    def test_huge_raw_window_fails_the_hidden_rows(self, ar_ds, monkeypatch, case):
        # a window of 1e200 or 1e150 saturates its tanh hidden units, so the
        # Gram of the hidden rows stays finite and well conditioned; the
        # squared norm of its raw rows overflows or is huge, and with it the
        # SVD cutoff of each batch that holds the window, so those batches
        # are augmented whole and ranked by the SVD. In the finite case the
        # skipped hidden units have zero weights, so only the raw rows'
        # share of the bound keeps the hidden rows from certifying them
        train, aug = self._setup(ar_ds, 64)
        features = train.features.copy()
        features[:, 7] = 1e200 if case == "overflow" else 1e150
        if case == "finite":
            g = np.array(aug.g_hat)
            g[:, 48:] = 0.0
            aug.g_hat = g
        train = WindowedSet(features, train.targets)
        n = train.n_windows
        at = int(np.flatnonzero(np.random.default_rng(3).permutation(n) == 7)[0])
        sizes = (16, 24, 40)
        holding = sorted(bs for bs in sizes if at < n - n % bs)
        assert holding
        want = _per_batch_ranks(train, aug, sizes, 3)
        calls = self._record_augments(monkeypatch)
        assert _survey_ranks(train, aug, set(sizes), 3) == want
        assert sorted(cols for units, cols in calls if units == 64) == holding

    @pytest.mark.parametrize("inputs", ["smoothed-walk", "duplicated-input"])
    def test_correlated_inputs_take_no_fallback(self, ar_ds, monkeypatch, inputs):
        # windows of a smoothed random walk are nearly collinear, and a
        # duplicated input variable makes the raw rows rank deficient; the
        # hidden rows still certify every batch, so nothing is augmented
        # whole
        values = ar_ds.values.copy()
        if inputs == "smoothed-walk":
            walk = np.cumsum(np.random.default_rng(11).standard_normal((1507, 5)), 0)
            values[:, :5] = np.lib.stride_tricks.sliding_window_view(
                walk, 8, axis=0
            ).mean(axis=2)
        else:
            values[:, 1] = values[:, 0]
        ds = Dataset(values, ar_ds.columns, ar_ds.n_inputs, ar_ds.target_col)
        sizes = (16, 24, 40)
        for seq in (2, 4, 8):
            train, _, _ = prepare_windows(ds, seq)
            aug = Augmenter(AugmentConfig(input_dim=train.dim, hidden=64, seed=3))
            want = _per_batch_ranks(train, aug, sizes, 3)
            with monkeypatch.context() as patch:
                calls = self._record_augments(patch)
                assert _survey_ranks(train, aug, set(sizes), 3) == want
            assert calls and all(units == 48 for units, _ in calls)
