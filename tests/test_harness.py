"""Harness tests: metrics, stability indices, training runs, repeats,
rank-ratio surveys and the ablation sweep."""

import numpy as np
import pytest

from aopu import linalg
from aopu.augment import AugmentConfig, Augmenter
from aopu.data import WindowedSet, batches, synth_generate
from aopu.errors import ConstantTargetError, InvalidInputError
from aopu.harness import (
    RR_HIST_EDGES,
    StabilityIndices,
    TrainConfig,
    ablate,
    format_mean_std,
    metrics,
    _survey_ranks,
    prepare_windows,
    repeat_experiments,
    rr_survey,
    stability_report,
    train_run,
)


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
        assert TrainConfig(model="aopu").resolved_lr() == 1.0
        assert TrainConfig(model="rvflnn").resolved_lr() == 0.005
        assert TrainConfig(model="rvflnn", lr=0.1).resolved_lr() == 0.1

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

    @pytest.mark.parametrize("seed", (-1, 1.5))
    def test_seed_must_be_a_non_negative_integer(self, seed):
        ds = synth_generate(n=200, n_vars=3, seed=0)
        with pytest.raises(InvalidInputError, match="seed must be"):
            train_run(ds, _small_config(seed=seed))
        with pytest.raises(InvalidInputError, match="seed must be"):
            rr_survey(ds, bs_grid=[8], seq_grid=[2], hidden=4, seed=seed)


def _small_config(**kw):
    base = dict(
        dataset="synth", model="aopu", bs=8, seq=4, hidden=16,
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
        for seed in (0, 1, 2):
            for model in ("aopu", "rvflnn"):
                rep = train_run(small_ds, _small_config(seed=seed, model=model))
                assert rep.val_mse_best <= rep.val_mse_final + 1e-15
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

    def test_batch_larger_than_training_split_rejected(self, small_ds):
        with pytest.raises(InvalidInputError):
            train_run(small_ds, _small_config(bs=100000))


class TestRepeatExperiments:
    def test_duplicated_seed_zero_std(self, small_ds):
        rep = repeat_experiments(small_ds, _small_config(epochs=3), [7, 7])
        assert rep.std["mse"] == 0.0
        assert rep.std["r2"] == 0.0

    def test_needs_two_seeds(self, small_ds):
        with pytest.raises(InvalidInputError):
            repeat_experiments(small_ds, _small_config(), [0])

    def test_mean_std_layout(self, small_ds):
        rep = repeat_experiments(small_ds, _small_config(epochs=3), [0, 1, 2])
        cell = rep.cell("r2")
        assert "±" in cell
        mean_str, std_str = cell.split("±")
        np.testing.assert_allclose(float(mean_str), rep.mean["r2"], atol=1e-4)
        np.testing.assert_allclose(float(std_str), rep.std["r2"], atol=1e-4)
        assert len(rep.runs) == 3

    def test_seed_variation_changes_runs(self, small_ds):
        rep = repeat_experiments(small_ds, _small_config(epochs=3), [0, 1])
        assert rep.runs[0].r2 != rep.runs[1].r2  # feature map + order vary

    def test_format_mean_std(self):
        assert format_mean_std(0.6054, 0.0094) == "0.6054±0.0094"


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
    """The survey's per-batch ranks, from block Grams or joined segments,
    equal a brute-force rank of each batch."""

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
            # segments straddle the batches of the other sizes
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

    def test_certified_grid_joins_nothing(self, ar_ds, monkeypatch):
        # each tall batch is certified by one Cholesky of its own Gram, and
        # none is copied into a joined array
        train, aug = self._setup(ar_ds, 48)
        sizes = (16, 24, 40)
        certified = []
        original = linalg._certifies_full_rank

        def recording(gram, rows):
            certified.append(gram.shape)
            return original(gram, rows)

        def refuse(*args, **kwargs):
            raise AssertionError("np.hstack called")

        monkeypatch.setattr(linalg, "_certifies_full_rank", recording)
        monkeypatch.setattr(np, "hstack", refuse)
        got = _survey_ranks(train, aug, set(sizes), 3)
        for bs in sizes:
            assert got[bs] == [bs] * (train.n_windows // bs)
        assert sorted(certified) == sorted(
            (bs, bs) for bs in sizes for _ in range(train.n_windows // bs)
        )

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

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    def test_overflowing_entry_rejected(self, ar_ds):
        # an input of 1e308 overflows the relu hidden block to inf (augment
        # warns); the batch's Gram trace is then inf, so it is joined and
        # linalg.rank rejects it
        train, aug = self._setup(ar_ds, 48, activation="relu")
        features = train.features.copy()
        features[0, 7] = 1e308
        train = WindowedSet(features, train.targets)
        assert not np.all(np.isfinite(aug.augment(features[:, 7:8])))
        with pytest.raises(InvalidInputError, match="non-finite"):
            _survey_ranks(train, aug, {16, 24}, 3)


class TestAblate:
    def test_sweep_shape_and_cells(self, small_ds):
        rows = ablate(
            small_ds,
            activations=["tanh", "relu"],
            norm_flags=[False, True],
            config=_small_config(epochs=2),
            seeds=[0, 1],
        )
        assert len(rows) == 4
        combos = {(r.activation, r.layer_norm) for r in rows}
        assert combos == {
            ("tanh", False), ("relu", False), ("tanh", True), ("relu", True)
        }
        for row in rows:
            assert np.isfinite(row.report.mean["r2"])

    def test_empty_lists_rejected(self, small_ds):
        with pytest.raises(InvalidInputError):
            ablate(small_ds, [], [False], _small_config(), [0, 1])
