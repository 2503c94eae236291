"""train_run's look-ahead augmentation: a worker thread augments a window
of the next training batches while the model steps, and the stepping thread
augments a batch itself rather than wait for the worker.

Every report must equal, bit for bit, a serial loop that augments each
batch just before its step; the worker must be gone when the call ends.
"""

import os
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from aopu import harness, pipeline
from aopu.augment import AugmentConfig, Augmenter
from aopu.data import Batches, batches, prepare_windows, synth_generate
from aopu.errors import DivergenceError
from aopu.pipeline import BLAS_THREAD_VARS, WINDOW_COLUMNS, _augmented_batches
from aopu.harness import (
    CURVE_EVERY,
    TrainConfig,
    _weights_hash,
    make_model,
    metrics,
    train_run,
)

# 478 training windows: bs 16, 48 and 200 give 29, 9 and 2 batches per
# epoch in windows of 16, 5 and 2 batches, so windows span epoch ends
N_ROWS, N_VARS, SEQ = 800, 3, 4


@pytest.fixture(scope="module")
def ds():
    return synth_generate(n=N_ROWS, n_vars=N_VARS, noise=0.2, nonlinear=True, seed=3)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs and one BLAS thread, so a CPU is left for the worker."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


@pytest.fixture
def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


@pytest.fixture
def augment_threads(monkeypatch):
    """Names of the threads that run Augmenter.augment."""
    names = []
    augment = Augmenter.augment

    def spy(self, x, *, out=None):
        names.append(threading.current_thread().name)
        return augment(self, x, out=out)

    monkeypatch.setattr(Augmenter, "augment", spy)
    return names


def block_predictions(augmenter, ws, cols, w) -> np.ndarray:
    """``augment(block).T @ w`` stacked over consecutive ``cols``-column
    blocks of ``ws``; ``cols >= ws.n_windows`` is the whole split at once."""
    with np.errstate(over="ignore"):
        return np.vstack([
            augmenter.augment(ws.features[:, s : s + cols]).T @ w
            for s in range(0, ws.n_windows, cols)
        ])


def block_mse(augmenter, ws, cols, w) -> float:
    with np.errstate(over="ignore"):
        return float(np.mean((ws.targets - block_predictions(augmenter, ws, cols, w)) ** 2))


def serial_run(ds, config: TrainConfig, cols=None) -> dict:
    """train_run's loop without look-ahead: ``model.step(augment(feats),
    targs)`` over the same batches. The weights at every curve point and
    epoch end and the final weights are kept and scored after training,
    all of them, one weight at a time, on the validation split augmented
    ``cols`` columns at a time (by default ``bs``, as train_run scores
    them), a NaN reading inf. ``best`` is the first minimum over the epoch
    ends and then the final weights."""
    train, val, test = prepare_windows(ds, config.seq, config.standardize)
    augmenter = Augmenter(
        AugmentConfig(
            input_dim=train.dim, hidden=config.hidden, activation=config.activation,
            layer_norm=config.layer_norm, seed=config.seed,
        )
    )
    cols = config.bs if cols is None else cols
    model = make_model(config, augmenter)
    rng = np.random.default_rng(config.seed)
    curve_w, epoch_w, hashes, rrs = [], [], [], []
    iteration, divergence_rr = 0, None
    for _ in range(config.epochs):
        seed = int(rng.integers(0, 2**31 - 1))
        for feats, targs in batches(train, config.bs, shuffle=True, seed=seed):
            try:
                rrs.append(model.step(augmenter.augment(feats), targs).rank_ratio)
            except DivergenceError as exc:
                divergence_rr = exc.rank_ratio
                rrs.append(divergence_rr)
                break
            iteration += 1
            if iteration % CURVE_EVERY == 0:
                curve_w.append((iteration, model.w_tilde))
        if divergence_rr is not None:
            break
        epoch_w.append(model.w_tilde)
        hashes.append(_weights_hash(model.w_tilde))

    def score(w):
        mse = block_mse(augmenter, val, cols, w)
        return np.inf if np.isnan(mse) else mse

    val_by_epoch = [score(w) for w in epoch_w]
    val_final = score(model.w_tilde)
    candidates = [
        *zip(val_by_epoch, range(len(epoch_w)), epoch_w),
        (val_final, -1, model.w_tilde),
    ]
    best_val, best_epoch, best_w = min(candidates, key=lambda c: c[0])
    selected = best_w if config.strategy == "best" else model.w_tilde
    pred = block_predictions(augmenter, test, cols, selected)
    m = metrics(test.targets[:, 0], pred[:, 0])
    return {
        "r2": m.r2, "mse": m.mse, "mape": m.mape,
        "val_curve": [(it, score(w)) for it, w in curve_w],
        "val_by_epoch": val_by_epoch, "best_epoch": best_epoch,
        "val_mse_best": best_val, "val_mse_final": val_final,
        "val_mse_zero": score(np.zeros_like(model.w_tilde)),
        "selected_weights": _weights_hash(selected),
        "epoch_weight_hashes": hashes, "mean_train_rr": float(np.mean(rrs)),
        "min_train_rr": float(np.min(rrs)), "divergence_rr": divergence_rr,
        "n_iterations": iteration,
    }


def report_fields(report) -> dict:
    fields = {name: getattr(report, name) for name in (
        "r2", "mse", "mape", "val_curve", "val_by_epoch", "best_epoch",
        "val_mse_best", "val_mse_final", "val_mse_zero", "epoch_weight_hashes",
        "mean_train_rr", "min_train_rr", "divergence_rr", "n_iterations",
    )}
    fields["selected_weights"] = _weights_hash(report.selected_weights)
    return fields


def _config(**kw):
    base = dict(bs=16, seq=SEQ, hidden=64, epochs=3, strategy="final", seed=2)
    base.update(kw)
    return TrainConfig(**base)


CASES = [
    (bs, hidden, model)
    for bs in (16, 48, 200)
    for hidden in (0, 64)
    for model in ("aopu", "rvflnn")
]


class TestEqualsSerialLoop:
    @pytest.mark.parametrize("bs,hidden,model", CASES)
    def test_worker_on(self, ds, two_cpus, augment_threads, bs, hidden, model):
        config = _config(bs=bs, hidden=hidden, model=model)
        report = train_run(ds, config)
        main = threading.current_thread().name
        # the worker runs only for a map with hidden units
        assert any(name != main for name in augment_threads) == (hidden > 0)
        assert report_fields(report) == serial_run(ds, config)

    @pytest.mark.parametrize("bs,hidden,model", CASES)
    def test_one_cpu_runs_inline(self, ds, one_cpu, augment_threads, bs, hidden, model):
        config = _config(bs=bs, hidden=hidden, model=model)
        report = train_run(ds, config)
        assert set(augment_threads) == {threading.current_thread().name}
        assert report_fields(report) == serial_run(ds, config)

    @pytest.mark.parametrize("env,worker", [
        ({}, False),  # BLAS then uses both CPUs
        ({"OMP_NUM_THREADS": "2"}, False),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
        # numpy's OpenBLAS never reads MKL_NUM_THREADS
        ({"MKL_NUM_THREADS": "1"}, False),
        ({"MKL_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, True),
        ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, True),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, True),
    ])
    def test_worker_needs_a_cpu_beside_blas(self, ds, two_cpus, augment_threads,
                                            monkeypatch, env, worker):
        for var in BLAS_THREAD_VARS + ("MKL_NUM_THREADS",):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        config = _config(bs=48)
        report = train_run(ds, config)
        main = threading.current_thread().name
        assert any(name != main for name in augment_threads) == worker
        assert report_fields(report) == serial_run(ds, config)

    def test_layer_norm(self, ds, two_cpus):
        config = _config(bs=48, activation="relu", layer_norm=True)
        assert report_fields(train_run(ds, config)) == serial_run(ds, config)


def worker_names():
    return [t.name for t in threading.enumerate() if t.name.startswith("aopu-augment")]


def _train_batches(ds, epochs=3):
    """The training split, a map with hidden units and the epoch seeds of a
    run, for driving ``_augmented_batches`` directly."""
    train = prepare_windows(ds, SEQ)[0]
    augmenter = Augmenter(AugmentConfig(input_dim=train.dim, hidden=64, seed=1))
    seeds = [11 + e for e in range(epochs)]
    return augmenter, train, seeds


def epoch_cuts(train, bs, seeds):
    """One shuffled cut per epoch seed, as train_run builds them."""
    return [batches(train, bs, shuffle=True, seed=seed) for seed in seeds]


def serial_batches(augmenter, cuts):
    """What the generator must yield: each batch augmented on its own."""
    out = []
    for cut in cuts:
        cut = list(cut)
        for i, (feats, targs) in enumerate(cut):
            out.append((augmenter.augment(feats), targs, i == len(cut) - 1))
    return out


def spy_augment(monkeypatch, worker_s=0.0, main_s=0.0):
    """Patch Augmenter.augment to sleep ``worker_s`` off the main thread and
    ``main_s`` on it, and to record per call whether it ran on the main
    thread, the bytes of its input and how many batches the test had taken
    by then (the length of ``taken``). Returns ``(calls, taken)``."""
    calls, taken = [], []
    augment = Augmenter.augment
    main = threading.current_thread()

    def spy(self, x, *, out=None):
        on_main = threading.current_thread() is main
        calls.append((on_main, x.tobytes(), len(taken)))
        time.sleep(main_s if on_main else worker_s)
        return augment(self, x, out=out)

    monkeypatch.setattr(Augmenter, "augment", spy)
    return calls, taken


def take_all(augmenter, cuts, calls, taken) -> dict:
    """Take every batch of ``_augmented_batches`` over ``cuts`` into
    ``taken`` and check it against a serial loop: the same bits, in order,
    and one augment call per batch, whichever thread made it. Returns each
    batch's position in the run, by the bytes of its input."""
    for item in _augmented_batches(augmenter, cuts):
        taken.append(item)
    assert not worker_names()
    made = calls[:]  # before the serial loop adds its own
    expected = serial_batches(augmenter, cuts)
    assert len(taken) == len(expected)
    for (x, targs, end), (x0, targs0, end0) in zip(taken, expected):
        assert x.tobytes() == x0.tobytes()
        assert targs.tobytes() == targs0.tobytes()
        assert end == end0
    order = {
        feats.tobytes(): k
        for k, feats in enumerate(feats for cut in cuts for feats, _ in cut)
    }
    assert len(order) == len(expected)
    assert sorted(order[x] for _, x, _ in made) == list(range(len(expected)))
    return order


class TestCallerHelps:
    @pytest.mark.parametrize("bs", [16, 48, 200])
    def test_each_batch_once_in_order(self, ds, two_cpus, monkeypatch, bs):
        # a slow worker, so the main thread reaches batches it has not
        # finished and augments some itself
        calls, taken = spy_augment(monkeypatch, worker_s=0.01, main_s=0.001)
        augmenter, train, seeds = _train_batches(ds)
        order = take_all(augmenter, epoch_cuts(train, bs, seeds), calls, taken)
        # the main thread augmented batches beyond the next one to take
        # while the worker ran that one, and the worker augmented some too
        assert any(on_main and order[x] > n for on_main, x, n in calls)
        assert not all(on_main for on_main, _, _ in calls)

    def test_each_batch_once_under_fast_switching(self, ds, two_cpus, monkeypatch):
        calls, taken = spy_augment(monkeypatch)
        augmenter, train, seeds = _train_batches(ds)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            take_all(augmenter, epoch_cuts(train, 4, seeds), calls, taken)
        finally:
            sys.setswitchinterval(interval)

    def test_train_run_equals_serial_loop(self, ds, two_cpus, monkeypatch):
        spy_augment(monkeypatch, worker_s=0.01, main_s=0.001)
        config = _config(bs=16, hidden=64)
        assert report_fields(train_run(ds, config)) == serial_run(ds, config)
        assert not worker_names()

    def test_caller_exception_reaches_caller(self, ds, two_cpus, monkeypatch):
        class CallerFailure(RuntimeError):
            pass

        augmenter, train, seeds = _train_batches(ds)
        cuts = epoch_cuts(train, 16, seeds)
        order = [feats.tobytes() for cut in cuts for feats, _ in cut]
        augment = Augmenter.augment
        main = threading.current_thread()
        taken, failed = [], []

        def failing(self, x, *, out=None):
            if threading.current_thread() is not main:
                time.sleep(0.01)
            elif order.index(x.tobytes()) > len(taken):
                # a batch beyond the next one, augmented while the worker
                # runs the next one
                failed.append(order.index(x.tobytes()))
                raise CallerFailure("augment failed on the main thread")
            return augment(self, x, out=out)

        monkeypatch.setattr(Augmenter, "augment", failing)
        with pytest.raises(CallerFailure):
            for item in _augmented_batches(augmenter, cuts):
                taken.append(item)
        assert not worker_names()
        # raised when the first failing batch is taken, not when it was
        # augmented, and every batch before it was yielded
        assert failed and len(taken) == min(failed)

    def test_close_while_worker_runs(self, ds, two_cpus, monkeypatch):
        augmenter, train, seeds = _train_batches(ds)
        augment = Augmenter.augment
        main = threading.current_thread()
        running = threading.Event()

        def slow(self, x, *, out=None):
            if threading.current_thread() is not main:
                running.set()
                time.sleep(0.05)
            return augment(self, x, out=out)

        monkeypatch.setattr(Augmenter, "augment", slow)
        steps = _augmented_batches(augmenter, epoch_cuts(train, 16, seeds))
        next(steps)
        assert running.wait(5)
        assert worker_names()
        steps.close()
        assert not worker_names()


class TestBuffers:
    """The worker augments into buffers that the stepping thread allocates
    when it queues each batch, so the worker allocates no batch itself."""

    @pytest.fixture
    def buffers(self, monkeypatch):
        """``(made, calls)``: each buffer the pipeline allocates with the
        name of the allocating thread, and each augment call's ``out`` with
        the name of the calling thread."""
        made, calls = [], []
        empty, augment = np.empty, Augmenter.augment

        def recording_empty(*args, **kwargs):
            buf = empty(*args, **kwargs)
            made.append((buf, threading.current_thread().name))
            return buf

        def spy(self, x, *, out=None):
            calls.append((out, threading.current_thread().name))
            return augment(self, x, out=out)

        monkeypatch.setattr(pipeline, "np", SimpleNamespace(empty=recording_empty))
        monkeypatch.setattr(Augmenter, "augment", spy)
        return made, calls

    @pytest.mark.parametrize("bs", [16, 200])
    def test_worker_path(self, ds, two_cpus, monkeypatch, buffers, bs):
        made, calls = buffers
        augmenter, train, seeds = _train_batches(ds)
        taken = list(_augmented_batches(augmenter, epoch_cuts(train, bs, seeds)))
        main = threading.current_thread().name
        assert len(made) == len(calls) == len(taken)
        assert {name for _, name in made} == {main}
        assert any(name != main for _, name in calls)
        # each batch is the buffer queued for it, in order, and one call,
        # on either thread, filled it
        assert all(x is buf for (buf, _), (x, _, _) in zip(made, taken))
        assert sorted(id(out) for out, _ in calls) == sorted(id(buf) for buf, _ in made)
        assert all(buf.shape == (augmenter.output_dim, bs) for buf, _ in made)

    def test_inline_path_allocates_in_augment(self, ds, one_cpu, buffers):
        made, calls = buffers
        augmenter, train, seeds = _train_batches(ds)
        taken = list(_augmented_batches(augmenter, epoch_cuts(train, 16, seeds)))
        assert made == []
        assert len(calls) == len(taken)
        assert all(out is None for out, _ in calls)


class TestInlineGather:
    """Without the worker, a batch is gathered only once the one before it
    has been stepped, so no cut's raw features are held at once."""

    @pytest.mark.parametrize("hidden", [0, 64])
    def test_each_gather_follows_the_last_step(self, ds, one_cpu, monkeypatch, hidden):
        events = []
        getitem, step = Batches.__getitem__, harness.AopuModel.step

        def gather(self, i):
            events.append("gather")
            return getitem(self, i)

        def stepping(self, x_tilde, y):
            events.append("step")
            return step(self, x_tilde, y)

        monkeypatch.setattr(Batches, "__getitem__", gather)
        monkeypatch.setattr(harness.AopuModel, "step", stepping)
        report = train_run(ds, _config(bs=48, hidden=hidden))
        assert events == ["gather", "step"] * report.n_iterations


class TestChronologicalCut:
    """One unshuffled cut, ``[batches(train, bs)]``: the single
    chronological pass that a test-then-train run steps through."""

    @pytest.mark.parametrize("cpus", ["two_cpus", "one_cpu"])
    @pytest.mark.parametrize("bs", [16, 48])
    def test_equals_serial_loop(self, ds, request, monkeypatch, cpus, bs):
        request.getfixturevalue(cpus)
        calls, taken = spy_augment(monkeypatch, worker_s=0.01, main_s=0.001)
        augmenter, train, _ = _train_batches(ds)
        take_all(augmenter, [batches(train, bs)], calls, taken)
        # the worker path let the worker augment some batches; the inline
        # path augmented all of them on the caller's thread
        assert all(on_main for on_main, _, _ in calls) == (cpus == "one_cpu")
        n = train.n_windows // bs
        assert [end for _, _, end in taken] == [False] * (n - 1) + [True]
        for k, (x, targs, _) in enumerate(taken):
            cols = slice(k * bs, (k + 1) * bs)
            assert x.tobytes() == augmenter.augment(train.features[:, cols]).tobytes()
            assert targs.tobytes() == train.targets[cols].tobytes()


class TestFailurePaths:
    def test_divergence_with_batches_queued(self, ds, two_cpus):
        # lr 24 at bs 16 is a relaxation of 3 > 2, so the run diverges
        config = _config(lr=24.0, epochs=40, seed=0)
        before = threading.active_count()
        report = train_run(ds, config)
        assert threading.active_count() == before
        assert report.diverged
        oracle = serial_run(ds, config)
        assert report_fields(report) == oracle
        # the run stops with a full window of batches still queued
        per_epoch = prepare_windows(ds, SEQ)[0].n_windows // config.bs
        window = WINDOW_COLUMNS // config.bs
        assert report.n_iterations + 1 + window <= config.epochs * per_epoch

    def test_worker_exception_reaches_caller(self, ds, two_cpus, monkeypatch):
        class AugmentFailure(RuntimeError):
            pass

        augment = Augmenter.augment
        main = threading.current_thread()

        def failing(self, x, *, out=None):
            if threading.current_thread() is not main:
                raise AugmentFailure("augment failed on the worker")
            return augment(self, x, out=out)

        monkeypatch.setattr(Augmenter, "augment", failing)
        before = threading.active_count()
        with pytest.raises(AugmentFailure):
            train_run(ds, _config())
        assert threading.active_count() == before

    def test_step_exception_stops_worker(self, ds, two_cpus, monkeypatch):
        class StepFailure(RuntimeError):
            pass

        def failing(self, x_tilde, y):
            raise StepFailure("step failed")

        monkeypatch.setattr(harness.AopuModel, "step", failing)
        before = threading.active_count()
        with pytest.raises(StepFailure):
            train_run(ds, _config())
        assert threading.active_count() == before


def _relative_gap(a, b) -> float:
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


class TestStreamedEvaluation:
    """train_run scores the validation and test splits ``bs`` columns at a
    time and never holds either split augmented whole."""

    @pytest.mark.parametrize("bs,hidden,model,strategy", [
        (16, 64, "aopu", "final"),
        (48, 64, "rvflnn", "best"),
        (200, 0, "aopu", "best"),
        (32, 512, "aopu", "best"),
    ])
    def test_within_1e12_of_whole_split(self, ds, one_cpu, bs, hidden, model, strategy):
        config = _config(bs=bs, hidden=hidden, model=model, strategy=strategy, epochs=4)
        got = report_fields(train_run(ds, config))
        whole = serial_run(ds, config, cols=N_ROWS)
        values = lambda f: [
            *(v for _, v in f["val_curve"]), *f["val_by_epoch"], f["val_mse_best"],
            f["val_mse_final"], f["val_mse_zero"], f["mse"], f["mape"], f["r2"],
        ]
        assert [it for it, _ in got["val_curve"]] == [it for it, _ in whole["val_curve"]]
        assert len(values(got)) == len(values(whole))
        assert max(map(_relative_gap, values(got), values(whole))) <= 1e-12
        for name in ("best_epoch", "selected_weights", "epoch_weight_hashes",
                     "mean_train_rr", "min_train_rr", "n_iterations"):
            assert got[name] == whole[name]

    @pytest.mark.parametrize("cpus", ["two_cpus", "one_cpu"])
    def test_peak_below_the_augmented_validation_split(self, request, cpus):
        import tracemalloc

        request.getfixturevalue(cpus)
        big = synth_generate(n=2000, n_vars=3, noise=0.2, nonlinear=True, seed=3)
        config = TrainConfig(bs=16, seq=4, hidden=2048, epochs=1, seed=1)
        val = prepare_windows(big, config.seq)[1]
        split_bytes = (config.hidden + config.seq * 3) * val.n_windows * 8
        tracemalloc.start()
        try:
            train_run(big, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the worker's window of batches alone is 256 columns (4.2 MB)
        assert peak < split_bytes

    @pytest.mark.parametrize("strategy,model,lr,diverged", [
        ("final", "aopu", None, False),
        ("best", "aopu", None, False),
        ("best", "rvflnn", 6.0, False),
        ("best", "aopu", 12.0, True),
        ("final", "aopu", 12.0, True),
    ])
    def test_early_scoring_equals_scoring_at_the_end(
        self, monkeypatch, strategy, model, lr, diverged
    ):
        # 7 validation windows and d+h = 76 hold 6 pending weights
        # (6 * 83 <= 76 * 7), and 60 epochs record 60 weights or more
        tiny = synth_generate(n=40, n_vars=3, noise=0.2, nonlinear=True, seed=3)
        config = TrainConfig(bs=4, seq=4, hidden=64, epochs=60, seed=2,
                             model=model, strategy=strategy, lr=lr)
        passes = []
        predictions = harness._predictions

        def counting(augmenter, ws, bs, weights):
            passes.append(len(weights))
            return predictions(augmenter, ws, bs, weights)

        monkeypatch.setattr(harness, "_predictions", counting)
        report = train_run(tiny, config)
        assert report.diverged == diverged
        *val_passes, test_pass = passes
        assert len(val_passes) > 5 and max(val_passes) == 6 and test_pass == 1
        assert report_fields(report) == serial_run(tiny, config)


class TestFinalWeights:
    """The final weights are scored once: they are recorded at the end of a
    run, and recording the array recorded last again records nothing."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """The weights of each ``_predictions`` call, in order."""
        passes = []
        predictions = harness._predictions

        def spy(augmenter, ws, bs, weights):
            passes.append(list(weights))
            return predictions(augmenter, ws, bs, weights)

        monkeypatch.setattr(harness, "_predictions", spy)
        return passes

    def test_paper_shape(self, passes, monkeypatch):
        # train-paper's benchmark run: 37 batches an epoch put the curve
        # points at 50, 100 and 150 and the epoch ends at 37, 74, 111, 148
        # and 185, the last of which records the final weights
        paper = synth_generate(n=4000, n_vars=5, noise=0.3, nonlinear=True, seed=0)
        config = TrainConfig(bs=64, seq=48, hidden=2048, epochs=5, strategy="final")
        report = train_run(paper, config)
        assert report.n_iterations == 185
        val_pass, test_pass = passes
        assert len({id(w) for w in val_pass}) == len(val_pass) == 8
        assert val_pass[-1] is test_pass[0] is report.selected_weights
        # recording the final weights again, as if nothing had recorded
        # them, scores 9 weights and gives the same report
        record = harness._Checkpoints.record

        def forgetting(self, *args):
            self.last_w = None
            record(self, *args)

        monkeypatch.setattr(harness._Checkpoints, "record", forgetting)
        passes.clear()
        again = train_run(paper, config)
        assert [len(p) for p in passes] == [9, 1]
        assert report_fields(again) == report_fields(report)

    def test_diverging_run_scores_its_final_weights(self, ds, passes):
        config = _config(lr=24.0, epochs=40, seed=0)
        report = train_run(ds, config)
        assert report.diverged
        *val_passes, _ = passes
        recorded = [w for p in val_passes for w in p]
        assert len({id(w) for w in recorded}) == len(recorded)
        assert recorded[-1] is report.selected_weights
        assert report_fields(report) == serial_run(ds, config)

    @pytest.mark.parametrize("strategy", ["final", "best"])
    def test_diverged_run_reports_the_mse_of_the_weights_it_tests(
        self, ds, monkeypatch, strategy
    ):
        # the run diverges mid-epoch at iteration 583; the last epoch end
        # validates at 4.1e305 and the final weights overflow
        calls = []
        predictions = harness._predictions

        def spy(augmenter, ws, bs, weights):
            preds = predictions(augmenter, ws, bs, weights)
            calls.append((ws, list(weights), preds))
            return preds

        monkeypatch.setattr(harness, "_predictions", spy)
        report = train_run(ds, _config(lr=24.0, epochs=40, seed=0, strategy=strategy))
        assert report.diverged and report.n_iterations == 583
        *val_calls, (_, [tested], _) = calls
        assert tested is report.selected_weights
        with np.errstate(over="ignore"):
            scored = {
                id(w): float(np.mean((ws.targets - p[:, None]) ** 2))
                for ws, weights, preds in val_calls for w, p in zip(weights, preds)
            }
        assert scored[id(report.selected_weights)] == (
            report.val_mse_final if strategy == "final" else report.val_mse_best
        )
        assert report.val_mse_final == np.inf
        assert np.isfinite(report.val_by_epoch[-1])
        assert report.val_mse_best <= report.val_mse_final
