"""One benchmark process: build the inputs, warm up, then time the workload.

``run.py`` starts this file with BLAS pinned to one thread and the
checkout's ``src`` first on ``PYTHONPATH``:

    python3 perfbench/worker.py --workload train-paper --seed 0 --seconds 30 \\
        --trace 0 --t0 <time.monotonic() just before the launch> [--setup-only]

The last stdout line is one JSON object for ``run.py``. Every call, the
untimed warm-up included, is checked; a call that raises or fails a check
counts as failed.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import aopu
from aopu import harness
from aopu.data import synth_generate
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = json.loads((HERE / "reference.json").read_text())

# inputs shared by every workload: synth_generate(n, n_vars, noise, nonlinear)
N_ROWS, N_VARS, NOISE = 4000, 5, 0.3
TRAIN_FRACTION = 0.6  # TrainConfig's default chronological split
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOADS = {
    "train-paper": {"bs": 64, "seq": 48, "hidden": 2048, "epochs": 5},
    "train-lowrr": {"bs": 288, "seq": 16, "hidden": 0, "epochs": 8},
    "rr-survey": {
        "bs_grid": (64, 128, 288),
        "seq_grid": (16, 24, 32, 40, 48),
        "hidden": 2048,
    },
}

# spans every traced call must record, whatever the kernels below them do
REQUIRED_SPANS = {
    "train": ("harness.train_run", "data.prepare_windows", "data.batches",
              "augment.augment", "model.step"),
    "survey": ("harness.rr_survey", "data.prepare_windows", "data.batches",
               "augment.augment"),
}


def n_train_windows(seq: int) -> int:
    return int((N_ROWS - seq + 1) * TRAIN_FRACTION)


def expected_rr(seq: int, hidden: int, bs: int) -> float:
    """Rank ratio of a generic batch: min(d + h, bs) / bs."""
    return min(seq * N_VARS + hidden, bs) / bs


class Workload:
    """Seeded inputs, the call under test and its output checks."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.spec = WORKLOADS[name]
        self.kind = "survey" if name == "rr-survey" else "train"
        self.ds = synth_generate(
            n=N_ROWS, n_vars=N_VARS, noise=NOISE, nonlinear=True, seed=seed
        )
        if self.kind == "train":
            s = self.spec
            self.config = harness.TrainConfig(
                model="aopu", bs=s["bs"], seq=s["seq"], hidden=s["hidden"],
                activation="tanh", epochs=s["epochs"], strategy="final", seed=seed,
            )
            self.steps = s["epochs"] * (n_train_windows(s["seq"]) // s["bs"])
        else:
            self.steps = sum(
                n_train_windows(seq) // bs
                for seq in self.spec["seq_grid"] for bs in self.spec["bs_grid"]
            )

    def call(self):
        # looked up on the module at call time, so a traced call goes
        # through the tracer's wrapper
        if self.kind == "train":
            return harness.train_run(self.ds, self.config)
        s = self.spec
        return harness.rr_survey(
            self.ds, s["bs_grid"], s["seq_grid"], hidden=s["hidden"], seed=self.seed
        )

    def outcome(self, result):
        """What two calls on the same inputs must reproduce bit for bit."""
        if self.kind == "train":
            return (result.r2, result.mean_train_rr, result.min_train_rr)
        return tuple((c.bs, c.seq, c.count, c.mean, c.std, c.hist) for c in result)

    def check(self, result) -> list[str]:
        if self.kind == "train":
            return self._check_train(result)
        return self._check_survey(result)

    def _check_train(self, r) -> list[str]:
        s = self.spec
        rr = expected_rr(s["seq"], s["hidden"], s["bs"])
        problems = []
        if r.diverged:
            problems.append(f"diverged at rank ratio {r.divergence_rr}")
        if r.n_iterations != self.steps:
            problems.append(f"{r.n_iterations} iterations, expected {self.steps}")
        if not r.val_mse_final < r.val_mse_zero:
            problems.append(
                f"final validation MSE {r.val_mse_final} is not below the zero "
                f"predictor's {r.val_mse_zero}"
            )
        # rank <= min(d + h, bs), so a minimum equal to that bound means every
        # batch has it; the mean may differ from it by summation rounding only
        if r.min_train_rr != rr:
            problems.append(f"min train RR {r.min_train_rr!r}, expected {rr!r}")
        if not math.isclose(r.mean_train_rr, rr, rel_tol=1e-12):
            problems.append(f"mean train RR {r.mean_train_rr!r}, expected {rr!r}")
        if not math.isfinite(r.r2):
            problems.append(f"test R2 is {r.r2}")
        ref = REFERENCE["test_r2"].get(self.name)
        if self.seed == REFERENCE["seed"] and ref is not None:
            tol = REFERENCE["test_r2_abs_tolerance"]
            if not abs(r.r2 - ref) <= tol:
                problems.append(f"test R2 {r.r2!r} is more than {tol} from {ref!r}")
        return problems

    def _check_survey(self, cells) -> list[str]:
        s = self.spec
        grid = [(bs, seq) for seq in s["seq_grid"] for bs in s["bs_grid"]]
        got = [(c.bs, c.seq) for c in cells]
        if got != grid:
            return [f"survey cells {got}, expected {grid}"]
        problems = []
        for c in cells:
            count = n_train_windows(c.seq) // c.bs
            rr = expected_rr(c.seq, s["hidden"], c.bs)
            hist = tuple(int(k) for k in np.histogram([rr] * count, bins=harness.RR_HIST_EDGES)[0])
            if c.count != count:
                problems.append(f"bs {c.bs} seq {c.seq}: {c.count} batches, expected {count}")
            if c.hist != hist:
                problems.append(f"bs {c.bs} seq {c.seq}: RR histogram {c.hist}, expected {hist}")
            if not math.isclose(c.mean, rr, rel_tol=1e-12):
                problems.append(f"bs {c.bs} seq {c.seq}: mean RR {c.mean!r}, expected {rr!r}")
        return problems


def layer_metrics(tracer, wall_s: float, steps: int) -> dict:
    """Per-layer figures of one traced call; ``ms`` is self time per call."""

    def ms(name):
        return tracer.stat(name).self_s * 1e3

    def calls(name):
        return tracer.stat(name).calls

    def per_step(value):
        return value / steps

    step = tracer.stat("model.step")
    rr = tracer.batch_rr
    return {
        "linalg.rank.ms": ms("linalg.rank"),
        "linalg.rank.calls": calls("linalg.rank"),
        "linalg.pinv.ms": ms("linalg.pinv"),
        "linalg.pinv.calls": calls("linalg.pinv"),
        "linalg.svd.ms": ms("linalg.svd"),
        "linalg.svd.calls": calls("linalg.svd"),
        "linalg.column_gram.ms": ms("linalg.column_gram"),
        "linalg.column_gram.calls": calls("linalg.column_gram"),
        "linalg.as_matrix.ms": ms("linalg.as_matrix"),
        "linalg.as_matrix.calls": calls("linalg.as_matrix"),
        "linalg.svd_fallback.calls": calls("linalg.svd_fallback"),
        "linalg.factorizations_per_step": per_step(tracer.factorizations_in_step()),
        "linalg.as_matrix.calls_per_step": per_step(tracer.stat("linalg.as_matrix").calls_in_step),
        "linalg.column_gram.calls_per_step": per_step(tracer.stat("linalg.column_gram").calls_in_step),
        "linalg.factor.flops_computed": per_step(tracer.flops_in_step),
        "augment.augment.ms": ms("augment.augment"),
        "augment.augment.calls": calls("augment.augment"),
        "augment.augment_batch.ms": ms("augment.augment_batch"),
        "augment.bytes_out_computed": per_step(tracer.bytes_out),
        "augment.rank_ratio.mean": sum(rr) / len(rr) if rr else 0.0,
        "model.step.ms": step.total_s * 1e3,
        "model.step.self_ms": step.self_s * 1e3,
        "model.dual.ms": ms("model.dual"),
        "model.reconstruct.ms": ms("model.reconstruct"),
        "model.truncated_gradient.ms": ms("model.truncated_gradient"),
        "model.step.calls": step.calls,
        "model.step.useful_frac": tracer.steps_applied / step.calls if step.calls else 0.0,
        "data.prepare_windows.ms": ms("data.prepare_windows"),
        "data.batches.ms": ms("data.batches"),
        "harness.train_run.self_ms": ms("harness.train_run"),
        "harness.rr_survey.self_ms": ms("harness.rr_survey"),
        "trace.wall_ms": wall_s * 1e3,
        "trace.accounted_frac": tracer.self_seconds() / wall_s,
    }


def trace_problems(wl: Workload, tracer) -> list[str]:
    problems = [
        f"span {name} recorded no calls"
        for name in REQUIRED_SPANS[wl.kind]
        if tracer.stat(name).calls == 0
    ]
    if wl.kind == "survey":
        problems += [
            f"span {name} ran during a survey"
            for name, st in tracer.stats.items()
            if name.startswith("model.") and st.calls
        ]
    return problems


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas_threads": None,
        "blas_core": None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }
    # numpy's bundled OpenBLAS reports its own thread count and core type
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        for prefix in ("scipy_openblas_get_", "openblas_get_"):
            threads = getattr(lib, prefix + "num_threads64_", None)
            config = getattr(lib, prefix + "config64_", None)
            if threads is not None and config is not None:
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                env["blas_threads"] = threads()
                env["blas_core"] = config().decode()
    return env


def run_call(wl: Workload, reference, tracer=None):
    """One checked call: (seconds, or None if it failed; problems; result)."""
    try:
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            start = time.perf_counter()
            result = wl.call()
            elapsed = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        problems = wl.check(result)
        if reference is not None and wl.outcome(result) != reference:
            problems.append("result differs from the warm-up call on the same inputs")
        if tracer is not None:
            problems += trace_problems(wl, tracer)
    except Exception:  # a failed operation is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return None, [traceback.format_exc().strip().splitlines()[-1]], None
    return (None if problems else elapsed), problems, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    src = (ROOT / "src").resolve()
    if Path(aopu.__file__).resolve().parent.parent != src:
        print(f"aopu imported from {aopu.__file__}, not from {src}", file=sys.stderr)
        return 2

    wl = Workload(args.workload, args.seed)
    warm_s, problems, warm = run_call(wl, None)
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s, "attempted": 1, "failed": int(warm_s is None),
           "problems": problems}
    if args.setup_only or warm_s is None:
        print(json.dumps(out))
        return 0
    reference = wl.outcome(warm)
    tracer = Tracer() if args.trace else None
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + args.seconds
    last = 0.0
    while True:
        # untraced and traced calls alternate, so drift hits both alike
        use_tracer = tracer is not None and len(traced) < len(plain)
        elapsed, errs, _ = run_call(wl, reference, tracer if use_tracer else None)
        out["attempted"] += 1
        out["problems"] += errs
        if elapsed is None:
            out["failed"] += 1
        else:
            last = elapsed
            if use_tracer:
                traced.append(elapsed)
                layers.append(layer_metrics(tracer, elapsed, wl.steps))
            else:
                plain.append(elapsed)
        enough = plain and (tracer is None or traced)
        if time.perf_counter() + last > deadline and (enough or out["failed"]):
            break

    out["call_s"] = plain
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["environment"] = environment()
    if tracer is not None and traced:
        merged = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        merged["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        out["layers"] = merged
        out["traced_calls"] = len(traced)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
