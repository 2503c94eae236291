"""Benchmark of aopu's training run and rank-ratio survey.

    python3 perfbench/run.py --workload train-paper --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a checkout. The workload seed makes the synthetic inputs;
the program sees only those inputs. Each workload is a closed loop: one
process starts the next call when the previous one has returned.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer metrics. Every metric is printed with its
unit and sample count, and the last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

BLAS is pinned to one thread in every worker process. The run exits non-zero
without a result when the checkout holds no ``src/aopu`` package.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-paper", "train-lowrr", "rr-survey")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 3  # processes whose set-up time is measured; setup_s is their median
RUN_LIMIT_S = 170.0  # every worker of one workload ends within this


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    paths = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_worker(workload: str, args, setup_only: bool, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], cwd=ROOT, env=worker_env(),
            stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def run_workload(workload: str, args, spec: dict) -> dict:
    """Run one workload's processes; returns the result object."""
    deadline = time.monotonic() + RUN_LIMIT_S
    # set-up-only processes first, so the measured process starts with the
    # same warm bytecode and file caches as the last of them
    n = 1 if args.trace else SETUPS
    setups = [
        run_worker(workload, args, setup_only=k < n - 1, deadline=deadline)
        for k in range(n)
    ]
    main = setups[-1]
    attempted = sum(o["attempted"] for o in setups)
    failed = sum(o["failed"] for o in setups)
    problems = [p for o in setups for p in o["problems"]]
    calls = main.get("call_s", [])

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = main.get("layers", {})
        samples = main.get("traced_calls", 0)
        metrics = {n: (values.get(n), samples) for n in names}
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = {
            "call_s": (statistics.median(calls) if calls else None, len(calls)),
            "setup_s": (statistics.median(o["setup_s"] for o in setups), len(setups)),
            "peak_rss_mb": (main.get("peak_rss_mb"), 1),
            "ok_frac": (1.0 - failed / attempted, attempted),
        }
        metrics = {n: values.get(n, (None, 0)) for n in names}
    missing = [n for n, (v, _) in metrics.items() if v is None]
    if missing:
        problems.append(f"no value for {', '.join(missing)}")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    env = main.get("environment", {})
    env["git_commit"] = git_commit()
    print(f"# {workload} seed {args.seed} trace {args.trace}: {json.dumps(env, sort_keys=True)}")
    for name, (value, n) in metrics.items():
        shown = "-" if value is None else f"{value:.6g}"
        print(f"{workload:12s} {name:36s} {shown:>14s} {units[name]:8s} n={n}")
    for p in problems:
        print(f"{workload}: FAILED CHECK: {p}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, (v, _) in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "aopu" / "__init__.py").is_file():
        print(f"no aopu package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args, spec) for w in workloads}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[workloads[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
