"""Command-line interface: train, repeat, rr-survey, ablate, synth, verify.

Every file a command writes is formatted here: the CSVs, whose floats are
spelled by ``repr``, the ``manifest.json`` of each run, which holds the
config echo, a SHA-1 of each output and the wall time, and ``verify.json``,
the verification suite's results. The JSON files are strict: numpy scalars
and arrays become plain numbers and lists, a non-finite float is the string
the CSVs spell it as, and any other value JSON cannot hold raises.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from . import data, harness, survey, verify
from .checkpoint import save_checkpoint
from .errors import AopuError, InvalidInputError

# each --synth-* flag's dest, synth_generate keyword and default; the flags
# themselves default to None, so a CSV run can tell that one was given
SYNTH_FLAGS = (
    ("synth_n", "n", 4000),
    ("synth_vars", "n_vars", 5),
    ("synth_noise", "noise", 0.3),
    ("synth_nonlinear", "nonlinear", False),
    ("synth_seed", "seed", 0),
)


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    """Where the data comes from and where the outputs go."""
    p.add_argument("--dataset", default="synth",
                   help="CSV path, or 'synth' for generated data")
    p.add_argument("--schema", default=None,
                   help="known dataset schema: debutanizer | sru "
                        "(default: generic last-column target)")
    p.add_argument("--target-col", type=int, default=None,
                   help="absolute index of the target column")
    p.add_argument("--no-standardize", action="store_true")
    p.add_argument("--out-dir", default="out")
    _add_synth_flags(p)


def _add_feature_map_flags(p: argparse.ArgumentParser, activation=True) -> None:
    """The frozen feature map; ``ablate`` sweeps activation and normalization
    over ``--activations``/``--norm-flags`` instead."""
    p.add_argument("--hidden", type=int, default=2048)
    if activation:
        p.add_argument("--activation", default="tanh")
        p.add_argument("--layer-norm", action="store_true")


def _add_training_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=tuple(harness.MODELS), default="aopu")
    p.add_argument("--bs", type=int, default=64)
    p.add_argument("--seq", type=int, default=48)
    p.add_argument("--lr", type=float, default=None, help="default: " + ", ".join(
        f"{cls.DEFAULT_LR} for {kind}" for kind, cls in harness.MODELS.items()))
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--strategy", choices=harness.STRATEGIES, default="final")


def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    """Synthetic-data knobs, read by ``--dataset synth`` and ``synth``."""
    d = {dest: default for dest, _, default in SYNTH_FLAGS}
    p.add_argument("--synth-n", type=int, help=f"default: {d['synth_n']}")
    p.add_argument("--synth-vars", type=int, help=f"default: {d['synth_vars']}")
    p.add_argument("--synth-noise", type=float, help=f"default: {d['synth_noise']}")
    p.add_argument("--synth-nonlinear", action="store_true", default=None)
    p.add_argument("--synth-seed", type=int, help=f"default: {d['synth_seed']}")


def _synth_dataset(args) -> data.Dataset:
    return data.synth_generate(**{
        kw: default if getattr(args, dest) is None else getattr(args, dest)
        for dest, kw, default in SYNTH_FLAGS
    })


def _load_dataset(args) -> data.Dataset:
    """The dataset the run trains on; a flag of the other data source is an
    error rather than silently dropped."""
    if args.dataset == "synth":
        if args.schema is not None:
            raise InvalidInputError(
                "--schema applies to a CSV --dataset, not to synth data"
            )
        ds = _synth_dataset(args)
        return ds if args.target_col is None else replace(ds, target_col=args.target_col)
    given = [dest for dest, _, _ in SYNTH_FLAGS if getattr(args, dest) is not None]
    if given:
        flag = "--" + given[0].replace("_", "-")
        raise InvalidInputError(
            f"{flag} applies to --dataset synth, not to {args.dataset!r}"
        )
    return data.load_csv(args.dataset, schema=args.schema, target_col=args.target_col)


def _config_from(args, seed: int, **feature_map) -> harness.TrainConfig:
    return harness.TrainConfig(
        model=args.model,
        bs=args.bs,
        seq=args.seq,
        hidden=args.hidden,
        lr=args.lr,
        epochs=args.epochs,
        strategy=args.strategy,
        seed=seed,
        standardize=not args.no_standardize,
        **feature_map,
    )


def _config_echo(args, config: harness.TrainConfig, ds: data.Dataset) -> dict:
    """The run's dataset and config plus the target column it actually
    trained on."""
    return {"dataset": args.dataset, **asdict(config), "target_col": ds.target_col}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        # a numpy float64 is a float whose repr carries its type name
        return repr(float(value))
    return str(value)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _strict(value):
    """``value`` with numpy scalars and arrays as Python numbers and lists,
    and each non-finite float spelled as in the CSVs."""
    if isinstance(value, (np.generic, np.ndarray)):
        return _strict(value.tolist())
    if isinstance(value, float) and not math.isfinite(value):
        return _fmt(value)
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_strict(doc), fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_runs(out_dir, reports) -> list:
    """Write ``metrics.csv``, one row per run, and ``curve.csv``, each run's
    validation curve; return their paths."""
    metrics_path = os.path.join(out_dir, "metrics.csv")
    curve_path = os.path.join(out_dir, "curve.csv")
    header = [
        "seed", "model", "strategy", "mse", "mape", "r2",
        "val_mse_best", "val_mse_final", "fluctuation", "max_regression",
        "mean_train_rr", "low_rr_warning", "diverged", "divergence_rr",
    ]
    _write_csv(metrics_path, header, [[
        r.config.seed, r.config.model, r.config.strategy, r.mse, r.mape, r.r2,
        r.val_mse_best, r.val_mse_final,
        None if r.stability is None else r.stability.fluctuation,
        None if r.stability is None else r.stability.max_regression,
        r.mean_train_rr, r.low_rr_warning, r.diverged, r.divergence_rr,
    ] for r in reports])
    _write_csv(curve_path, ["seed", "iteration", "val_mse"],
               [[r.config.seed, it, v] for r in reports for it, v in r.val_curve])
    return [metrics_path, curve_path]


def _finish(out_dir, config_echo, written, t0, extra=None) -> None:
    """Write ``manifest.json``: the config echo, each output's SHA-1, a
    ``content_hash`` over those digests in path-sorted order, the wall time
    and ``extra``; then print every path written."""
    wall_time = time.perf_counter() - t0
    digests = []
    for path in sorted(written):
        with open(path, "rb") as fh:
            digests.append((os.path.basename(path), hashlib.sha1(fh.read()).digest()))
    manifest = os.path.join(out_dir, "manifest.json")
    _write_json(manifest, {
        "config": config_echo,
        "outputs": {name: digest.hex() for name, digest in digests},
        "content_hash": hashlib.sha1(b"".join(d for _, d in digests)).hexdigest(),
        "wall_time_s": wall_time,
        **(extra or {}),
    })
    for path in written + [manifest]:
        print(f"wrote {path}")


def cmd_train(args) -> int:
    t0 = time.perf_counter()
    ds = _load_dataset(args)
    config = _config_from(
        args, args.seed, activation=args.activation, layer_norm=args.layer_norm
    )
    report = harness.train_run(ds, config)
    os.makedirs(args.out_dir, exist_ok=True)
    echo = _config_echo(args, config, ds)

    written = _write_runs(args.out_dir, [report])
    ckpt_path = os.path.join(args.out_dir, "checkpoint.json")
    save_checkpoint(ckpt_path, config.model, report.selected_weights, echo)
    print(
        f"{config.model} test: mse={report.mse:.6g} mape={report.mape:.4g} "
        f"r2={report.r2:.4f} (mean train RR {report.mean_train_rr:.3f}"
        f"{', LOW-RR WARNING' if report.low_rr_warning else ''}"
        f"{', DIVERGED' if report.diverged else ''})"
    )
    _finish(args.out_dir, echo, written + [ckpt_path], t0,
            extra={"report": report.to_dict()})
    return 0


def cmd_repeat(args) -> int:
    t0 = time.perf_counter()
    ds = _load_dataset(args)
    config = _config_from(
        args, args.seeds[0], activation=args.activation, layer_norm=args.layer_norm
    )
    (rep,) = harness.sweep(ds, config, {}, args.seeds)
    os.makedirs(args.out_dir, exist_ok=True)
    written = _write_runs(args.out_dir, rep.runs)
    for name in ("mse", "mape", "r2"):
        print(f"{name}: {rep.cell(name)}")
    if rep.diverged_seeds:
        print(f"diverged seeds: {rep.diverged_seeds}")
    _finish(args.out_dir, _config_echo(args, config, ds), written, t0,
            extra={"seeds": args.seeds,
                   "aggregate": {"mean": rep.mean, "std": rep.std},
                   "diverged_seeds": rep.diverged_seeds})
    return 0


def cmd_rr_survey(args) -> int:
    t0 = time.perf_counter()
    ds = _load_dataset(args)
    summaries = survey.rr_survey(
        ds,
        bs_grid=args.bs_grid,
        seq_grid=args.seq_grid,
        hidden=args.hidden,
        activation=args.activation,
        layer_norm=args.layer_norm,
        seed=args.seed,
        standardize_data=not args.no_standardize,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    hist_path = os.path.join(args.out_dir, "rr_hist.csv")
    summary_path = os.path.join(args.out_dir, "rr_summary.csv")
    edges = survey.RR_HIST_EDGES
    _write_csv(hist_path, ["bs", "seq", "bin_lo", "bin_hi", "count"], [
        [s.bs, s.seq, edges[k], edges[k + 1], count]
        for s in summaries for k, count in enumerate(s.hist)
    ])
    _write_csv(summary_path, ["bs", "seq", "count", "mean_rr", "std_rr"],
               [[s.bs, s.seq, s.count, s.mean, s.std] for s in summaries])
    for s in summaries:
        print(f"bs={s.bs:4d} seq={s.seq:3d} mean RR={s.mean:.4f} (n={s.count})")
    # seed, standardize and target_col under the names the training echo uses
    _finish(args.out_dir, {"bs_grid": args.bs_grid, "seq_grid": args.seq_grid,
                           "hidden": args.hidden, "activation": args.activation,
                           "layer_norm": args.layer_norm, "dataset": args.dataset,
                           "seed": args.seed,
                           "standardize": not args.no_standardize,
                           "target_col": ds.target_col},
            [hist_path, summary_path], t0)
    return 0


def cmd_ablate(args) -> int:
    t0 = time.perf_counter()
    ds = _load_dataset(args)
    # the sweep sets activation and layer_norm on every row
    config = _config_from(args, args.seeds[0])
    grid = {"layer_norm": [bool(f) for f in args.norm_flags],
            "activation": args.activations}
    rows = harness.sweep(ds, config, grid, args.seeds)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "ablation.csv")
    # per row: its activation and layer norm, the mean and std of each
    # aggregate, the seed count and the diverged seeds
    stats = [(name, agg) for name in harness.AGGREGATE_FIELDS for agg in ("mean", "std")]
    _write_csv(path, [
        "activation", "layer_norm", *(f"{name}_{agg}" for name, agg in stats),
        "n_seeds", "diverged_seeds",
    ], [[
        row.config.activation, row.config.layer_norm,
        *(getattr(row, agg)[name] for name, agg in stats),
        len(row.seeds), ";".join(str(s) for s in row.diverged_seeds),
    ] for row in rows])
    for row in rows:
        print(
            f"acti={row.config.activation:<11s} norm={int(row.config.layer_norm)} "
            f"r2={row.cell('r2')}"
        )
    # the sweep is recorded under activations/norm_flags, so the echo drops
    # the config's unused activation and layer_norm defaults
    echo = _config_echo(args, config, ds)
    del echo["activation"], echo["layer_norm"]
    _finish(args.out_dir, echo, [path], t0,
            extra={"activations": args.activations, "norm_flags": args.norm_flags,
                   "seeds": args.seeds})
    return 0


def cmd_synth(args) -> int:
    ds = _synth_dataset(args)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    header = ",".join(ds.columns)
    np.savetxt(args.out, ds.values, delimiter=",", header=header, comments="",
               fmt="%.17g")
    print(f"wrote {args.out} ({ds.n_rows} rows, {len(ds.columns)} columns)")
    return 0


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    results = verify.run_default_suite(seed=args.seed, fim_samples=args.fim_samples)
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name} (error={res.error:.3e})")
        failures += 0 if res.passed else 1
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        path = os.path.join(args.out_dir, "verify.json")
        _write_json(path, {
            "results": [asdict(r) for r in results],
            "wall_time_s": time.perf_counter() - t0,
        })
        print(f"wrote {path}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aopu",
        description="Approximated orthogonal projection regression unit: "
                    "training, rank-ratio diagnostics and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one model and report test metrics")
    _add_data_flags(p)
    _add_feature_map_flags(p)
    _add_training_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("repeat", help="repeat a config over several seeds")
    _add_data_flags(p)
    _add_feature_map_flags(p)
    _add_training_flags(p)
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    p.set_defaults(fn=cmd_repeat)

    p = sub.add_parser("rr-survey", help="rank-ratio distributions over a grid")
    _add_data_flags(p)
    _add_feature_map_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bs-grid", type=int, nargs="+", default=[64, 128, 288])
    p.add_argument("--seq-grid", type=int, nargs="+", default=[16, 24, 32, 40, 48])
    p.set_defaults(fn=cmd_rr_survey)

    p = sub.add_parser("ablate", help="activation x normalization sweep")
    _add_data_flags(p)
    _add_feature_map_flags(p, activation=False)
    _add_training_flags(p)
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    p.add_argument("--activations", nargs="+", default=["tanh", "relu"])
    p.add_argument("--norm-flags", type=int, choices=(0, 1), nargs="+", default=[0, 1])
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("synth", help="write a synthetic dataset CSV")
    p.add_argument("--out", required=True)
    _add_synth_flags(p)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("verify", help="run the numerical verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fim-samples", type=int, default=100_000)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except AopuError as exc:
        # a typed input error exits like an argparse usage error
        print(f"aopu: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
