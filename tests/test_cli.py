"""End-to-end CLI tests on small synthetic configurations."""

import csv
import hashlib
import json

import numpy as np
import pytest

from aopu.checkpoint import load_checkpoint
from aopu.cli import build_parser, main
from aopu.data import load_csv
from aopu.survey import RR_HIST_EDGES

SMALL = [
    "--dataset", "synth", "--synth-n", "400", "--synth-vars", "4",
    "--seq", "4", "--bs", "8", "--hidden", "16", "--epochs", "3",
]


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_train_writes_all_artifacts(tmp_path):
    out = tmp_path / "run"
    assert main(["train", *SMALL, "--out-dir", str(out), "--seed", "1"]) == 0
    rows = _read_csv(out / "metrics.csv")
    assert len(rows) == 1
    assert float(rows[0]["r2"]) <= 1.0
    curve = _read_csv(out / "curve.csv")
    assert all(int(r["iteration"]) % 50 == 0 for r in curve)
    ckpt = load_checkpoint(out / "checkpoint.json")
    assert ckpt.kind == "aopu"
    assert ckpt.config["seed"] == 1
    # the column actually trained on: synth's single target, after 4 inputs
    assert ckpt.config["target_col"] == 4
    assert ckpt.config["dataset"] == "synth"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["target_col"] == 4
    assert manifest["config"]["dataset"] == "synth"
    assert "wall_time_s" in manifest
    assert set(manifest["outputs"]) == {"metrics.csv", "curve.csv", "checkpoint.json"}
    # each output's SHA-1, and one over those digests in path-sorted order
    digests = [
        hashlib.sha1((out / name).read_bytes()).digest()
        for name in sorted(manifest["outputs"])
    ]
    assert [manifest["outputs"][name] for name in sorted(manifest["outputs"])] == [
        d.hex() for d in digests
    ]
    assert manifest["content_hash"] == hashlib.sha1(b"".join(digests)).hexdigest()


def test_diverged_train_manifest_reports_the_final_weights(tmp_path):
    # the run diverges mid-epoch; its last epoch end validates at 4.1e305,
    # while the final weights, which the test split scores, overflow
    out = tmp_path / "diverged"
    argv = [
        "train", "--synth-n", "800", "--synth-vars", "3", "--synth-noise", "0.2",
        "--synth-nonlinear", "--synth-seed", "3", "--hidden", "64", "--bs", "16",
        "--seq", "4", "--epochs", "40", "--lr", "24", "--seed", "0",
        "--out-dir", str(out),
    ]
    assert main(argv) == 0

    def reject(token):
        raise ValueError(f"{token} is not strict JSON")

    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=reject)
    report = manifest["report"]
    # a non-finite value is spelled as metrics.csv spells it
    assert report["diverged"] and float(report["mse"]) == float("inf")
    assert float(report["val_mse_final"]) == float("inf")
    assert float(report["val_mse_best"]) <= float(report["val_mse_final"])


def test_write_json_spells_non_finite_floats_as_the_csvs(tmp_path):
    from aopu.cli import _write_json

    def reject(token):
        raise ValueError(f"{token} is not strict JSON")

    path = tmp_path / "doc.json"
    _write_json(path, {
        "inf": float("inf"),
        "nested": {"neg": [1.5, float("-inf")], "pair": (float("nan"), 2)},
        "plain": 0.25,
    })
    doc = json.loads(path.read_text(), parse_constant=reject)
    assert doc == {
        "inf": "inf",
        "nested": {"neg": [1.5, "-inf"], "pair": ["nan", 2]},
        "plain": 0.25,
    }


def test_write_json_converts_numpy_values(tmp_path):
    from aopu.cli import _write_json

    path = tmp_path / "doc.json"
    _write_json(path, {
        "flag": np.bool_(True),
        "count": np.int64(7),
        "bound": np.float64("inf"),
        "rows": np.array([[1.5, 2.0], [np.nan, -0.25]]),
    })
    # these were once written through str(): "True", "7" and a printed array
    assert json.loads(path.read_text()) == {
        "flag": True, "count": 7, "bound": "inf", "rows": [[1.5, 2.0], ["nan", -0.25]],
    }


def test_write_json_rejects_what_json_cannot_hold(tmp_path):
    from aopu.cli import _write_json

    with pytest.raises(TypeError):
        _write_json(tmp_path / "doc.json", {"value": object()})


def test_train_rvflnn_checkpoint_kind(tmp_path):
    out = tmp_path / "rv"
    assert main(["train", *SMALL, "--model", "rvflnn", "--out-dir", str(out)]) == 0
    assert load_checkpoint(out / "checkpoint.json").kind == "rvflnn"


def test_repeat_aggregates(tmp_path):
    out = tmp_path / "rep"
    code = main(["repeat", *SMALL, "--seeds", "0", "1", "--out-dir", str(out)])
    assert code == 0
    rows = _read_csv(out / "metrics.csv")
    assert [r["seed"] for r in rows] == ["0", "1"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["aggregate"]["mean"]) == {"mse", "mape", "r2"}


def test_rr_survey_outputs(tmp_path):
    out = tmp_path / "rr"
    code = main([
        "rr-survey", "--dataset", "synth", "--synth-n", "1000",
        "--hidden", "0", "--bs-grid", "16", "64", "--seq-grid", "2", "4",
        "--out-dir", str(out),
    ])
    assert code == 0
    hist = _read_csv(out / "rr_hist.csv")
    summary = _read_csv(out / "rr_summary.csv")
    assert len(summary) == 4
    # histogram mass per cell equals the recorded count
    for s in summary:
        mass = sum(
            int(h["count"])
            for h in hist
            if h["bs"] == s["bs"] and h["seq"] == s["seq"]
        )
        assert mass == int(s["count"])


def test_rr_hist_bins_parse_as_floats(tmp_path):
    out = tmp_path / "rr"
    code = main([
        "rr-survey", "--synth-n", "1500", "--synth-noise", "0.2", "--synth-seed", "8",
        "--hidden", "0", "--bs-grid", "16", "--seq-grid", "2", "--out-dir", str(out),
    ])
    assert code == 0
    rows = _read_csv(out / "rr_hist.csv")
    assert [float(r["bin_lo"]) for r in rows] == list(RR_HIST_EDGES[:-1])
    assert [float(r["bin_hi"]) for r in rows] == list(RR_HIST_EDGES[1:])


def test_ablate_table(tmp_path):
    out = tmp_path / "ab"
    code = main([
        "ablate", *SMALL, "--seeds", "0", "1",
        "--activations", "tanh", "relu", "--norm-flags", "0",
        "--out-dir", str(out),
    ])
    assert code == 0
    rows = _read_csv(out / "ablation.csv")
    assert {r["activation"] for r in rows} == {"tanh", "relu"}
    for r in rows:
        assert r["r2_mean"] != ""


def test_one_cell_ablate_matches_repeat(tmp_path):
    # both run one sweep cell: tanh without layer norm, seeds 0 and 1
    seeds = ["--seeds", "0", "1"]
    assert main(["repeat", *SMALL, *seeds, "--out-dir", str(tmp_path / "rep")]) == 0
    assert main([
        "ablate", *SMALL, *seeds, "--activations", "tanh", "--norm-flags", "0",
        "--out-dir", str(tmp_path / "ab"),
    ]) == 0
    aggregate = json.loads((tmp_path / "rep" / "manifest.json").read_text())["aggregate"]
    (row,) = _read_csv(tmp_path / "ab" / "ablation.csv")
    for name in ("mse", "mape", "r2"):
        assert float(row[f"{name}_mean"]) == aggregate["mean"][name]
        assert float(row[f"{name}_std"]) == aggregate["std"][name]


def test_synth_round_trips_through_loader(tmp_path):
    path = tmp_path / "synth.csv"
    assert main([
        "synth", "--out", str(path), "--synth-n", "200", "--synth-vars", "3",
        "--synth-noise", "0.1", "--synth-seed", "9",
    ]) == 0
    ds = load_csv(path)
    assert ds.n_rows == 200
    assert ds.columns == ("x0", "x1", "x2", "y")
    assert ds.n_inputs == 3


def test_verify_exit_code_and_report(tmp_path):
    out = tmp_path / "v"
    code = main(["verify", "--fim-samples", "20000", "--out-dir", str(out)])
    assert code == 0
    doc = json.loads((out / "verify.json").read_text())
    assert len(doc["results"]) == 7
    assert all(r["passed"] for r in doc["results"])


def test_dataset_csv_path_via_schema(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "generic.csv"
    np.savetxt(path, rng.standard_normal((300, 4)), delimiter=",")
    out = tmp_path / "run"
    code = main([
        "train", "--dataset", str(path), "--seq", "3", "--bs", "8",
        "--hidden", "8", "--epochs", "2", "--out-dir", str(out),
    ])
    assert code == 0


def _flags(command):
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    parser = sub.choices[command]
    return {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}


def test_each_subcommand_declares_only_the_flags_it_reads():
    data_flags = {
        "--dataset", "--schema", "--target-col", "--no-standardize", "--out-dir",
        "--synth-n", "--synth-vars", "--synth-noise", "--synth-nonlinear",
        "--synth-seed",
    }
    training = {"--model", "--bs", "--seq", "--lr", "--epochs", "--strategy"}
    feature_map = {"--hidden", "--activation", "--layer-norm"}
    assert _flags("train") == data_flags | feature_map | training | {"--seed"}
    assert _flags("repeat") == data_flags | feature_map | training | {"--seeds"}
    assert _flags("rr-survey") == data_flags | feature_map | {
        "--seed", "--bs-grid", "--seq-grid",
    }
    assert _flags("ablate") == data_flags | {"--hidden"} | training | {
        "--seeds", "--activations", "--norm-flags",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["rr-survey", "--epochs", "3"],
        ["rr-survey", "--lr", "0.1"],
        ["rr-survey", "--strategy", "best"],
        ["rr-survey", "--model", "rvflnn"],
        ["ablate", "--layer-norm"],
        ["ablate", "--norm-flags", "2"],
        ["ablate", "--norm-flags", "0", "-1"],
    ],
    ids=["rr-survey-epochs", "rr-survey-lr", "rr-survey-strategy",
         "rr-survey-model", "ablate-layer-norm", "ablate-norm-flag-2",
         "ablate-norm-flag-minus-1"],
)
def test_flags_a_subcommand_does_not_read_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_rr_survey_prefixes_resolve_to_the_grids(tmp_path):
    # argparse prefix matching: --bs/--seq abbreviate --bs-grid/--seq-grid
    out = tmp_path / "rr"
    assert main([
        "rr-survey", "--synth-n", "400", "--hidden", "16",
        "--bs", "16", "--seq", "2", "--out-dir", str(out),
    ]) == 0
    summary = _read_csv(out / "rr_summary.csv")
    assert [(r["bs"], r["seq"]) for r in summary] == [("16", "2")]


def test_ablate_activation_prefix_resolves_to_the_sweep(tmp_path):
    out = tmp_path / "ab"
    assert main([
        "ablate", *SMALL, "--seeds", "0", "1", "--norm-flags", "0",
        "--activation", "relu", "--out-dir", str(out),
    ]) == 0
    rows = _read_csv(out / "ablation.csv")
    assert [r["activation"] for r in rows] == ["relu"]


def test_target_col_applies_to_synth_data(tmp_path, capsys):
    # a synth table has one target column, after its inputs: 4 is the only
    # valid choice with 4 inputs, and 2 is an input column
    out = tmp_path / "run"
    assert main(["train", *SMALL, "--target-col", "4", "--out-dir", str(out)]) == 0
    assert main(["train", *SMALL, "--target-col", "2", "--out-dir", str(out)]) == 2
    assert "aopu: error: target column 2 must be one of" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["repeat", *SMALL, "--seeds", "0"], "need at least 2 seeds, got 1"),
        (["train", *SMALL, "--seed", "-1"], "seed must be >= 0, got -1"),
        (["train", *SMALL, "--lr", "nan"], "lr must be positive and finite"),
        (["train", *SMALL, "--synth-seed", "-1"], "seed must be >= 0, got -1"),
    ],
    ids=["one-seed", "negative-seed", "nan-lr", "negative-synth-seed"],
)
def test_typed_input_errors_exit_2_without_traceback(tmp_path, capsys, argv, message):
    assert main([*argv, "--out-dir", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"aopu: error: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["synth", "--out", "x.csv", "--synth-seed", "-1"], "seed must be >= 0, got -1"),
        (["verify", "--out-dir", "v", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["verify", "--out-dir", "v", "--fim-samples", "-3"],
         "fim_samples must be >= 1, got -3"),
        (["verify", "--out-dir", "v", "--fim-samples", "0"],
         "fim_samples must be >= 1, got 0"),
    ],
    ids=["synth-seed", "verify-seed", "negative-fim-samples", "zero-fim-samples"],
)
def test_synth_and_verify_input_errors_exit_2_and_write_nothing(
    tmp_path, capsys, monkeypatch, argv, message
):
    # each once exited 1 with a traceback, and --fim-samples 0 with a nan
    # Fisher error after running the other checks
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"aopu: error: {message}")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_bad_csv_exits_2_naming_row_and_column(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n4,x,6\n")
    code = main(["train", "--dataset", str(path), "--out-dir", str(tmp_path / "r")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("aopu: error: ") and "row 1, column 1" in err


@pytest.mark.parametrize("command", ["train", "repeat", "rr-survey", "ablate"])
def test_missing_dataset_exits_2_and_creates_no_out_dir(tmp_path, capsys, command):
    out = tmp_path / "run"
    missing = tmp_path / "missing.csv"
    assert main([command, "--dataset", str(missing), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"aopu: error: {missing}: cannot read: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "repeat", "rr-survey", "ablate"])
@pytest.mark.parametrize(
    "error, message",
    [
        ("config", "unknown activation 'nosuch'"),
        ("shape", "batch size 100000 leaves no full training batch at seq 4"),
    ],
    ids=["config", "shape"],
)
def test_library_error_exits_2_and_creates_no_out_dir(
    tmp_path, capsys, command, error, message
):
    out = tmp_path / "run"
    argv = [command, "--synth-n", "400", "--hidden", "16", "--out-dir", str(out)]
    if command == "rr-survey":
        argv += ["--seq-grid", "4", "--bs-grid", "100000" if error == "shape" else "16"]
    else:
        argv += ["--seq", "4", "--epochs", "2", "--bs", "100000" if error == "shape" else "16"]
    if error == "config":
        argv += ["--activations" if command == "ablate" else "--activation", "nosuch"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("aopu: error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_unreadable_dataset_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"1,2\n\xff\xfe,3\n")
    assert main(["train", "--dataset", str(binary), "--out-dir", str(out)]) == 2
    assert main(["train", "--dataset", str(tmp_path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "not UTF-8 text" in err and "cannot read" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "dataset, flags, message",
    [
        ("synth", ["--schema", "sru"],
         "--schema applies to a CSV --dataset, not to synth data"),
        ("csv", ["--synth-n", "300"], "--synth-n applies to --dataset synth"),
        ("csv", ["--synth-nonlinear"], "--synth-nonlinear applies to --dataset synth"),
        ("csv", ["--synth-seed", "0"], "--synth-seed applies to --dataset synth"),
    ],
    ids=["synth-with-schema", "csv-with-synth-n", "csv-with-synth-nonlinear",
         "csv-with-default-synth-seed"],
)
def test_other_data_source_flags_are_rejected(tmp_path, capsys, dataset, flags, message):
    if dataset == "csv":
        dataset = tmp_path / "table.csv"
        np.savetxt(dataset, np.random.default_rng(0).standard_normal((50, 3)),
                   delimiter=",")
    out = tmp_path / "run"
    argv = ["train", "--dataset", str(dataset), *flags, "--out-dir", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"aopu: error: {message}")
    assert not out.exists()


def test_ablate_manifest_records_only_the_sweep(tmp_path):
    out = tmp_path / "ab"
    assert main([
        "ablate", *SMALL, "--seeds", "0", "1",
        "--activations", "relu", "--norm-flags", "1", "--out-dir", str(out),
    ]) == 0
    text = (out / "manifest.json").read_text()
    assert "tanh" not in text
    manifest = json.loads(text)
    assert "activation" not in manifest["config"]
    assert "layer_norm" not in manifest["config"]
    assert manifest["activations"] == ["relu"] and manifest["norm_flags"] == [1]


def test_rr_survey_manifest_records_seed_standardization_and_target(tmp_path):
    # the seed draws G and the shuffle, so two seeds' echoes must differ in it
    base = ["rr-survey", "--synth-n", "400", "--hidden", "8", "--bs-grid", "16",
            "--seq-grid", "2"]
    configs = {}
    for name, flags in [("seed1", ["--seed", "1"]), ("seed2", ["--seed", "2"]),
                        ("raw", ["--seed", "1", "--no-standardize"])]:
        out = tmp_path / name
        assert main([*base, *flags, "--out-dir", str(out)]) == 0
        configs[name] = json.loads((out / "manifest.json").read_text())["config"]
    assert configs["seed1"]["seed"] == 1 and configs["seed2"]["seed"] == 2
    assert {**configs["seed1"], "seed": 2} == configs["seed2"]
    assert configs["seed1"]["standardize"] is True
    assert configs["seed1"]["target_col"] == 5
    assert {**configs["seed1"], "standardize": False} == configs["raw"]
