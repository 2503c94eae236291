"""The committed ``BENCH_*.json`` files, and the README table built from them.

Each BENCH file holds the runs of one set of alternating parent/change
pairs of ``perfbench/run.py``, plus a summary and a claim. This module
recomputes every summary cell from the runs, checks each stated claim
verdict against the claim rule, and checks that the README's Performance
table has one row per file with the figures recomputed here. A file that
fails is a wrong record: mend the summary or the README, never the runs.
"""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
COMMON_KEYS = ("what", "command", "seed", "seconds", "pairs", "order",
               "environment", "claim", "summary", "runs")
SIDES = ("parent", "change")
END_TO_END = {m["name"]: m for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
PAIRS_WON = re.compile(r"(\d+) of (\d+) pairs(?: \((\d+) ties\))?")


def load(path):
    return json.loads(path.read_text())


def per_pair(bench):
    """``{workload: {side: {pair: metrics}}}`` from a file's runs.

    Runs come in three layouts: ``metrics`` keyed by workload (one
    ``run.py --workload all`` call per run); flat ``metrics`` with a
    ``workload`` key, pairs numbered per workload; and flat ``metrics`` with
    no ``workload`` key, in a file of one workload, named by its claim.
    """
    out = {}
    for run in bench["runs"]:
        metrics = run["metrics"]
        if all(isinstance(v, dict) for v in metrics.values()):
            by_workload = metrics
        else:
            by_workload = {run.get("workload", bench["claim"]["workload"]): metrics}
        for workload, values in by_workload.items():
            side = out.setdefault(workload, {}).setdefault(run["side"], {})
            assert run["pair"] not in side, (workload, run["side"], run["pair"])
            side[run["pair"]] = values
    return out


def spread(values):
    """Median and quartiles, as numpy's default percentile gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def sign(metric):
    """+1 where a lower value is better, -1 where a higher one is."""
    return 1 if END_TO_END[metric]["better"] == "lower" else -1


def compare(sides, metric):
    """Spreads of both sides, and (won, pairs, ties) of the change."""
    pairs = sorted(sides["parent"])
    assert sorted(sides["change"]) == pairs
    parent = [sides["parent"][p][metric] for p in pairs]
    change = [sides["change"][p][metric] for p in pairs]
    gaps = [sign(metric) * (a - b) for a, b in zip(parent, change)]
    won = sum(g > 0 for g in gaps)
    ties = sum(g == 0 for g in gaps)
    return spread(parent), spread(change), (won, len(pairs), ties)


def meets_rule(won, pairs, gap, parent_iqr):
    """Better in at least nine pairs of ten, by more than the parent's IQR."""
    return 10 * won >= 9 * pairs and gap > parent_iqr


def claim_figures(bench):
    """The claim's medians, IQR, gap, pair count and verdict, from the runs."""
    claim = bench["claim"]
    metric = claim["metric"]
    parent, change, (won, pairs, _) = compare(per_pair(bench)[claim["workload"]], metric)
    gap = sign(metric) * (parent["median"] - change["median"])
    iqr = parent["q3"] - parent["q1"]
    return {"parent_median": parent["median"], "change_median": change["median"],
            "gap": gap, "parent_iqr": iqr, "won": won, "pairs": pairs,
            "met": meets_rule(won, pairs, gap, iqr)}


def parse_pairs_won(text):
    """``(won, pairs, ties)`` of an "N of M pairs" count; ties is None
    where the count does not state them."""
    match = PAIRS_WON.fullmatch(text)
    assert match, f"not an 'N of M pairs' count: {text!r}"
    won, pairs, ties = match.groups()
    return int(won), int(pairs), None if ties is None else int(ties)


def all_pairs_verdict(bench, figures):
    """``met_over_all_pairs_run``'s verdict, from ``all_train_paper_pairs_run``."""
    stated = bench["claim"]["all_train_paper_pairs_run"]
    won, pairs = (int(g) for g in PAIRS_WON.match(stated).groups()[:2])
    return won, pairs, meets_rule(won, pairs, figures["gap"], figures["parent_iqr"])


def fmt(value, metric):
    return f"{value:#.3g} {END_TO_END[metric]['unit']}"


def readme_cells(bench):
    """Every cell of the file's README row but the free-text first one."""
    claim = bench["claim"]
    workload, metric = claim["workload"], claim["metric"]
    figures = claim_figures(bench)
    verdict = "met" if figures["met"] else "not met"
    if "met_over_all_pairs_run" in claim:
        won, pairs, met = all_pairs_verdict(bench, figures)
        verdict += f"; {'met' if met else 'not met'} over all pairs run ({won} of {pairs})"
    # the other end-to-end metric whose change median moved most the wrong way
    others = [
        (w, m, cell["change"]["median"] / cell["parent"]["median"] - 1)
        for w, cells in bench["summary"].items() for m, cell in cells.items()
        if (w, m) != (workload, metric)
    ]
    w, m, change = max(others, key=lambda o: sign(o[1]) * o[2])
    worst = f"`{w}` `{m}` {change:+.1%}" if sign(m) * change > 0 else "none worse"
    return [
        f"`{workload}` `{metric}`",
        fmt(figures["parent_median"], metric),
        fmt(figures["change_median"], metric),
        f"{figures['won']} of {figures['pairs']}",
        verdict,
        worst,
    ]


def readme_rows():
    """``{file name: cells}`` of the README's Performance table."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Performance\n", 1)[1].split("\n## ", 1)[0]
    table = [line for line in section.splitlines() if line.startswith("|")]
    rows = {}
    for line in table[2:]:
        cells = [c.strip() for c in line.strip().strip("|").split(" | ")]
        name = cells[-1].strip("`")
        assert name not in rows, f"two README rows for {name}"
        rows[name] = cells
    return rows


ids = [p.name for p in BENCH_FILES]


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=ids)
def test_common_keys(path):
    bench = load(path)
    assert [k for k in COMMON_KEYS if k not in bench] == []
    assert set(bench["claim"]) >= {"workload", "metric", "rule"}


@pytest.mark.parametrize("path", BENCH_FILES, ids=ids)
def test_summary_follows_from_runs(path):
    bench = load(path)
    runs = per_pair(bench)
    assert bench["claim"]["workload"] in bench["summary"]
    for workload, cells in bench["summary"].items():
        sides = runs[workload]
        assert set(sides) == set(SIDES), workload
        assert len(sides["parent"]) == bench["pairs"], workload
        for metric, cell in cells.items():
            parent, change, (won, pairs, ties) = compare(sides, metric)
            where = f"{workload} {metric}"
            assert cell["parent"] == pytest.approx(parent, rel=1e-12, abs=0), where
            assert cell["change"] == pytest.approx(change, rel=1e-12, abs=0), where
            stated = parse_pairs_won(cell["change_better_in"])
            assert stated[:2] == (won, pairs), where
            assert stated[2] in (None, ties), where


@pytest.mark.parametrize("path", BENCH_FILES, ids=ids)
def test_stated_verdicts_follow_the_claim_rule(path):
    bench = load(path)
    claim = bench["claim"]
    figures = claim_figures(bench)
    for key in ("parent_median", "change_median", "gap", "parent_iqr"):
        if key in claim:
            assert claim[key] == pytest.approx(figures[key], rel=1e-9, abs=0), key
    if "change_better_in" in claim:
        assert parse_pairs_won(claim["change_better_in"])[:2] == (figures["won"],
                                                                  figures["pairs"])
    if "met" in claim:
        assert claim["met"] is figures["met"]
    if "met_over_all_pairs_run" in claim:
        assert claim["met_over_all_pairs_run"] is all_pairs_verdict(bench, figures)[2]


def test_readme_table_has_one_row_per_file():
    rows = readme_rows()
    assert sorted(rows) == ids
    assert all((ROOT / name).is_file() for name in rows)


@pytest.mark.parametrize("path", BENCH_FILES, ids=ids)
def test_readme_row_matches_file(path):
    row = readme_rows().get(path.name)
    assert row is not None, f"no README row for {path.name}"
    assert row[1:-1] == readme_cells(load(path))
