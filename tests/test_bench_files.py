"""Committed benchmark records: every root ``BENCH_*.json`` written by
``tools/pairs.py --json`` must recompute its summary, and its verdicts
where it records them, from its own pairs, and every ``ops`` block that
``tools/abops.py --json`` added must recompute its summary from its own
per-operation CPU. The summaries of ``tools/pairs.py`` and
``tools/abops.py`` are checked on fixed values.

Reads committed files only and runs no benchmark."""

import importlib.util
import json
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m["better"] for m in DECLARED["end_to_end"]}
BOUNDS = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
WORKLOADS = {w["name"] for w in DECLARED["workloads"]}
RECORDS = [(path.name, workload, record)
           for path in sorted(ROOT.glob("BENCH_*.json"))
           for workload, record in json.loads(path.read_text()).items()]
OPS = [(f"{name}:{workload}:{i}", block)
       for name, workload, record in RECORDS
       for i, block in enumerate(record.get("ops", []))]


def quartiles(values):
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def expected_verdict(parent, change, better, bound):
    """The verdict from both sides' values, written out per direction."""
    p, c = quartiles(parent), quartiles(change)
    iqr = p["q3"] - p["q1"]
    if better == "higher":
        wins = sum(new > old for old, new in zip(parent, change))
        gained = c["median"] - p["median"]
        separated = min(change) > max(parent)
    else:
        wins = sum(new < old for old, new in zip(parent, change))
        gained = p["median"] - c["median"]
        separated = max(change) < min(parent)
    if wins / len(parent) >= 0.9 and gained > iqr:
        return "gain"
    if gained < -bound * abs(p["median"]):
        return "regression"
    if iqr > bound * abs(p["median"]) and not separated:
        return "unresolved"
    return "no change"


def load_tool(name):
    if str(ROOT / "tools") not in sys.path:  # abops imports pairs
        sys.path.append(str(ROOT / "tools"))
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.mark.parametrize("name, workload, record", RECORDS,
                         ids=[f"{n}:{w}" for n, w, _ in RECORDS])
def test_summary_recomputes_from_pairs(name, workload, record):
    assert workload in WORKLOADS
    assert set(record) - {"ops"} == {"machine", "commits", "seeds",
                                     "seconds", "pairs", "summary",
                                     "every_run_correct"}
    assert record["every_run_correct"] is True
    assert record["machine"]["nproc"] >= 1
    assert set(record["commits"]) == {"parent", "change"}
    pairs = record["pairs"]
    assert [p["seed"] for p in pairs] == record["seeds"]
    assert [p["first"] for p in pairs] == [
        ("parent", "change")[i % 2] for i in range(len(pairs))]
    assert all(p[side]["correct"] for p in pairs
               for side in ("parent", "change"))
    assert set(record["summary"]) == set(METRICS)
    for metric, row in record["summary"].items():
        sides = {side: [p[side]["metrics"][metric] for p in pairs]
                 for side in ("parent", "change")}
        better = METRICS[metric]
        wins = sum((new > old) if better == "higher" else (new < old)
                   for old, new in zip(sides["parent"], sides["change"]))
        assert row["better"] == better
        assert row["pairs"] == len(pairs)
        assert row["wins"] == wins
        for side, values in sides.items():
            assert row[side] == pytest.approx(quartiles(values), rel=1e-12)
            assert min(values) <= row[side]["q1"] <= row[side]["q3"] \
                <= max(values)
        assert row["ratio"] == pytest.approx(
            row["change"]["median"] / row["parent"]["median"], rel=1e-12)
        if "verdict" in row:
            assert row["verdict"] == expected_verdict(
                sides["parent"], sides["change"], better, BOUNDS[metric])


@pytest.mark.parametrize("name, block", OPS, ids=[n for n, _ in OPS])
def test_ops_summary_recomputes_from_cpu(name, block):
    assert set(block) == {"seed", "commits", "src_sha256", "cpu_s",
                          "summary", "every_op_correct"}
    assert block["every_op_correct"] is True
    assert set(block["commits"]) == set(block["src_sha256"]) \
        == set(block["cpu_s"]) == {"parent", "change"}
    parent, change = block["cpu_s"]["parent"], block["cpu_s"]["change"]
    assert len(parent) == len(change) >= 2
    assert min(parent + change) > 0
    ratios = [new / old for old, new in zip(parent, change)]
    summary = block["summary"]
    assert summary["ops"] == len(ratios)
    assert summary["ratio"] == pytest.approx(quartiles(ratios), rel=1e-12)
    assert min(ratios) <= summary["ratio"]["q1"] <= summary["ratio"]["q3"] \
        <= max(ratios)
    assert summary["change_faster"] == sum(r < 1.0 for r in ratios)
    assert summary["parent_median_cpu_s"] == statistics.median(parent)
    assert summary["change_median_cpu_s"] == statistics.median(change)


def test_pairs_tool_summary_stays_inside_two_pairs():
    # the exclusive method put q1 below the minimum of two values
    pairs_tool = load_tool("pairs")
    pairs = [{side: {"correct": True, "metrics": {"m": value}}
              for side, value in (("parent", old), ("change", new))}
             for old, new in ((1.0, 3.0), (2.0, 1.5))]
    row = pairs_tool.summarize(pairs, [("m", "higher")])["m"]
    assert row["parent"] == {"q1": 1.25, "median": 1.5, "q3": 1.75}
    assert row["change"] == quartiles([3.0, 1.5])
    assert row["wins"] == 1 and row["pairs"] == 2
    assert row["ratio"] == 2.25 / 1.5


@pytest.mark.parametrize("parent, change, better, expected", [
    # 9 of 10 lower by far more than the parent's IQR
    ([10.0 + i / 10 for i in range(10)], [9.0] * 9 + [11.0], "lower",
     "gain"),
    # 8 of 10 wins is not enough
    ([10.0 + i / 10 for i in range(10)], [9.0] * 8 + [11.0] * 2, "lower",
     "no change"),
    # 10 of 10 wins, but by less than the parent's IQR
    ([10.0, 10.5, 11.0, 11.5, 12.0], [9.9, 10.4, 10.9, 11.4, 11.9], "lower",
     "no change"),
    # median 30% worse against a 25% bound; ties count for neither side
    ([100.0] * 5, [70.0] * 4 + [100.0], "higher", "regression"),
    ([100.0] * 5, [80.0] * 5, "higher", "no change"),
    # parent IQR of 50% against a 25% bound, the sides overlap
    ([50.0, 75.0, 100.0, 125.0, 150.0], [60.0, 80.0, 95.0, 120.0, 140.0],
     "higher", "unresolved"),
    # IQR wider than the bound, but every change run beats every parent
    # run (by less than the IQR in the median, so no gain either)
    ([0.0, 1.0, 99.0, 100.0, 100.0], [101.0] * 5, "higher", "no change"),
])
def test_pairs_tool_verdicts(parent, change, better, expected):
    pairs = [{side: {"correct": True, "metrics": {"m": value}}
              for side, value in (("parent", old), ("change", new))}
             for old, new in zip(parent, change)]
    row = load_tool("pairs").summarize(pairs, [("m", better)],
                                      {"m": 0.25})["m"]
    assert row["verdict"] == expected
    assert expected_verdict(parent, change, better, 0.25) == expected


def test_abops_summary():
    # ratios 0.8, 0.9, 1.0, 1.2: inclusive quartiles stay inside them,
    # and a tie (ratio 1.0) counts as not faster
    summary = load_tool("abops").summarize([1.0, 2.0, 3.0, 0.5],
                                           [0.8, 1.8, 3.0, 0.6])
    assert summary["ops"] == 4
    assert summary["ratio"] == pytest.approx(
        quartiles([0.8, 0.9, 1.0, 1.2]), rel=1e-12)
    assert summary["ratio"]["median"] == pytest.approx(0.95, rel=1e-12)
    assert summary["change_faster"] == 2
    assert summary["parent_median_cpu_s"] == 1.5
    assert summary["change_median_cpu_s"] == 1.3
