"""Committed benchmark records: every root ``BENCH_*.json`` written by
``tools/pairs.py --json`` must recompute its summary from its own pairs.

Reads committed files only and runs no benchmark."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m["better"] for m in DECLARED["end_to_end"]}
WORKLOADS = {w["name"] for w in DECLARED["workloads"]}
RECORDS = [(path.name, workload, record)
           for path in sorted(ROOT.glob("BENCH_*.json"))
           for workload, record in json.loads(path.read_text()).items()]


def quartiles(values):
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


@pytest.mark.parametrize("name, workload, record", RECORDS,
                         ids=[f"{n}:{w}" for n, w, _ in RECORDS])
def test_summary_recomputes_from_pairs(name, workload, record):
    assert workload in WORKLOADS
    assert set(record) == {"machine", "commits", "seeds", "seconds", "pairs",
                           "summary", "every_run_correct"}
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


def test_pairs_tool_summary_stays_inside_two_pairs():
    # the exclusive method put q1 below the minimum of two values
    spec = importlib.util.spec_from_file_location(
        "pairs", ROOT / "tools" / "pairs.py")
    pairs_tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs_tool)
    pairs = [{side: {"correct": True, "metrics": {"m": value}}
              for side, value in (("parent", old), ("change", new))}
             for old, new in ((1.0, 3.0), (2.0, 1.5))]
    row = pairs_tool.summarize(pairs, [("m", "higher")])["m"]
    assert row["parent"] == {"q1": 1.25, "median": 1.5, "q3": 1.75}
    assert row["change"] == quartiles([3.0, 1.5])
    assert row["wins"] == 1 and row["pairs"] == 2
    assert row["ratio"] == 2.25 / 1.5
