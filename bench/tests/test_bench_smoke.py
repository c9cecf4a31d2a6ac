"""Tiny-size smoke runs of every benchmark workload, untraced and traced."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

WORKLOADS = ("pretrain-desk", "finetune-paper", "predict-desk",
             "porosity-grid")
CONFIG = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _result(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "5", "--seconds",
                     "0.1", "--trace", str(trace), "--size", "tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(capsys, workload):
    code, lines, result = _result(capsys, workload, 0)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    expected = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.strip().startswith("error_rate = 0.0") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_per_layer_metrics(capsys, workload):
    code, _, result = _result(capsys, workload, 1)
    assert code == 0 and result["correct"]
    expected = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "porosity-grid":
        assert values["porosity.grid_points"] > 0
        assert values["porosity.overlap_s"] > 0
    else:
        assert values["nn.encoder_forward_s"] > 0
        assert values["nn.graph_nodes"] > 0
        assert values["nn.matmul_flops"] > 0


def test_reference_mismatch_counts_as_failure():
    problems = run.compare_reference({"loss": 1.0, "counts": [1, 2]},
                                     {"loss": 1.1, "counts": [1, 2]})
    assert len(problems) == 1 and problems[0].startswith("loss=")


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload",
         "porosity-grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
