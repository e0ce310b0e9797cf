"""End-to-end runs of bench/run.py: the result line matches BENCHMARK.json,
every op passes the oracle at this commit, and the traced run bears out the
layer map."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(workload: str, trace: int) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # fail_ratio is 0: every op exited 0 and agreed with the oracle
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 3
    return result


def test_benchmark_json_lists_the_generated_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_reports_the_end_to_end_metrics(workload):
    metrics = _result(workload, 0)["metrics"]
    assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for m in BENCHMARK["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    metrics = _result(workload, 1)["metrics"]
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    for m in BENCHMARK["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        if m["name"].endswith(".errors"):
            assert metrics[m["name"]]["value"] == 0

    self_s = {n: metrics[f"{n}.self_s"]["value"] for n in tracing.SPAN_NAMES}
    leader = max(self_s, key=self_s.get)
    if workload == "semi_static_masks":
        assert leader == "relational.eval_relation"
    if workload == "wide_infer":
        assert leader == "propagation.propagate"
    brute = metrics["propagation.brute_force_beliefs.calls"]["value"]
    assert (brute > 0) == (workload == "dynamic_check")
    assert (metrics["temporal.parse_stream.calls"]["value"] > 0) == (workload != "wide_infer")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("wide_infer", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
