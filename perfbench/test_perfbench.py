"""Smoke tests of the benchmark at tiny problem sizes.

    python3 -m pytest perfbench/test_perfbench.py

They check that each run prints exactly the metrics BENCHMARK.json names,
with their units, that tracing leaves every solution bit-identical, and
that the benchmark refuses to run without the library sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ghostmg import multigrid  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_workloads_match_benchmark_json():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(workload, trace, key):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected


@pytest.mark.parametrize("workload", NAMES)
def test_tracing_keeps_solutions_bit_identical(workload, tmp_path):
    plain = workloads.make_workload(workload, 5, tmp_path, smoke=True)
    twin = workloads.make_workload(workload, 5, tmp_path, smoke=True)
    original_solve = multigrid.solve
    expected = plain.run_unit(keep=True)
    tracer = tracing.Tracer()
    with tracer.active(unit=0):
        traced = twin.run_unit(keep=True)
    assert multigrid.solve is original_solve
    assert tracer.spans
    assert expected.solutions and not expected.failures
    assert len(traced.solutions) == len(expected.solutions)
    for a, b in zip(expected.solutions, traced.solutions):
        assert harness.same_solution(a, b)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, NAMES[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
