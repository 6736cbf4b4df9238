"""Tiny-size smoke test of every workload, traced and untraced.

A few passages, two questions, one training step: enough to fail fast when a
change breaks a workload or renames a function the traced run wraps.

    python -m pytest -q bench/test_smoke.py
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Counts and fractions, as opposed to times, must repeat exactly.
EXACT_UNITS = ("count", "bytes", "fraction")


def _run(workload: str, trace: int, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[-1] for line in lines if line.startswith("#   digest"))
    return json.loads(lines[-1]), digest, lines


def _check_result(result: dict, metrics: list[dict]) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, _, _ = _run(workload, trace=0)
    _check_result(result, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_report_every_layer_metric_and_repeat_counts(workload):
    first, first_digest, lines = _run(workload, trace=1)
    second, second_digest, _ = _run(workload, trace=1)
    _, untraced_digest, _ = _run(workload, trace=0)
    assert not [line for line in lines if "absent" in line]
    _check_result(first, SPEC["per_layer"])
    for m in SPEC["per_layer"]:
        if m["unit"] in EXACT_UNITS:
            assert first["metrics"][m["name"]] == second["metrics"][m["name"]], m["name"]
    # Tracing must not change what the program computes.
    assert first_digest == second_digest == untraced_digest


def test_bare_benchmark_directory_exits_nonzero(tmp_path):
    """Without the program's sources next to it, the benchmark prints no result."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in BENCH.glob("*.py"):
        (bench / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
