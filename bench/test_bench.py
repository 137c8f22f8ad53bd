"""Test of the benchmark itself, in its quick mode (N = 64, one second).

    python -m pytest -q bench/test_bench.py

Checks the output schema, the work counters and the correctness checks,
never the timings.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["counters"], json.loads(lines[-1])


def check_result(result: dict, expected: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    # at N = 64 the default newton_tol is above the residual floor, so
    # even the solve that fails at N = 256 converges
    assert result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_runs_repeat_their_work_exactly(workload):
    counters, result = parse(run(workload, seed=7, trace=0))
    check_result(result, SPEC["end_to_end"])
    assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])
    again, _ = parse(run(workload, seed=7, trace=0))
    assert again == counters
    assert all(c["grid.fft2_calls"] > 0 for c in counters.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    counters, result = parse(run(workload, seed=3, trace=1))
    check_result(result, SPEC["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    # the traced unit does the same work as the untraced one
    primary = {"solve_large": ["solve"], "sweep_multi": ["sweep"],
               "cli_roundtrip": ["cli_solve", "cli_verify"]}[workload]
    for name in ("grid.fft2_calls", "solver.newton_steps", "solver.krylov_iters",
                 "nonlinearity.evals"):
        assert metrics[name] == sum(counters[op][name] for op in primary)
    assert metrics["solver.hessian_matvecs"] == metrics["solver.krylov_iters"]
    assert metrics["grid.fft2_s"] > 0 and metrics["solver.minres_s"] > 0
    if workload == "cli_roundtrip":
        assert metrics["diagnostics.state_evals"] > 0
        assert metrics["snapshots.bytes_written"] > 0


def test_refuses_to_run_without_the_program():
    (BENCH / "out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=BENCH / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run("solve_large", seed=1, trace=0, cwd=bare)
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
    finally:
        shutil.rmtree(bare)
