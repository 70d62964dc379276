"""A smoke run of the benchmark on each workload: two traced ops each, checked as the benchmark
checks them.  It covers the worker's set-up (``Problem``, ``parse``, ``benchmark_problem``),
the reference checks and the tracer's lookups, so a change that would make the benchmark
report a failed run or an incorrect output fails here first."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["deep_nonlinear", "published_tables", "cli_robin_files"])
def test_two_traced_ops_of_each_workload_run_and_are_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--max-ops", "2",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
