"""Self-tests of the benchmark: run with ``python3 -m pytest bench/test_bench.py``.

They check the benchmark, not the package: inputs are a pure function of the
seed, the output checks catch a corrupted result and count it as a failed op,
the tracer restores what it wraps, and a one-op smoke run of every workload
prints every metric name.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import inputs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
from spans import PER_LAYER, Tracer  # noqa: E402

api = worker.import_package()
REFERENCE = json.loads(worker.REFERENCE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    assert inputs.dump(workload, 7) == inputs.dump(workload, 7)
    assert inputs.dump(workload, 7) != inputs.dump(workload, 8)
    code = f"import sys; sys.path.insert(0, {str(HERE)!r}); import inputs; " \
           f"sys.stdout.buffer.write(inputs.dump({workload!r}, 7))"
    other = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                           env=dict(os.environ, PYTHONHASHSEED="123")).stdout
    assert other == inputs.dump(workload, 7)


def test_deep_pass_mix_does_not_depend_on_seed():
    def mix(seed):
        return sorted((s["family"], s["alpha"], s["beta"], s["n"])
                      for s in inputs.deep_pass(seed, 0))

    assert mix(1) == mix(2) == mix(3)
    respelled = [s for s in inputs.deep_pass(1, 0) if s["spelling"] != "plain"]
    assert len(respelled) == len(inputs.DEEP_KINDS) * len(inputs.DEEP_NS)
    for n in inputs.DEEP_NS:
        assert {s["spelling"] for s in respelled if s["n"] == n} == set(inputs.RESPELLINGS)


def test_scaled_time_is_wall_time_at_reference_speed():
    ref = speed.REFERENCE_S
    assert speed.scaled(0.1, ref, ref) == pytest.approx(0.1)
    assert speed.scaled(0.3, 2 * ref, 4 * ref) == pytest.approx(0.1)
    # Probes (time, seconds): the first op sees only the slow ones near it.
    probes = [(0.0, 3 * ref), (0.1, 3 * ref), (5.0, ref), (5.2, ref)]
    assert speed.scaled_all([(0.0, 0.1), (5.0, 0.2)], probes) == pytest.approx([0.1 / 3, 0.2])
    assert speed.probe(3) > 0


@pytest.mark.parametrize("family,alpha,beta", [(1, 0.5, 3.5), (2, 0.25, 1.0), (3, 0.75, 2.5)])
def test_problem_specs_match_package_benchmarks(family, alpha, beta):
    spec = inputs.problem_spec(family, alpha, beta)
    ours = worker.make_problem(api, spec)
    theirs = api.benchmarks.benchmark_problem(family, alpha, beta)
    assert ours == dataclasses.replace(theirs, exact=None)


def _nudged(report):
    """The report with psi's largest coefficient moved by one part in 1e9."""
    terms = list(report.psi.terms)
    i = max(range(len(terms)), key=lambda j: abs(terms[j].coeff))
    terms[i] = api.Term(terms[i].coeff * (1.0 + 1e-9), terms[i].exponent)
    return dataclasses.replace(report, psi=api.GPSeries(tuple(terms)))


def test_corrupted_psi_fails_deep_nonlinear(monkeypatch):
    real = api.solve
    monkeypatch.setattr(api, "solve", lambda problem, n: _nudged(real(problem, n)))
    workload = worker.DeepNonlinear(api, 1, REFERENCE)
    summary = worker.sample_summary(worker.run_passes(workload, 60.0, max_ops=2))
    assert summary["failed"] == 2
    assert "right boundary" in summary["failures"][0]


def test_corrupted_psi_fails_cli_solve(monkeypatch):
    real = api.cli.solve
    monkeypatch.setattr(api.cli, "solve", lambda problem, n: _nudged(real(problem, n)))
    worker.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=worker.WORK) as tmp:
        workload = worker.CliRobinFiles(api, 1, REFERENCE, Path(tmp))
        summary = worker.sample_summary(worker.run_passes(workload, 60.0, max_ops=1))
    assert summary["failed"] == 1
    assert "boundary" in summary["failures"][0]


def test_worse_table_cell_fails_published_tables(monkeypatch):
    real = api.cli.max_error

    def inflated(psi, exact, grid, n=None):
        report = real(psi, exact, grid, n=n)
        return dataclasses.replace(report, max_error=report.max_error * 1.01)

    monkeypatch.setattr(api.cli, "max_error", inflated)
    workload = worker.PublishedTables(api, 1, REFERENCE)
    summary = worker.sample_summary(worker.run_passes(workload, 60.0, max_ops=1))
    assert summary["failed"] == 1
    assert "exceeds recorded" in summary["failures"][0]


def test_unmodified_ops_pass_every_check():
    for workload in (worker.DeepNonlinear(api, 3, REFERENCE),
                     worker.PublishedTables(api, 3, REFERENCE)):
        summary = worker.sample_summary(worker.run_passes(workload, 60.0, max_ops=2))
        assert summary["failed"] == 0, summary["failures"]


def test_tracer_counts_steps_and_restores_wrapped_functions():
    problem = api.benchmarks.benchmark_problem(1, 0.5, 1.0)
    before = (api.solve, api.solver.apply_inverse, api.series.normalize)
    with Tracer() as tracer:
        api.solve(problem, 6)
    assert (api.solve, api.solver.apply_inverse, api.series.normalize) == before
    metrics = tracer.metrics(1.0)
    assert [name for name, _, _ in PER_LAYER] == list(metrics)
    assert metrics["solver.steps"] == 5
    assert metrics["singular_operator.calls_per_step"] == 2.0
    assert metrics["expressions.eval_lambda.calls"] == 5
    assert [row[0] for row in tracer.census.rows()] == [0, 1, 2, 3, 4]
    assert metrics["solver.solve.s"] >= metrics["expressions.eval_lambda.self_s"] > 0


def test_tail_is_highest_ladder_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(1, 61)]) == (75.0, 45.0, 15)
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 10)
    assert run.tail([1.0, 2.0]) == (100.0, 2.0, 0)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_one_op_smoke_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--max-ops", "1"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = ([name for name, _, _ in PER_LAYER] if trace
             else [name for name, _, _ in run.END_TO_END] + ["max_error_worst", "fail_ratio"])
    printed = {line.split()[0] for line in lines[:-1] if line.startswith("  ")}
    assert set(names) <= printed
    gated = PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {n: u for n, u, _ in gated}


def test_without_package_exits_nonzero_and_prints_no_result():
    worker.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=worker.WORK) as tmp:
        shutil.copytree(HERE, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__", ".work"))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                               "published_tables", "--seed", "1", "--seconds", "1",
                               "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
