"""Every name the benchmark tracer wraps exists in this package, and a solve calls it there.

``bench/spans.py`` replaces the functions it lists in ``WRAPPED`` at run
time; a refactor that drops one, or that stops calling it through that
attribute, would otherwise surface only in a traced ``bench/run.py`` run.
The module is loaded by file path, as it stands.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import adomian_bvp
from adomian_bvp import series, solver
from adomian_bvp.benchmarks import benchmark_problem

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _wrapped():
    return _spans().WRAPPED


@pytest.mark.parametrize("module_name,attr", _wrapped())
def test_every_traced_name_resolves_to_a_callable(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def test_a_solve_calls_the_inverse_and_the_derivative_once_per_step_where_they_are_traced(
        monkeypatch):
    # n = 12 is 11 steps, each one inverse of A_k and one y' of y_k; y_11' is never formed
    calls = []
    for module, attr in ((solver, "apply_inverse"), (series, "differentiate")):
        assert (module.__name__, attr) in _wrapped()
        original = getattr(module, attr)

        def counted(*args, original=original, attr=attr):
            calls.append(attr)
            return original(*args)

        monkeypatch.setattr(module, attr, counted)
    solver.solve(benchmark_problem(1, 0.5, 1.0), 12)
    assert (calls.count("apply_inverse"), calls.count("differentiate")) == (11, 11)


def test_the_tracer_census_counts_the_steps_and_inverses_of_a_solve():
    # the census reads SolveReport.diagnostics: a change there must not blind it silently
    with _spans().Tracer() as tracer:
        report = adomian_bvp.solve(benchmark_problem(1, 0.5, 1.0), 12)
    terms = sum(len(y) for y in report.components[1:])
    assert (tracer.counts["solver.steps"], tracer.counts["solver.component_terms"]) == (11, terms)
    assert terms == 122 and tracer.calls["singular_operator.apply_inverse"] == 11
