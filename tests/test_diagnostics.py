"""Error reports, residuals, the quadrature cross-check, and table formatting."""

import dataclasses
import re
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from support import QuadratureFailure, left_nested_sum, quadrature_oracle

from adomian_bvp.benchmarks import benchmark_problem
from adomian_bvp.diagnostics import (
    MAX_GRID_SIZE,
    ErrorReport,
    format_error_table,
    max_error,
    max_errors,
    residual,
    residual_grid,
)
from adomian_bvp.errors import InvalidExactSolution, InvalidProblem, NonFiniteTerm
from adomian_bvp.expressions import MAX_DEPTH, X, eval_real, parse
from adomian_bvp.problem_file import load_problem
from adomian_bvp.series import GPSeries, differentiate, evaluate, evaluate_many
from adomian_bvp.singular_operator import OperatorContext, apply_forward, apply_inverse
from adomian_bvp.solver import Problem, partial_sum, solve


# --- max_error -----------------------------------------------------------------


def test_max_error_self_comparison():
    # a series assembled from the reference's own values stays at round-off
    exact = parse("2*x^0.5 - 0.25*x")
    psi = GPSeries(
        tuple(
            GPSeries.monomial(c, e).terms[0]
            for c, e in [(2.0, 0.5), (-0.25, 1.0)]
        )
    )
    report = max_error(psi, exact, 100)
    assert report.max_error <= 1e-12


def test_max_error_grid_definition():
    exact = parse("x")
    psi = GPSeries.monomial(1.0, 1.0)
    report = max_error(psi, exact, 2)
    assert report.grid.tolist() == [0.5, 1.0]
    assert not report.grid.flags.writeable and not report.errors.flags.writeable
    assert max_error(psi, exact, 1).grid.tolist() == [1.0]
    with pytest.raises(ValueError):
        max_error(psi, exact, 0)


def test_grid_size_is_an_integer_only():
    problem = benchmark_problem(1, 0.5, 1.0)
    psi = solve(problem, 3).psi
    assert max_error(psi, problem.exact, np.int64(4)).grid.tolist() == [0.25, 0.5, 0.75, 1.0]
    assert [x for x, _ in residual(psi, problem, np.int64(4))] == [0.25, 0.5, 0.75, 1.0]
    for size in (2.5, 2.0, "4", None):
        message = f"^grid_size must be an integer, got {re.escape(repr(size))}$"
        with pytest.raises(InvalidProblem, match=message):
            max_error(psi, problem.exact, size)
        with pytest.raises(InvalidProblem, match=message):
            residual(psi, problem, size)


def test_grid_size_is_at_most_max_grid_size():
    problem = benchmark_problem(1, 0.5, 1.0)
    psi = solve(problem, 3).psi
    report = max_error(psi, problem.exact, MAX_GRID_SIZE)
    assert len(report.grid) == MAX_GRID_SIZE and report.grid[-1] == 1.0
    for size in (MAX_GRID_SIZE + 1, 10**18):  # refused before any array is allocated
        message = f"^grid_size must be at most {MAX_GRID_SIZE}, got {size}$"
        with pytest.raises(InvalidProblem, match=message):
            max_error(psi, problem.exact, size)
        with pytest.raises(InvalidProblem, match=message):
            max_errors([psi, psi], problem.exact, size)
        with pytest.raises(InvalidProblem, match=message):
            residual(psi, problem, size)


def test_max_error_locates_maximum():
    # psi - exact = 0.01*x^2, maximal at the right endpoint
    exact = parse("x")
    psi = GPSeries(
        GPSeries.monomial(1.0, 1.0).terms + GPSeries.monomial(0.01, 2.0).terms
    )
    report = max_error(psi, exact, 10)
    assert [f.name for f in dataclasses.fields(ErrorReport)] == [
        "grid", "errors", "max_error", "max_point"]
    assert report.max_point == 1.0
    assert report.max_error == pytest.approx(0.01)
    assert len(report.errors) == 10
    assert report.errors.max() == report.max_error


def test_max_error_rejects_nonreference_expression():
    with pytest.raises(InvalidExactSolution):
        max_error(GPSeries.zero(), parse("y"), 10)


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 3000])
def test_max_error_rejects_a_reference_past_the_depth_bound(depth):
    with pytest.raises(
        InvalidExactSolution, match=f"^reference nests deeper than {MAX_DEPTH} levels$"
    ):
        max_error(GPSeries.zero(), left_nested_sum(X, depth), 10)


def test_max_error_accepts_a_reference_at_the_depth_bound():
    report = max_error(GPSeries.zero(), left_nested_sum(X, MAX_DEPTH), 10)
    assert report.max_error == MAX_DEPTH


def test_max_error_overflow_is_non_finite_term():
    psi = GPSeries.constant(1e308)
    for exact in ("-1e308 + 0*x", "1e308*x + 1e308", "(1e200*x)*(1e200*x)"):
        with pytest.raises(NonFiniteTerm, match="^psi - exact overflows on the grid$"):
            max_error(psi, parse(exact), 10)
    with pytest.raises(NonFiniteTerm, match=r"'exp\(1000\.0\*x\)' overflows"):
        max_error(psi, parse("exp(1000*x)"), 10)


@pytest.mark.parametrize("example,beta", [(1, 1.0), (1, 3.5), (2, 1.0), (3, 1.0), (3, 2.5)])
def test_max_errors_is_max_error_of_each_partial_sum(example, beta):
    # the published tables: psi_5, psi_8 and psi_10 of each alpha against one reference
    problems = [benchmark_problem(example, alpha, beta) for alpha in (0.25, 0.5, 0.75)]
    sums = [partial_sum(solve(problem, 10), n) for problem in problems for n in (5, 8, 10)]
    for exact in (problems[0].exact, problems[-1].exact):
        reports = max_errors(sums, exact, 1000)
        assert len(reports) == len(sums)
        for got, psi, problem in zip(reports, sums, [p for p in problems for _ in range(3)]):
            want = max_error(psi, problem.exact, 1000)
            assert got.grid.tobytes() == want.grid.tobytes()
            assert got.errors.tobytes() == want.errors.tobytes()
            assert (got.max_error, got.max_point) == (want.max_error, want.max_point)
            assert not got.grid.flags.writeable and not got.errors.flags.writeable


def test_max_errors_of_no_partial_sum_still_checks_the_reference():
    assert max_errors([], parse("x"), 10) == []
    with pytest.raises(InvalidExactSolution):
        max_errors([], parse("y"), 10)


def test_a_partial_sum_that_overflows_after_a_finite_one_is_a_non_finite_term():
    sums = [GPSeries.constant(1.0), GPSeries.constant(1e308), GPSeries.constant(-1e308)]
    with pytest.raises(NonFiniteTerm, match="^psi - exact overflows on the grid$"):
        max_errors(sums, parse("-1e308 + 0*x"), 10)


def test_benchmark_error_magnitude():
    # family 1 at alpha=0.5: ten components land near 6e-10
    problem = benchmark_problem(1, 0.5, 1.0)
    report = solve(problem, 10)
    err = max_error(report.psi, problem.exact, 1000)
    assert 3e-10 <= err.max_error <= 1.2e-9


# --- residual -----------------------------------------------------------------------


def test_residual_zero_problem():
    problem = Problem(
        alpha=0.5, sigma=0.0, f=parse("0"), eta1=2.0,
        alpha1=1.0, beta1=0.0, gamma1=2.0,
    )
    psi = GPSeries.constant(2.0)
    assert all(r == 0.0 for _, r in residual(psi, problem, 50))


def test_residual_of_constant_guess():
    # linear family: residual of the flat guess is -x^sigma * f(eta1)
    problem = benchmark_problem(3, 0.5, 1.0)  # f = x*yp + 0.5*y, sigma = -0.5
    psi = GPSeries.constant(1.0)
    for x, r in residual(psi, problem, 10):
        assert r == pytest.approx(-(x**-0.5) * 0.5, rel=1e-12)


def test_residual_single_point_grid():
    problem = benchmark_problem(3, 0.5, 1.0)
    pairs = residual(GPSeries.constant(1.0), problem, 1)
    assert len(pairs) == 1 and pairs[0][0] == 1.0


def test_residual_overflow_is_non_finite_term():
    problem = Problem(
        alpha=0.5, sigma=0.0, f=parse("y*y"), eta1=1e308,
        alpha1=1.0, beta1=0.0, gamma1=1e308,
    )
    with pytest.raises(NonFiniteTerm, match="^the residual overflows on the grid$"):
        residual(GPSeries.constant(1e308), problem, 10)


@pytest.mark.parametrize("example,beta", [(1, 3.5), (2, 1.0), (3, 2.5)])
def test_residual_grid_agrees_with_pointwise_evaluation(example, beta):
    problem = benchmark_problem(example, 0.37, beta)
    psi = solve(problem, 10).psi
    lhs = apply_forward(problem.alpha, psi)
    psi_prime = differentiate(psi)
    for x, r in residual(psi, problem, 250):
        y, yp = evaluate(psi, x), evaluate(psi_prime, x)
        want = evaluate(lhs, x) - x ** problem.sigma * eval_real(problem.f, x, y, yp)
        assert abs(r - want) <= 1e-12


RESIDUAL_PROBLEMS = {
    "family-1-3.5": lambda: benchmark_problem(1, 0.37, 3.5),
    "family-2": lambda: benchmark_problem(2, 0.37, 1.0),
    "family-3-2.5": lambda: benchmark_problem(3, 0.37, 2.5),
    "exp_dirichlet": lambda: load_problem(
        Path(__file__).parents[1] / "demos" / "problems" / "exp_dirichlet.prob"),
}


@pytest.mark.parametrize("name", RESIDUAL_PROBLEMS)
def test_residual_grid_is_the_formula_of_one_series_at_a_time_bit_for_bit(name):
    # psi, psi' and (x^alpha psi')' each evaluated alone, as evaluate_many gives them
    problem = RESIDUAL_PROBLEMS[name]()
    psi = solve(problem, 10).psi
    xs = np.arange(1, 1001, dtype=float) / 1000
    y, yp = evaluate_many(psi, xs), evaluate_many(differentiate(psi), xs)
    lhs = evaluate_many(apply_forward(problem.alpha, psi), xs)
    want = lhs - xs ** problem.sigma * eval_real(problem.f, xs, y, yp)
    grid, values = residual_grid(psi, problem, 1000)
    assert grid.tobytes() == xs.tobytes()
    assert values.tobytes() == want.tobytes()


def test_max_error_matches_pointwise_reference_bit_for_bit():
    problem = benchmark_problem(1, 0.25, 3.5)
    psi = solve(problem, 8).psi
    report = max_error(psi, problem.exact, 500)
    for x, err in zip(report.grid.tolist(), report.errors.tolist()):
        assert err == abs(evaluate(psi, x) - eval_real(problem.exact, x))


def test_residual_decreases_with_more_components():
    problem = benchmark_problem(2, 0.5, 1.0)
    report = solve(problem, 10)
    r5 = max(abs(v) for _, v in residual(partial_sum(report, 5), problem, 200))
    r10 = max(abs(v) for _, v in residual(report.psi, problem, 200))
    assert r10 < r5 / 100.0


def test_residual_error_consistency_at_ten_components():
    # family 1 meets the 1e-6 ceiling on [0.1, 1]; the other two families'
    # ten-component sums are genuinely coarser (cf. notes in the error tables
    # regression) and sit below 2e-5.
    for example, ceiling in [(1, 1e-6), (2, 2e-5), (3, 2e-5)]:
        problem = benchmark_problem(example, 0.5, 1.0)
        report = solve(problem, 10)
        pairs = residual(report.psi, problem, 1000)
        worst = max(abs(v) for x, v in pairs if x >= 0.1)
        assert worst < ceiling, (example, worst)


# --- quadrature oracle ---------------------------------------------------------------


def test_oracle_matches_closed_form_spot():
    ctx = OperatorContext(0.5, -0.5)
    g = GPSeries.constant(-0.125)
    assert quadrature_oracle(ctx, g, 1.0) == pytest.approx(-0.25, abs=1e-8)


def test_oracle_zero():
    assert quadrature_oracle(OperatorContext(0.5, 0.0), GPSeries.zero(), 0.7) == 0.0


def test_oracle_linearity():
    ctx = OperatorContext(0.25, 0.0)
    g1 = GPSeries.monomial(1.3, 0.7)
    g2 = GPSeries.monomial(-0.8, 2.0)
    a, b = 2.0, -3.0
    from adomian_bvp.series import add, scale

    lhs = quadrature_oracle(ctx, add(scale(g1, a), scale(g2, b)), 0.9)
    rhs = a * quadrature_oracle(ctx, g1, 0.9) + b * quadrature_oracle(ctx, g2, 0.9)
    assert lhs == pytest.approx(rhs, abs=2e-8)


def test_oracle_agrees_with_closed_form_randomly():
    rng = np.random.default_rng(13)
    for alpha in (0.25, 0.5, 0.75):
        ctx = OperatorContext(alpha, -0.5)
        for _ in range(20):
            r = float(rng.uniform(alpha - 2 + 0.05, 6.0))
            if abs(r + 1.0) < 0.05:
                continue
            g = GPSeries.monomial(float(rng.uniform(-2, 2)) or 1.0, r + 0.5)
            u = apply_inverse(ctx, g)
            for x in (0.1, 0.5, 1.0):
                assert quadrature_oracle(ctx, g, x) == pytest.approx(
                    evaluate(u, x), abs=1e-8
                )


def test_oracle_against_raw_double_integral():
    # independent meta-check: tanh-sinh quadrature of the unsubstituted integral
    ctx = OperatorContext(0.5, -0.5)
    g = GPSeries.monomial(0.7, 1.2)
    with mp.workdps(20):
        inner = lambda s: mp.quad(lambda t: 0.7 * t ** (1.2 - 0.5), [s, 1])
        ref = float(mp.quad(lambda s: s**-0.5 * inner(s), [0, 0.6]))
    assert quadrature_oracle(ctx, g, 0.6) == pytest.approx(ref, abs=1e-8)


def test_oracle_rejects_resonant_input():
    ctx = OperatorContext(0.5, -0.5)
    with pytest.raises(QuadratureFailure):
        quadrature_oracle(ctx, GPSeries.monomial(1.0, -0.5), 0.5)


# --- table formatting ------------------------------------------------------------------


def test_format_error_table_layout():
    cells = {
        (0.25, 5): 1.11205e-5,
        (0.25, 8): 2.30301e-8,
        (0.5, 5): 1.52386e-5,
        (0.5, 8): 2.68725e-8,
    }
    text = format_error_table([0.25, 0.5], [5, 8], cells)
    lines = text.splitlines()
    assert lines[0].split() == ["alpha", "E^5", "E^8"]
    assert lines[1].split() == ["0.25", "1.11205e-05", "2.30301e-08"]
    assert lines[2].split() == ["0.5", "1.52386e-05", "2.68725e-08"]


def test_monotone_improvement_per_benchmark_cell():
    for example, beta in [(1, 1.0), (1, 3.5), (2, 1.0), (3, 1.0), (3, 2.5)]:
        for alpha in (0.25, 0.5, 0.75):
            problem = benchmark_problem(example, alpha, beta)
            report = solve(problem, 10)
            errs = [
                max_error(partial_sum(report, n), problem.exact, 1000).max_error
                for n in (5, 8, 10)
            ]
            assert errs[0] > errs[1] > errs[2], (example, beta, alpha, errs)
