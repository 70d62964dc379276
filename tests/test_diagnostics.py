"""Error reports, residuals, the quadrature cross-check, and table formatting."""

import mpmath as mp
import numpy as np
import pytest

from adomian_bvp.benchmarks import benchmark_problem
from adomian_bvp.diagnostics import (
    format_error_table,
    max_error,
    quadrature_oracle,
    residual,
)
from adomian_bvp.errors import InvalidExactSolution, NonFiniteTerm, QuadratureFailure
from adomian_bvp.expressions import eval_real, parse
from adomian_bvp.series import GPSeries, differentiate, evaluate
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


def test_max_error_locates_maximum():
    # psi - exact = 0.01*x^2, maximal at the right endpoint
    exact = parse("x")
    psi = GPSeries(
        GPSeries.monomial(1.0, 1.0).terms + GPSeries.monomial(0.01, 2.0).terms
    )
    report = max_error(psi, exact, 10, n=3)
    assert report.max_point == 1.0
    assert report.max_error == pytest.approx(0.01)
    assert report.n == 3
    assert len(report.errors) == 10
    assert report.errors.max() == report.max_error


def test_max_error_rejects_nonreference_expression():
    with pytest.raises(InvalidExactSolution):
        max_error(GPSeries.zero(), parse("y"), 10)


def test_max_error_overflow_is_non_finite_term():
    psi = GPSeries.constant(1e308)
    for exact in ("-1e308 + 0*x", "1e308*x + 1e308", "(1e200*x)*(1e200*x)"):
        with pytest.raises(NonFiniteTerm, match="^psi - exact overflows on the grid$"):
            max_error(psi, parse(exact), 10)
    with pytest.raises(NonFiniteTerm, match=r"'exp\(1000\.0\*x\)' overflows"):
        max_error(psi, parse("exp(1000*x)"), 10)


def test_benchmark_error_magnitude():
    # family 1 at alpha=0.5: ten components land near 6e-10
    problem = benchmark_problem(1, 0.5, 1.0)
    report = solve(problem, 10)
    err = max_error(report.psi, problem.exact, 1000, n=10)
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
