"""Recursion correctness: printed-component regressions and structural properties."""

import math

import numpy as np
import pytest

from support import FIRST_COMPONENT, PRINTED_COMPONENTS, assert_series_matches_printed

from adomian_bvp.benchmarks import benchmark_problem
from adomian_bvp.errors import (
    DivisionByZeroSeries,
    InputError,
    InvalidExactSolution,
    InvalidProblem,
    LogOfNonPositive,
    LogResonance,
    NonConstantBasePoint,
)
from adomian_bvp.expressions import parse
from adomian_bvp.series import GPSeries, differentiate, evaluate
from adomian_bvp.solver import Problem, SolveReport, partial_sum, solve


# --- printed component regressions ------------------------------------------------


@pytest.mark.parametrize("key", sorted(PRINTED_COMPONENTS))
def test_components_match_printed_expansions(key):
    example, alpha, beta = key
    report = solve(benchmark_problem(example, alpha, beta), 5)
    assert evaluate(report.components[0], 1.0) == pytest.approx(
        FIRST_COMPONENT[example], rel=1e-14
    )
    for k, printed in PRINTED_COMPONENTS[key].items():
        assert_series_matches_printed(report.components[k], printed)


def test_first_components_per_problem():
    # y_1 leading coefficients for the three families at alpha = 0.5
    r1 = solve(benchmark_problem(1, 0.5, 1.0), 2)
    assert r1.components[1].terms[0].coeff == pytest.approx(
        math.log(4.0 / 5.0) + 0.25, rel=1e-12
    )
    r2 = solve(benchmark_problem(2, 0.5, 1.0), 2)
    assert r2.components[1].terms[0].coeff == pytest.approx(
        math.log(2.0 / 3.0) + 0.5, rel=1e-12
    )
    r3 = solve(benchmark_problem(3, 0.5, 1.0), 2)
    assert r3.components[1].terms[0].coeff == pytest.approx(math.e - 2.0, rel=1e-12)


# --- partial sums -------------------------------------------------------------------


def test_partial_sum_bounds_and_identity():
    report = solve(benchmark_problem(1, 0.5, 1.0), 4)
    first = partial_sum(report, 1)
    assert [(t.coeff, t.exponent) for t in first.terms] == [
        (pytest.approx(-math.log(4.0)), 0.0)
    ]
    assert partial_sum(report, report.n) == report.psi
    with pytest.raises(ValueError):
        partial_sum(report, 0)
    with pytest.raises(ValueError):
        partial_sum(report, 5)


def test_partial_sum_two_components():
    report = solve(benchmark_problem(1, 0.5, 1.0), 2)
    psi2 = partial_sum(report, 2)
    assert evaluate(psi2, 1.0) == pytest.approx(-math.log(5.0), rel=1e-12)
    assert psi2.terms[0].coeff == pytest.approx(-1.38629436, rel=1e-8)


def test_report_structure():
    report = solve(benchmark_problem(3, 0.5, 1.0), 6)
    assert isinstance(report, SolveReport)
    assert report.n == 6 and len(report.components) == 6
    assert len(report.diagnostics) == 6
    assert all(d.terms == len(report.components[d.step]) for d in report.diagnostics)
    # psi is the coefficient-wise sum of all components
    acc = GPSeries.zero()
    from adomian_bvp.series import add

    for c in report.components:
        acc = add(acc, c)
    assert acc == report.psi


# --- boundary exactness ----------------------------------------------------------------


def _random_problem(rng, template):
    return Problem(
        alpha=float(rng.uniform(0.0, 0.95)),
        sigma=float(rng.uniform(0.0, 1.0)),
        f=parse(template),
        eta1=float(rng.uniform(-1.0, 1.0)),
        alpha1=float(rng.uniform(0.05, 2.0)),
        beta1=float(rng.uniform(0.0, 2.0)),
        gamma1=float(rng.uniform(-1.0, 1.0)),
    )


FEED_TEMPLATES = [
    "0.3 + 0.5*x",
    "exp(y)*(x*yp + 0.4)",
    "0.7*y + 0.2*x*yp",
    "1/(2 + y)",
    "x^0.5*y - 0.3*yp*x",
]


def test_boundary_exactness_random_robin_problems():
    rng = np.random.default_rng(12)
    for trial in range(30):
        problem = _random_problem(rng, FEED_TEMPLATES[trial % len(FEED_TEMPLATES)])
        report = solve(problem, 6)
        for m in range(1, 7):
            psi = partial_sum(report, m)
            assert evaluate(psi, 0.0) == problem.eta1  # exact, not approximate
            if m >= 2:
                combo = problem.alpha1 * evaluate(psi, 1.0) + problem.beta1 * evaluate(
                    differentiate(psi), 1.0
                )
                assert abs(combo - problem.gamma1) <= 1e-10


def test_linear_problem_scales_linearly():
    # doubling the boundary gap with eta1 = 0 doubles every component
    f = "1*(x*yp + 0.5*y)"
    base = Problem(alpha=0.5, sigma=-0.5, f=parse(f), eta1=0.0,
                   alpha1=1.0, beta1=0.0, gamma1=1.0)
    doubled = Problem(alpha=0.5, sigma=-0.5, f=parse(f), eta1=0.0,
                      alpha1=1.0, beta1=0.0, gamma1=2.0)
    rb, rd = solve(base, 6), solve(doubled, 6)
    for cb, cd in zip(rb.components[1:], rd.components[1:]):
        assert len(cb) == len(cd)
        for tb, td in zip(cb.terms, cd.terms):
            assert td.exponent == pytest.approx(tb.exponent, abs=1e-12)
            assert td.coeff == pytest.approx(2.0 * tb.coeff, rel=1e-12)


# --- validation and failure tagging -------------------------------------------------------


def test_problem_validation():
    f = parse("y")
    with pytest.raises(ValueError):
        Problem(alpha=1.2, sigma=0.0, f=f, eta1=0, alpha1=1, beta1=0, gamma1=1)
    with pytest.raises(ValueError):
        Problem(alpha=0.5, sigma=0.0, f=f, eta1=0, alpha1=0.0, beta1=0, gamma1=1)
    with pytest.raises(ValueError):
        Problem(alpha=0.5, sigma=0.0, f=f, eta1=0, alpha1=1, beta1=-1, gamma1=1)
    with pytest.raises(InvalidExactSolution):
        Problem(alpha=0.5, sigma=0.0, f=f, eta1=0, alpha1=1, beta1=0, gamma1=1,
                exact=parse("y + 1"))


@pytest.mark.parametrize("name", ["alpha", "sigma", "eta1", "alpha1", "beta1", "gamma1"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_problem_rejects_non_finite_numbers(name, value):
    data = dict(alpha=0.5, sigma=0.0, f=parse("y"), eta1=0.0, alpha1=1.0, beta1=0.0,
                gamma1=1.0)
    data[name] = value
    with pytest.raises(InvalidProblem, match=f"{name} must be finite"):
        Problem(**data)


def test_invalid_problem_is_an_input_error_and_a_value_error():
    assert issubclass(InvalidProblem, InputError)
    assert issubclass(InvalidProblem, ValueError)


def test_solve_needs_positive_n():
    with pytest.raises(ValueError):
        solve(benchmark_problem(1, 0.5, 1.0), 0)


@pytest.mark.parametrize(
    "source,sigma,eta1,error,subexpression",
    [
        # sigma = -1 makes the very first weighted exponent resonant
        pytest.param("1", -1.0, 0.0, LogResonance, None, id="resonance"),
        # base-point failures of the ring, named after their node
        pytest.param(
            "exp(x)", 0.0, 0.0, NonConstantBasePoint, "exp(x)", id="exp-nonconstant"
        ),
        pytest.param("ln(y)", 0.0, -1.0, LogOfNonPositive, "ln(y)", id="ln-negative"),
        pytest.param("1/y", 0.0, 0.0, DivisionByZeroSeries, "1.0/y", id="recip-zero"),
    ],
)
def test_solver_errors_carry_step_index(source, sigma, eta1, error, subexpression):
    problem = Problem(
        alpha=0.5, sigma=sigma, f=parse(source), eta1=eta1,
        alpha1=1.0, beta1=0.0, gamma1=1.0,
    )
    with pytest.raises(error) as exc:
        solve(problem, 3)
    assert type(exc.value) is error
    assert "component 1" in str(exc.value)
    if subexpression is not None:
        assert str(exc.value).endswith(f"[in {subexpression!r}]")
