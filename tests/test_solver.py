"""Recursion correctness: printed-component regressions and structural properties."""

import dataclasses
import itertools
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from support import (
    ADMISSIBLE_TEMPLATES,
    FIRST_COMPONENT,
    PRINTED_COMPONENTS,
    assert_series_matches_printed,
    left_nested_sum,
)

from adomian_bvp import solver
from adomian_bvp.benchmarks import benchmark_problem
from adomian_bvp.errors import (
    DivisionByZeroSeries,
    InputError,
    InvalidExactSolution,
    InvalidProblem,
    LogOfNonPositive,
    LogResonance,
    NonConstantBasePoint,
    NonFiniteTerm,
    TermBlowup,
)
from adomian_bvp.expressions import MAX_DEPTH, X, Y, parse
from adomian_bvp.problem_file import load_problem
from adomian_bvp.series import GPSeries, Term, add, combine, differentiate, evaluate
from adomian_bvp.solver import Problem, SolveReport, Step, check_count, partial_sum, solve, steps


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
    with pytest.raises(InvalidProblem, match=r"^m must be at least 1, got 0$"):
        partial_sum(report, 0)
    with pytest.raises(InvalidProblem, match=r"^m must be at most 4, got 5$"):
        partial_sum(report, np.int64(5))


def test_partial_sum_takes_an_integer_m_only():
    report = solve(benchmark_problem(1, 0.5, 1.0), 3)
    assert partial_sum(report, np.int64(2)) == partial_sum(report, 2)
    assert partial_sum(report, True) == partial_sum(report, 1)
    for m in (2.0, "2", None):
        message = f"^m must be an integer, got {re.escape(repr(m))}$"
        with pytest.raises(InvalidProblem, match=message):
            partial_sum(report, m)


def test_partial_sum_two_components():
    report = solve(benchmark_problem(1, 0.5, 1.0), 2)
    psi2 = partial_sum(report, 2)
    assert evaluate(psi2, 1.0) == pytest.approx(-math.log(5.0), rel=1e-12)
    assert psi2.terms[0].coeff == pytest.approx(-1.38629436, rel=1e-8)


def test_report_structure():
    report = solve(benchmark_problem(3, 0.5, 1.0), 6)
    assert isinstance(report, SolveReport)
    assert report.n == 6 and len(report.components) == 6
    assert [d.step for d in report.diagnostics] == list(range(6))
    assert all(d.y is report.components[d.step] for d in report.diagnostics)
    assert all(d.terms == len(report.components[d.step]) for d in report.diagnostics)


def test_a_report_holds_each_step_once_and_reads_components_n_and_terms_from_it():
    # no field repeats another, so components, n and terms cannot disagree with the steps
    assert [f.name for f in dataclasses.fields(SolveReport)] == ["diagnostics", "psi"]
    assert [f.name for f in dataclasses.fields(Step)] == ["step", "y", "seconds"]
    report = solve(benchmark_problem(1, 0.5, 1.0), 5)
    cut = dataclasses.replace(report, diagnostics=report.diagnostics[:3])
    assert cut.n == 3 and cut.components == tuple(d.y for d in report.diagnostics[:3])
    assert all(a is b for a, b in zip(cut.components, report.components))
    one = dataclasses.replace(report.diagnostics[2], y=GPSeries.constant(2.0))
    assert one.terms == 1 < report.diagnostics[2].terms == len(report.diagnostics[2].y)


def test_one_count_rule_names_the_count_its_bound_and_the_value():
    assert [check_count(np.int64(k), "k", 1, 3) for k in (1, 3)] == [1, 3]  # both bounds included
    assert type(check_count(np.int64(3), "k", 1, 3)) is int
    assert check_count(10**30, "k", 1) == 10**30  # no upper bound without high
    for value, message in ((2.5, "k must be an integer, got 2.5"),
                           ("3", "k must be an integer, got '3'"),
                           (0, "k must be at least 1, got 0"),
                           (np.int64(-2), "k must be at least 1, got -2"),
                           (4, "k must be at most 3, got 4"),
                           (np.int64(4), "k must be at most 3, got 4")):
        with pytest.raises(InvalidProblem, match=f"^{re.escape(message)}$"):
            check_count(value, "k", 1, 3)


# the incommensurate golden points have the widest sums
@pytest.mark.parametrize("n,family,alpha,beta", [
    *((n, *problem) for n in (1, 5, 12)
      for problem in ((1, 0.5, 3.5), (2, 0.25, 1.0), (3, 0.75, 2.5))),
    (16, 1, 0.3719, 2.1234), (16, 2, 0.1234, 1.0),
])
def test_partial_sums_are_the_left_fold_of_the_components(n, family, alpha, beta):
    report = solve(benchmark_problem(family, alpha, beta), n)
    assert report.n == n == len(report.components)
    acc = GPSeries.zero()
    for m, component in enumerate(report.components, start=1):
        acc = add(acc, component)
        assert partial_sum(report, m) == acc
    assert report.psi == acc
    assert partial_sum(report, report.n) is report.psi  # psi_n is not merged again


# --- the step stream -------------------------------------------------------------------

_ROBIN_FILE = """\
p_exponent = 0.5
q_exponent = -0.5
f = "-1.0*exp(y)*(x*yp + 0.5)"
eta1 = -0.6931471805599453
alpha1 = 1.0
beta1 = 2.0
gamma1 = -1.0
"""


def _bits(a):
    return a.coeffs.tobytes(), a.exponents.tobytes()


# the four baseline rows of the ROADMAP, at alpha = 0.5, and a Robin problem file
@pytest.mark.parametrize("source", [(1, 0.5, 1.0), (1, 0.5, 3.5), (2, 0.5, 1.0), (3, 0.5, 2.5),
                                    "robin"])
def test_a_stream_read_to_n_is_solve_bit_for_bit(source, tmp_path):
    if source == "robin":
        path = tmp_path / "robin.prob"
        path.write_text(_ROBIN_FILE)
        problem = load_problem(path)
    else:
        problem = benchmark_problem(*source)
    report = solve(problem, 16)
    read = list(itertools.islice(steps(problem), 16))
    assert [_bits(step.y) for step in read] == [_bits(y) for y in report.components]
    assert _bits(combine((1.0, step.y) for step in read)) == _bits(report.psi)
    assert [(s.step, s.terms) for s in read] == [(d.step, d.terms) for d in report.diagnostics]


def test_a_stream_abandoned_after_k_steps_formed_only_those_steps(monkeypatch):
    # y_0 needs no inverse, and each later step one: k steps read are k - 1 inverses
    calls = []
    original = solver.apply_inverse
    monkeypatch.setattr(solver, "apply_inverse", lambda *args: calls.append(1) or original(*args))
    for k in (1, 2, 7):
        calls.clear()
        stream = steps(benchmark_problem(1, 0.5, 1.0))
        assert [step.step for step in itertools.islice(stream, k)] == list(range(k))
        stream.close()
        assert len(calls) == k - 1


_FAILS_AT_2 = Problem(  # y_1 is finite, and its y' overflows when A_1 is formed
    alpha=0.0, sigma=0.0, f=parse("8.640178512962757e307 * x^-0.5193741164492736"),
    eta1=0.0, alpha1=1e-300, beta1=1.0, gamma1=0.0)


@pytest.mark.parametrize("problem,k,error,message", [
    (Problem(alpha=0.5, sigma=-1.0, f=parse("1"), eta1=0.0, alpha1=1.0, beta1=0.0, gamma1=1.0),
     1, LogResonance, "component 1: weighted exponent -1 hits -1 (term x^0)"),
    (_FAILS_AT_2, 2, NonFiniteTerm, "component 2: term (inf, 0.48062588355072644) is not finite"),
])
def test_a_failing_step_raises_at_its_own_next_after_every_earlier_step(problem, k, error,
                                                                        message):
    stream = steps(problem)
    assert [next(stream).step for _ in range(k)] == list(range(k))
    with pytest.raises(error) as exc:
        next(stream)
    assert str(exc.value) == message
    assert next(stream, None) is None  # a failed stream is over
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        solve(problem, k + 1)
    assert solve(problem, k).n == k


def test_a_count_past_the_largest_index_runs_until_a_step_fails():
    # n = 10^20 is past sys.maxsize, which islice would refuse; the stream fails first
    with pytest.raises(NonFiniteTerm, match="^component 2: "):
        solve(_FAILS_AT_2, 10**20)


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


def test_boundary_exactness_random_robin_problems():
    rng = np.random.default_rng(12)
    for trial in range(30):
        problem = _random_problem(rng, ADMISSIBLE_TEMPLATES[trial % len(ADMISSIBLE_TEMPLATES)])
        report = solve(problem, 6)
        for m in range(1, 7):
            psi = partial_sum(report, m)
            assert evaluate(psi, 0.0) == problem.eta1  # exact, not approximate
            if m >= 2:
                combo = problem.alpha1 * evaluate(psi, 1.0) + problem.beta1 * evaluate(
                    differentiate(psi), 1.0
                )
                assert abs(combo - problem.gamma1) <= 1e-10


def test_partial_sums_keep_a_tiny_eta1_at_zero():
    # eta1 is 1e-150 of the other coefficients, and stays psi's constant term
    problem = Problem(
        alpha=0.0, sigma=0.0, f=parse("0.3 + 0.5*x"), eta1=3.5e-151,
        alpha1=1.0, beta1=0.0, gamma1=0.0,
    )
    report = solve(problem, 6)
    sums = [partial_sum(report, m) for m in range(1, report.n + 1)]
    assert [evaluate(psi, 0.0) for psi in sums] == [3.5e-151] * 6
    assert all(psi.terms[0] == Term(3.5e-151, 0.0) for psi in sums)


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


def test_problem_checks_alpha_before_the_boundary_data():
    with pytest.raises(InvalidProblem, match=r"^alpha must lie in \[0, 1\), got 1\.0$"):
        Problem(alpha=1.0, sigma=0.0, f=parse("y"), eta1=0, alpha1=0.0, beta1=-1, gamma1=1)


def test_problem_refuses_alpha_within_the_merge_tolerance_of_1():
    # at 1 - alpha = 1e-12 (9.99978e-13 as a float), x^(1-alpha) would merge with x^0
    with pytest.raises(InvalidProblem,
                       match=r"^1 - alpha = 9\.99978e-13 <= merge tolerance 1e-12$"):
        benchmark_problem(1, 1.0 - 1e-12, 1.0)
    # at 1.2e-12 nothing merges: psi keeps all its terms and y(0) exactly
    problem = benchmark_problem(1, 1.0 - 1.2e-12, 1.0)
    psi = solve(problem, 8).psi
    assert len(psi) == 30 and evaluate(psi, 0.0) == problem.eta1


_NUMBERS = dict(alpha=0.5, sigma=0.0, f=parse("y"), eta1=0.0, alpha1=1.0, beta1=0.0, gamma1=1.0)


@pytest.mark.parametrize("name,value", [
    ("alpha", "0.5"), ("beta1", None), ("alpha1", Decimal("1")), ("sigma", np.array(0.0)),
])
def test_problem_refuses_a_number_that_is_not_real(name, value):
    message = f"^{name} must be a real number, got {re.escape(repr(value))}$"
    with pytest.raises(InvalidProblem, match=message):
        Problem(**{**_NUMBERS, name: value})


@pytest.mark.parametrize("value", [Fraction(1, 2), np.float32(0.5), True, 1])
def test_problem_stores_each_real_number_as_a_float(value):
    names = ("sigma", "eta1", "alpha1", "beta1", "gamma1")
    problem = Problem(**{**_NUMBERS, "alpha": Fraction(1, 4), **dict.fromkeys(names, value)})
    for name in ("alpha", *names):
        assert type(getattr(problem, name)) is float
    assert problem.alpha == 0.25 and problem.alpha1 == float(value)


@pytest.mark.parametrize("alpha1", [100.0, np.float64(100.0)])
def test_numpy_boundary_data_that_overflows_is_the_non_finite_term_of_a_float(alpha1):
    # alpha1 * image(1) overflows; a numpy scalar would have warned in its own arithmetic
    problem = Problem(**{**_NUMBERS, "f": parse("1e307"), "alpha1": alpha1})
    with pytest.raises(NonFiniteTerm, match=r"^component 1: term \(inf, 0\.5\) is not finite$"):
        solve(problem, 3)


@pytest.mark.parametrize("name", ["alpha", "sigma", "eta1", "alpha1", "beta1", "gamma1"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_problem_rejects_non_finite_numbers(name, value):
    data = dict(alpha=0.5, sigma=0.0, f=parse("y"), eta1=0.0, alpha1=1.0, beta1=0.0,
                gamma1=1.0)
    data[name] = value
    with pytest.raises(InvalidProblem, match=f"{name} must be finite"):
        Problem(**data)


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 150, 3000])
def test_problem_rejects_a_hand_built_ast_past_the_depth_bound(depth):
    # parse enforces the bound on text; a hand-built AST must meet it too,
    # before any recursive walker sees it
    data = dict(alpha=0.5, sigma=0.0, f=Y, eta1=0.0, alpha1=1.0, beta1=0.0, gamma1=1.0)
    with pytest.raises(InvalidProblem, match=f"^f nests deeper than {MAX_DEPTH} levels$"):
        Problem(**{**data, "f": left_nested_sum(Y, depth)})
    with pytest.raises(
        InvalidExactSolution, match=f"^exact solution nests deeper than {MAX_DEPTH} levels$"
    ):
        Problem(**data, exact=left_nested_sum(X, depth))


def test_invalid_problem_is_an_input_error_and_a_value_error():
    assert issubclass(InvalidProblem, InputError)
    assert issubclass(InvalidProblem, ValueError)


def test_solve_needs_positive_n():
    with pytest.raises(ValueError):
        solve(benchmark_problem(1, 0.5, 1.0), 0)


def test_solve_takes_an_integer_n_only():
    problem = benchmark_problem(1, 0.5, 1.0)
    assert solve(problem, np.int64(3)).psi == solve(problem, 3).psi
    assert solve(problem, True).n == 1
    for n in (3.0, "3", 2.5, None):
        message = f"^n must be an integer, got {re.escape(repr(n))}$"
        with pytest.raises(InvalidProblem, match=message):
            solve(problem, n)
    with pytest.raises(InvalidProblem, match=r"^n must be at least 1, got 0$"):
        solve(problem, np.int64(0))


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


def test_a_sum_of_finite_components_that_overflows_names_psi():
    # y'' = -y, y(0) = 0, y(1) = 1.7e308: y_1 = 1.7e308 x and y_2 = (1.7e308/6)(x - x^3)
    # are finite, and the coefficient of x in their sum overflows
    problem = Problem(
        alpha=0.0, sigma=0.0, f=parse("-1*y"), eta1=0.0,
        alpha1=1.0, beta1=0.0, gamma1=1.7e308,
    )
    report = solve(problem, 2)
    assert evaluate(report.psi, 1.0) == 1.7e308
    with pytest.raises(NonFiniteTerm, match="^psi_3: a merged coefficient overflows$"):
        solve(problem, 3)


def test_family_1_at_beta_3_5_outgrows_the_term_cap_at_component_37():
    # The components grow until one raw product passes DEFAULT_TERM_CAP.  Which
    # component that is pins where merges happen inside the A_k.
    with pytest.raises(TermBlowup) as exc:
        solve(benchmark_problem(1, 0.5, 3.5), 40)
    assert str(exc.value).startswith("component 37: ")
