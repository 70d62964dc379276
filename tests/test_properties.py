"""Hypothesis properties of the input surface.

* Any problem-file text ends in a result or one structured error.  Random
  files mix the format's keys (missing, repeated, unknown), numbers at the
  edges of IEEE doubles (nan, inf, 1e308, 1e999) and small exp/ln/^
  expressions.  ``solve`` must return 0, 3 or 4 and never raise; when it
  fails it prints exactly one ``error: Code(detail)`` line.
* Any expression the parser accepts prints back to source that parses to
  the same AST, and printing is stable from the first round trip on.
* Every partial sum of an admissible problem meets both boundary conditions:
  psi_m(0) is eta1 bit for bit, also when eta1 is tiny or huge next to the
  other coefficients, and the Robin combination at x = 1 is gamma1 to 1e-10
  of the data's scale.
* The tape's decomposition polynomials A_k of any f it accepts are the Taylor
  coefficients of f(x, y(lambda), y'(lambda)) in lambda, as discrete Cauchy
  integrals around a circle compute them in complex arithmetic: to 1e-11 of
  max_k |A_k(x)| for the random f of the problem-file property, and for fixed
  f that reach every recurrence through y and yp.
"""

import collections
import contextlib
import io
import re

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from support import ADMISSIBLE_TEMPLATES, Unresolved, adomian_polynomials, eval_on_circle

from adomian_bvp.benchmarks import benchmark_problem
from adomian_bvp.cli import main
from adomian_bvp.errors import ComputeError, NonFiniteTerm, ParseError, UnsupportedPower
from adomian_bvp.expressions import parse, to_source
from adomian_bvp.problem_file import FIELDS
from adomian_bvp.series import differentiate, evaluate, evaluate_many, normalize
from adomian_bvp.solver import Problem, solve

ERROR_LINE = re.compile(r"^error: \w+\(.*\)$")

EDGE_NUMBERS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e999", "-1e999", "1e308", "-1e308",
                     "1e-308", "-0.0", "-1", "1", "one"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)

# Values the solver accepts, so that most files reach it.
TYPICAL_NUMBERS = {
    "p_exponent": st.sampled_from(["0", "0.25", "0.5", "0.75"]),
    "q_exponent": st.sampled_from(["-0.5", "0", "0.5", "1"]),
    "alpha1": st.sampled_from(["1", "2", "0.5"]),
    "beta1": st.sampled_from(["0", "1"]),
    "eta1": st.floats(-2.0, 2.0).map(repr),
    "gamma1": st.floats(-2.0, 2.0).map(repr),
}


def _expressions(names):
    leaves = st.one_of(
        st.sampled_from(names + ["0", "1", "0.5", "1000*x", "1e308", "1e999", "x^-0.5"]),
        st.floats(min_value=-1e3, max_value=1e3).map(repr),
    )

    def compound(inner):
        return st.one_of(
            st.builds("exp({})".format, inner),
            st.builds("ln({})".format, inner),
            st.builds("-({})".format, inner),
            st.builds("({})^{}".format, inner, st.integers(-3, 4)),
            st.builds("({}) {} ({})".format, inner, st.sampled_from("+-*/"), inner),
        )

    return st.recursive(leaves, compound, max_leaves=5)


VALUES = {
    **TYPICAL_NUMBERS,
    "f": _expressions(["x", "y", "yp"]),
    "exact": _expressions(["x", "x", "y"]),
}


@st.composite
def problem_texts(draw):
    keys = list(FIELDS)
    if draw(st.integers(0, 4)) == 4:  # a format fault: drop, repeat or add keys
        keys = draw(st.lists(st.sampled_from(keys + ["unknown"]), max_size=2)) + [
            key for key in keys if draw(st.integers(0, 5))
        ]
    edge = draw(st.sampled_from([None] * 4 + list(TYPICAL_NUMBERS)))  # at most one
    lines = []
    for key in draw(st.permutations(keys)):
        value = draw(EDGE_NUMBERS if key == edge else VALUES.get(key, EDGE_NUMBERS))
        lines.append(f'{key} = "{value}"' if key in ("f", "exact") else f"{key} = {value}")
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(text=problem_texts())
def test_solve_on_any_problem_file_returns_a_code_or_one_error_line(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "problem.prob"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["solve", str(path), "--n", "3", "--grid", "50"])
    assert code in (0, 3, 4), text
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and ERROR_LINE.match(lines[0]), (text, err.getvalue())


# Unparenthesised operators, so that printing has to get precedence right.
SOURCES = st.recursive(
    st.one_of(
        st.sampled_from(["x", "y", "yp", "0", "1", "0.5", "2.5E+2", "1e-3", "x^0.5",
                         "x^-1.5"]),
        st.floats(min_value=0.0, max_value=1e6).map(repr),
    ),
    lambda inner: st.one_of(
        st.builds("exp({})".format, inner),
        st.builds("ln({})".format, inner),
        st.builds("-{}".format, inner),
        st.builds("({})".format, inner),
        st.builds("{}^{}".format, inner, st.integers(-3, 4)),
        st.builds("{} {} {}".format, inner, st.sampled_from("+-*/"), inner),
    ),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(source=SOURCES)
def test_printed_expressions_parse_back_to_the_same_ast(source):
    try:
        ast = parse(source)
    except (ParseError, UnsupportedPower):
        return
    printed = to_source(ast)
    assert parse(printed) == ast, (source, printed)
    assert to_source(parse(printed)) == printed


def _signed_power_of_ten(low, high):
    return st.builds(lambda sign, power: sign * 10.0 ** power,
                     st.sampled_from([-1.0, 1.0]), st.floats(low, high))


# The ranges of acceptance criterion 5, with eta1 also tiny or huge.
ADMISSIBLE_PROBLEMS = st.builds(
    Problem,
    alpha=st.floats(0.0, 0.95),
    sigma=st.floats(0.0, 1.0),
    f=st.sampled_from(ADMISSIBLE_TEMPLATES).map(parse),
    eta1=st.one_of(st.floats(-1.0, 1.0), _signed_power_of_ten(-300.0, -15.0),
                   _signed_power_of_ten(15.0, 300.0)),
    alpha1=st.floats(0.05, 2.0),
    beta1=st.floats(0.0, 2.0),
    gamma1=st.floats(-1.0, 1.0),
)


@settings(max_examples=150, deadline=None)
@given(problem=ADMISSIBLE_PROBLEMS)
def test_every_partial_sum_meets_both_boundary_conditions(problem):
    try:
        report = solve(problem, 6)
    except NonFiniteTerm:  # only exp(y) at a huge eta1 overflows
        assert "exp" in to_source(problem.f) and problem.eta1 > 709.0, problem
        return
    scale = max(1.0, abs(problem.eta1), abs(problem.gamma1))
    for m, psi in enumerate(report.partial_sums, 1):
        assert evaluate(psi, 0.0) == problem.eta1, (problem, m)
        if m >= 2:
            combo = problem.alpha1 * evaluate(psi, 1.0) + problem.beta1 * evaluate(
                differentiate(psi), 1.0
            )
            assert abs(combo - problem.gamma1) <= 1e-10 * scale, (problem, m, combo)


# y = sum lambda^i y_i with y_0 = 0.4 and y_i = 0.5^i x^(i/2) - 0.3*0.4^i x^(i/2 + 1/2):
# a Taylor series in lambda that converges for |lambda| < 2 on (0, 1].
CAUCHY_X = np.array([0.3, 0.7, 1.0])
CAUCHY_K, CAUCHY_RHO = 12, 0.5
CAUCHY_Y = [normalize([(0.4, 0.0)])] + [
    normalize([(0.5**i, i / 2), (-0.3 * 0.4**i, i / 2 + 0.5)]) for i in range(1, CAUCHY_K)
]
Y_AT_X = np.array([evaluate_many(c, CAUCHY_X) for c in CAUCHY_Y])
YP_AT_X = np.array([evaluate_many(differentiate(c), CAUCHY_X) for c in CAUCHY_Y])


def _cauchy_integrals(f, n):
    """A_0..A_(K-1) at CAUCHY_X as FFT(g(rho w^j))_k / (n rho^k), w = exp(2 pi i/n)."""
    lam = CAUCHY_RHO * np.exp(2j * np.pi * np.arange(n) / n)
    powers = lam[:, None] ** np.arange(CAUCHY_K)
    y, yp = powers @ Y_AT_X, powers @ YP_AT_X
    g = np.stack([eval_on_circle(f, x, y[:, j], yp[:, j]) for j, x in enumerate(CAUCHY_X)], 1)
    return np.fft.fft(g, axis=0)[:CAUCHY_K] / (n * CAUCHY_RHO ** np.arange(CAUCHY_K))[:, None]


def _adomian_against_cauchy(source):
    """Compare the tape's A_k at CAUCHY_X with their Cauchy integrals; name the outcome.

    The integrals on 128 and on 256 points must agree first: where they do
    not, aliasing, cancellation or subnormals in the complex evaluation of f
    leave the oracle short of the bound, and the draw is skipped.
    """
    try:
        f = parse(source)
    except (ParseError, UnsupportedPower):
        return "rejected by parse"
    try:
        a_k = adomian_polynomials(f, CAUCHY_Y)
    except ComputeError as err:
        return f"tape: {err.code}"
    with np.errstate(all="ignore"):
        tape_values = np.array([evaluate_many(a, CAUCHY_X) for a in a_k])
        try:
            coarse, fine = _cauchy_integrals(f, 128), _cauchy_integrals(f, 256)
        except Unresolved as err:
            return str(err)
        values = (tape_values, coarse, fine)
        if not all(np.all(np.isfinite(v)) for v in values):
            return "not finite"
        # relative to max_k |A_k(x)|, by either route: a tape that lost its
        # values cannot shrink the bound that the oracle is held to
        tol = 1e-11 * np.max([np.max(np.abs(v), axis=0) for v in values], axis=0)
    if np.any(np.abs(fine - coarse) > tol):
        return "the 128- and 256-point integrals disagree"
    assert np.all(np.abs(coarse - tape_values) <= tol), (source, coarse, tape_values)
    return "compared"


def test_decomposition_polynomials_are_cauchy_integrals_of_f():
    outcomes = collections.Counter()

    @settings(max_examples=300, deadline=None)
    @given(source=VALUES["f"])
    def check(source):
        outcome = _adomian_against_cauchy(source)
        event(outcome)
        outcomes[outcome] += 1

    check()
    assert outcomes["compared"] >= sum(outcomes.values()) / 2, outcomes


# Most random f above do not mention y or yp; these do, through every recurrence.
DEPENDENT_F = ADMISSIBLE_TEMPLATES + [
    to_source(benchmark_problem(*args).f)
    for args in [(1, 0.5, 1.0), (1, 0.5, 3.5), (2, 0.5, 1.0), (3, 0.5, 2.5)]
] + ["ln(1 + y*yp) - y^-2", "(x + y)^3/(1 + yp^2)", "exp(0.5*y)^2/(2 + yp)"]


@pytest.mark.parametrize("source", DEPENDENT_F)
def test_decomposition_polynomials_of_fixed_f_are_cauchy_integrals(source):
    assert _adomian_against_cauchy(source) == "compared"
