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
"""

import contextlib
import io
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from support import ADMISSIBLE_TEMPLATES

from adomian_bvp.cli import main
from adomian_bvp.errors import NonFiniteTerm, ParseError, UnsupportedPower
from adomian_bvp.expressions import parse, to_source
from adomian_bvp.problem_file import OPTIONAL_KEYS, REQUIRED_KEYS
from adomian_bvp.series import differentiate, evaluate
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
    keys = list(REQUIRED_KEYS + OPTIONAL_KEYS)
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
