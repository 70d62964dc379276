"""Expression grammar, both evaluators, the tape against direct evaluation, and
print/parse stability."""

import math
import re

import numpy as np
import pytest

from support import adomian_polynomials, taylor_gap

from adomian_bvp.benchmarks import benchmark_problem
from adomian_bvp.errors import (
    DivisionByZero,
    DomainError,
    LogOfNonPositive,
    NonFiniteTerm,
    ParseError,
    UnsupportedPower,
)
from adomian_bvp.expressions import (
    _FUNCTIONS,
    _INFIX,
    _RULES,
    Add,
    Constant,
    Div,
    Exp,
    Ln,
    Mul,
    Neg,
    PowInt,
    PowXReal,
    Sub,
    Tape,
    X,
    Y,
    YP,
    eval_real,
    free_vars,
    parse,
    to_source,
)
from adomian_bvp.series import GPSeries, evaluate


# --- parsing ----------------------------------------------------------------


def test_parse_exponential_nonlinearity():
    ast = parse("-1*exp(y)*(x*yp + 0.5)")
    expected = Mul(
        Mul(Neg(Constant(1.0)), Exp(Y)),
        Add(Mul(X, YP), Constant(0.5)),
    )
    assert ast == expected


def test_parse_log_reciprocal():
    assert parse("ln(1/(2 + x))") == Ln(Div(Constant(1.0), Add(Constant(2.0), X)))


def test_parse_real_power_of_x():
    assert parse("x^0.5") == PowXReal(0.5)
    assert parse("x^-0.5") == PowXReal(-0.5)
    assert parse("x^2") == PowXReal(2.0)


def test_parse_integer_power_of_compound():
    assert parse("(y + 1)^3") == PowInt(Add(Y, Constant(1.0)), 3)
    assert parse("y^-2") == PowInt(Y, -2)


def test_parse_precedence():
    # unary minus binds tighter than ^, ^ tighter than *, * tighter than +
    assert parse("-y^2") == PowInt(Neg(Y), 2)
    assert parse("2*x + 1") == Add(Mul(Constant(2.0), X), Constant(1.0))
    assert parse("2 + 3*y") == Add(Constant(2.0), Mul(Constant(3.0), Y))
    assert parse("a".replace("a", "2*x^0.5")) == Mul(Constant(2.0), PowXReal(0.5))


def test_parse_left_associativity():
    assert parse("1 - 2 - 3") == Sub(Sub(Constant(1.0), Constant(2.0)), Constant(3.0))
    assert parse("8/4/2") == Div(Div(Constant(8.0), Constant(4.0)), Constant(2.0))


def test_parse_scientific_notation():
    assert parse("1e-3") == Constant(1e-3)
    assert parse("2.5E+2") == Constant(250.0)


# At least one source per raise site of the parser, with its full message and position.
PARSE_ERRORS = [
    ("x + ", ParseError, "unexpected end of input (at position 4)", 4),
    ("x + z", ParseError, "unknown identifier 'z' (at position 4)", 4),
    ("(x + 1", ParseError, "expected ')' (at position 6)", 6),
    ("x 1", ParseError, "trailing input '1' (at position 2)", 2),
    ("x^y", ParseError, "expected a number (at position 2)", 2),
    ("x^-", ParseError, "expected a number (at position 3)", 3),
    ("1e999", ParseError, "number '1e999' is out of range (at position 0)", 0),
    ("1e999*y", ParseError, "number '1e999' is out of range (at position 0)", 0),
    ("#", ParseError, "unexpected character '#' (at position 0)", 0),
    ("y^0.5", UnsupportedPower,
     "exponent 0.5 requires the base to be the bare variable x (at position 2)", 2),
    ("(" * 101 + "x" + ")" * 101, ParseError,
     "parentheses nest deeper than 100 levels (at position 101)", 101),
    (" + ".join(["x"] * 101), ParseError,
     "expression nests deeper than 100 levels (at position 0)", 0),
]


@pytest.mark.parametrize(
    "source,error,message,position", PARSE_ERRORS,
    ids=[*(case[0] for case in PARSE_ERRORS[:-2]), "101-parens", "101-terms"],
)
def test_parse_error_contract(source, error, message, position):
    with pytest.raises(error) as exc:
        parse(source)
    assert type(exc.value) is error
    assert str(exc.value) == message
    assert exc.value.position == position


# --- free variables ------------------------------------------------------------


def test_free_vars():
    assert free_vars(parse("exp(y)")) == {"y"}
    assert free_vars(parse("x^0.5")) == {"x"}
    assert free_vars(parse("x*yp + y")) == {"x", "y", "yp"}
    assert free_vars(Constant(3.0)) == set()


def test_free_vars_reaches_every_operand_field():
    assert free_vars(parse("x/yp")) == {"x", "yp"}
    assert free_vars(parse("-y")) == {"y"}
    assert free_vars(parse("ln(yp)")) == {"yp"}
    assert free_vars(parse("(y + yp)^3")) == {"y", "yp"}


# --- the operator tables ----------------------------------------------------------


# Every operator reaches every reader: the parser, the printer, the tape and eval_real.
OPERATORS = [(f"x {symbol} (y + 1)", node) for level in _INFIX for symbol, node in level.items()]
OPERATORS += [(f"{name}(y + 1)", node) for name, node in _FUNCTIONS.items()]


@pytest.mark.parametrize("src,node", OPERATORS, ids=[src for src, _ in OPERATORS])
def test_every_table_operator_reaches_every_reader(src, node):
    e = parse(src)
    assert type(e) is node
    assert parse(to_source(e)) == e
    assert node in _RULES
    on_tape = evaluate(Tape(e).extend(GPSeries.constant(2.0), GPSeries.zero()), 0.5)
    assert on_tape == pytest.approx(eval_real(e, 0.5, 2.0, 0.0), rel=1e-14)


@pytest.mark.parametrize("not_a_node", [1.0, "y", None])
@pytest.mark.parametrize("reader", [free_vars, to_source, lambda e: eval_real(e, 0.5)],
                         ids=["free_vars", "to_source", "eval_real"])
def test_readers_reject_a_non_node(reader, not_a_node):
    with pytest.raises(TypeError, match=r"^not an expression node: "):
        reader(not_a_node)


# --- real evaluation -------------------------------------------------------------


def test_eval_real_linear_source():
    # beta*(x*yp + (alpha+beta-1)*y) at (1, e, e), alpha=0.5, beta=1
    f = parse("1*(x*yp + 0.5*y)")
    assert eval_real(f, 1.0, math.e, math.e) == pytest.approx(1.5 * math.e)


def test_eval_real_reference_endpoint():
    exact = parse("ln(1/(4 + x))")
    assert eval_real(exact, 1.0) == pytest.approx(math.log(1.0 / 5.0))


def test_eval_real_deterministic():
    f = parse("exp(y)*(x*yp + 0.5) - x^0.5")
    v1 = eval_real(f, 0.37, -0.21, 0.11)
    v2 = eval_real(f, 0.37, -0.21, 0.11)
    assert v1 == v2


def test_eval_real_domain_errors():
    with pytest.raises(DivisionByZero):
        eval_real(parse("1/(x - 1)"), 1.0)
    with pytest.raises(LogOfNonPositive):
        eval_real(parse("ln(x - 2)"), 1.0)
    with pytest.raises(DivisionByZero):
        eval_real(parse("y^-1"), 0.5, 0.0, 0.0)


def test_eval_real_grid_matches_scalar_calls_bit_for_bit():
    xs = np.arange(1, 201) / 200.0
    ys, yps = np.log(1.0 / (4.0 + xs)), -1.0 / (4.0 + xs)
    for source in (
        "exp(y)*(x*yp + 0.5) - x^0.5",
        "ln(1/(4 + x^3.5))",
        "exp(x^2.5) + (y - 1)^3 + 1/(2 + yp)^2",
    ):
        f = parse(source)
        grid = eval_real(f, xs, ys, yps)
        points = [eval_real(f, x, y, yp) for x, y, yp in zip(xs.tolist(), ys.tolist(), yps.tolist())]
        assert grid.tolist() == points


# The benchmark families' exact solutions, written with the C library's math.
CLOSED_FORMS = {
    1: lambda x, beta: math.log(1.0 / (4.0 + x ** beta)),
    2: lambda x, beta: math.log(1.0 / (2.0 + x)),
    3: lambda x, beta: math.exp(x ** beta),
}


@pytest.mark.parametrize("family", [1, 2, 3])
@pytest.mark.parametrize("beta", [1.0, 2.5, 3.5])
def test_eval_real_grid_is_within_4_ulps_of_math_closed_forms(family, beta):
    xs = np.arange(1, 1001) / 1000.0
    values = eval_real(benchmark_problem(family, 0.5, beta).exact, xs)
    for x, got in zip(xs.tolist(), values.tolist()):
        want = CLOSED_FORMS[family](x, beta)
        assert abs(got - want) <= 4 * math.ulp(want), (x, got, want)


def test_eval_real_grid_raises_when_any_point_violates_the_domain():
    xs = np.array([0.25, 0.5, 1.0])
    with pytest.raises(DivisionByZero):
        eval_real(parse("1/(x - 1)"), xs)
    with pytest.raises(LogOfNonPositive, match=r"ln\(-0\.75\)"):
        eval_real(parse("ln(x - 1)"), xs)  # the first offending point is named
    with pytest.raises(DivisionByZero, match=r"^0\^-1 in 'y\^-1'$"):
        eval_real(parse("y^-1"), xs, np.array([1.0, 0.0, 2.0]))
    with pytest.raises(DomainError, match=r"^x\^0\.5 undefined at x = -0\.25$"):
        eval_real(parse("x^0.5"), np.array([0.5, -0.25, -1.0]))
    with pytest.raises(DomainError, match=r"^x\^-1\.5 undefined at x = 0$"):
        eval_real(parse("x^-1.5"), np.array([0.5, 0.0]))
    assert eval_real(parse("x^2"), np.array([-0.5, 0.0])).tolist() == [0.25, 0.0]


@pytest.mark.parametrize(
    "source,x,subexpression",
    [
        ("exp(x)", 1000.0, "exp(x)"),
        ("(x + 1e200)^2", 1.0, "(x + 1e+200)^2"),
        ("x^-2.5", 1e-200, "x^-2.5"),
        ("exp(exp(x)) + 1", 7.0, "exp(exp(x))"),
    ],
)
def test_eval_real_overflow_is_non_finite_term(source, x, subexpression):
    e = parse(source)
    for point in (x, np.array([0.5, x]), np.float64(x)):
        with pytest.raises(NonFiniteTerm, match=f"^{re.escape(repr(subexpression))} overflows$"):
            eval_real(e, point)


# --- the tape against direct evaluation ----------------------------------------------


def test_evaluators_agree_through_the_ring():
    rng = np.random.default_rng(8)
    sources = ["exp(y)*(x*yp + 0.4)", "0.7*y + 0.2*x*yp - x^0.5", "1/(2 + y)"]
    order = 5
    for src in sources:
        f = parse(src)
        comps = [GPSeries.constant(rng.uniform(-0.5, 0.5))] + [
            GPSeries.monomial(rng.uniform(-0.4, 0.4), rng.uniform(0.4, 2.0))
            for _ in range(order)
        ]
        polynomials = adomian_polynomials(f, comps)
        for x in (0.2, 0.6, 1.0):
            for lam in (0.0, 0.25, 0.5):
                gap = taylor_gap(f, comps, polynomials, x, lam)
                assert gap <= 10 * lam ** (order + 1) + 1e-12


# --- printing ---------------------------------------------------------------------


PRINT_FIXPOINT_SOURCES = [
    "-1*exp(y)*(x*yp + 0.5)",
    "ln(1/(2 + x))",
    "x^0.5",
    "x^-1.5",
    "(y + 1)^3",
    "-y^2",
    "1 - 2 - 3",
    "8/4/2",
    "exp(x^2.5) - ln(y/(yp + 2))",
    "2.5*(x*yp + 2*y)",
    "-(x + y)*yp",
    "1e-3*x + 2.5E+2",
]


@pytest.mark.parametrize("src", PRINT_FIXPOINT_SOURCES)
def test_print_parse_fixpoint(src):
    ast = parse(src)
    printed = to_source(ast)
    assert parse(printed) == ast
    # printing is stable from the first round-trip onward
    assert to_source(parse(printed)) == printed


def test_print_negative_programmatic_constant():
    # a negative Constant prints in parser-image form (minus then literal)
    ast = Mul(Constant(-0.5), Y)
    printed = to_source(ast)
    reparsed = parse(printed)
    assert reparsed == Mul(Neg(Constant(0.5)), Y)
    assert to_source(reparsed) == printed


@pytest.mark.parametrize(
    "src,printed",
    [
        ("x - (y - yp)", "x - (y - yp)"),
        ("x - y - yp", "x - y - yp"),
        ("x/(y*yp)", "x/(y*yp)"),
        ("x*y/yp", "x*y/yp"),
        ("(x + y)*yp", "(x + y)*yp"),
        ("-(x + 1)", "-(x + 1.0)"),
        ("(-x)^2", "-x^2"),
        ("exp(-y)", "exp(-y)"),
        ("ln(x^-1.5)", "ln(x^-1.5)"),
        ("1.0/(y - y)", "1.0/(y - y)"),
    ],
)
def test_printed_text_is_pinned(src, printed):
    # Both sides of each precedence level: the bytes dump_problem and error suffixes show.
    assert to_source(parse(src)) == printed
