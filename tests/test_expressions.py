"""Expression grammar, both evaluators, the tape against direct evaluation, and
print/parse stability."""

import collections
import copy
import dataclasses
import gc
import math
import pickle
import re
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from support import adomian_polynomials, left_nested_sum, taylor_gap

from adomian_bvp import cli, expressions
from adomian_bvp.benchmarks import benchmark_problem
from adomian_bvp.diagnostics import max_error, max_errors, residual
from adomian_bvp.errors import (
    DivisionByZero,
    DomainError,
    InvalidExactSolution,
    InvalidProblem,
    LogOfNonPositive,
    NonFiniteTerm,
    ParseError,
    UnsupportedPower,
)
from adomian_bvp.expressions import (
    _ARITHMETIC,
    _FUNCTIONS,
    _INFIX,
    _RULES,
    MAX_DEPTH,
    MAX_SOURCE_CHARS,
    MESSAGE_SOURCE_CHARS,
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
    Var,
    X,
    Y,
    YP,
    check_expr,
    eval_real,
    parse,
    to_source,
)
from adomian_bvp.problem_file import dump_problem
from adomian_bvp.series import GPSeries, evaluate
from adomian_bvp.solver import Problem, solve


# --- parsing ----------------------------------------------------------------


def test_parse_exponential_nonlinearity():
    ast = parse("-1*exp(y)*(x*yp + 0.5)")
    expected = Mul(
        Mul(Constant(-1.0), Exp(Y)),
        Add(Mul(X, YP), Constant(0.5)),
    )
    assert ast == expected


def test_parse_log_reciprocal():
    assert parse("ln(1/(2 + x))") == Ln(Div(Constant(1.0), Add(Constant(2.0), X)))


def test_parse_real_power_of_x():
    assert parse("x^0.5") == PowXReal(0.5)
    assert parse("x^-0.5") == PowXReal(-0.5)
    assert parse("x^2") == PowXReal(2.0)
    assert parse("x^ - 2") == PowXReal(-2.0)  # one minus, spaced
    assert parse("x^2.") == PowXReal(2.0)


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
    assert parse("1.e5*y") == Mul(Constant(1e5), Y)


def test_parse_reads_whitespace_of_any_script_and_digits_0_to_9_alone():
    # whitespace as str.isspace has it: NBSP, LINE SEPARATOR and \x1c
    assert parse("x\xa0+\u2028y\x1c") == parse("\xa0x\u2028+\x1cy\x1c") == Add(X, Y)
    # ARABIC-INDIC DIGIT THREE, ZERO and FIVE, and a FULLWIDTH DIGIT ONE, are not digits here
    for source, position in [("\u0663*y", 0), ("\u0660.\u0665*y", 0), ("2*\uff11", 2),
                             ("1\u0660", 1), (".\u0665", 0)]:
        with pytest.raises(ParseError) as caught:
            parse(source)
        assert caught.value.position == position, source


@pytest.mark.parametrize("source,value", [
    ("-0.5", -0.5), ("--0.5", 0.5), ("---0.5", -0.5), ("-(0.5)", -0.5), ("-(-(0.5))", 0.5),
    ("- - 2", 2.0), ("-(--2)", -2.0), ("-0", -0.0), ("--0", 0.0), ("-1e-3", -1e-3),
])
def test_minus_signs_before_a_number_make_one_literal_of_the_signed_value(source, value):
    e = parse(source)
    assert type(e) is Constant and repr(e.value) == repr(value)
    assert parse(f"{source}*y") == Mul(Constant(value), Y)
    assert parse(f"-{source}") == Constant(-value)
    assert parse(f"({source})^2") == PowInt(Constant(value), 2)  # unary minus binds tighter


def test_a_negation_of_anything_but_a_number_is_kept():
    assert parse("-y") == Neg(Y) and parse("--y") == Neg(Neg(Y))
    assert parse("-(x + 1)") == Neg(Add(X, Constant(1.0)))
    assert parse("-exp(0)") == Neg(Exp(Constant(0.0)))
    assert parse("-(1)*y") == Mul(Constant(-1.0), Y)
    assert parse("-(1*y)") == Neg(Mul(Constant(1.0), Y))


def test_a_negated_literal_is_no_level_of_depth():
    assert parse("-" * 150 + "1") == Constant(1.0)
    assert parse("-" * 151 + "(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH) == Constant(-1.0)
    with pytest.raises(ParseError, match="nests deeper"):
        parse("-" * (MAX_DEPTH + 1) + "y")


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
    (".", ParseError, "expected a number (at position 0)", 0),
    ("\u00b2", ParseError, "expected a number (at position 0)", 0),  # a digit no number starts with
    ("y*\u2075+1", ParseError, "expected a number (at position 2)", 2),
    ("x\u00b2", ParseError, "trailing input '\u00b2' (at position 1)", 1),
    ("1e", ParseError, "trailing input 'e' (at position 1)", 1),
    ("2x", ParseError, "trailing input 'x' (at position 1)", 1),
    ("x^--2", ParseError, "expected a number (at position 3)", 3),
    ("exp y", ParseError, "expected '(' (at position 4)", 4),
    ("ln()", ParseError, "unexpected character ')' (at position 3)", 3),
    ("()", ParseError, "unexpected character ')' (at position 1)", 1),
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
    with pytest.raises(ParseError) as exc:  # UnsupportedPower is a ParseError too
        parse(source)
    assert type(exc.value) is error
    assert str(exc.value) == message
    assert exc.value.position == position


# --- free variables ------------------------------------------------------------


def _mentioned(e):
    """The variables e mentions, as ``check_expr``'s error lists them when none is allowed."""
    try:
        check_expr(e, set(), InvalidProblem, "e")
    except InvalidProblem as err:
        return re.fullmatch(r"e mentions (.*); only \[\] allowed", str(err))[1]
    return "[]"


def test_free_vars():
    assert _mentioned(parse("exp(y)")) == "['y']"
    assert _mentioned(parse("x^0.5")) == "['x']"
    assert _mentioned(parse("x*yp + y")) == "['x', 'y', 'yp']"
    assert _mentioned(Constant(3.0)) == "[]"


def test_free_vars_reaches_every_operand_field():
    assert _mentioned(parse("x/yp")) == "['x', 'yp']"
    assert _mentioned(parse("-y")) == "['y']"
    assert _mentioned(parse("ln(yp)")) == "['yp']"
    assert _mentioned(parse("(y + yp)^3")) == "['y', 'yp']"


# --- checking an expression: one walk, one rule, at every entry point --------------

PROBLEM_DATA = dict(alpha=0.5, sigma=0.0, f=Y, eta1=0.0, alpha1=1.0, beta1=0.0, gamma1=1.0)
ENTRY_POINTS = {
    "parse": lambda e: parse(to_source(e)),
    "f": lambda e: Problem(**{**PROBLEM_DATA, "f": e}),
    "exact": lambda e: Problem(**PROBLEM_DATA, exact=e),
    "reference": lambda e: max_error(GPSeries.zero(), e, 10),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_each_entry_point_accepts_the_depth_bound(entry):
    ENTRY_POINTS[entry](left_nested_sum(X, MAX_DEPTH))


@pytest.mark.parametrize("entry,error,message", [
    ("parse", ParseError, "expression nests deeper than 100 levels (at position 0)"),
    ("f", InvalidProblem, "f nests deeper than 100 levels"),
    ("exact", InvalidExactSolution, "exact solution nests deeper than 100 levels"),
    ("reference", InvalidExactSolution, "reference nests deeper than 100 levels"),
], ids=list(ENTRY_POINTS))
def test_each_entry_point_rejects_one_level_more_with_its_own_error(entry, error, message):
    with pytest.raises(error) as exc:
        ENTRY_POINTS[entry](left_nested_sum(X, MAX_DEPTH + 1))
    assert type(exc.value) is error
    assert str(exc.value) == message


# parse meets no such AST: text naming another variable fails as an unknown identifier.
@pytest.mark.parametrize("entry,e,error,message", [
    ("f", Add(Y, Var("z")), InvalidProblem, "f mentions ['z']; only ['x', 'y', 'yp'] allowed"),
    ("exact", Add(X, Y), InvalidExactSolution,
     "exact solution mentions ['y']; only ['x'] allowed"),
    ("reference", Add(X, Y), InvalidExactSolution, "reference mentions ['y']; only ['x'] allowed"),
    ("reference", Mul(PowXReal(0.5), Exp(YP)), InvalidExactSolution,
     "reference mentions ['yp']; only ['x'] allowed"),
], ids=["f", "exact", "reference", "reference-yp"])
def test_each_entry_point_states_the_variable_rule_in_one_shape(entry, e, error, message):
    with pytest.raises(error) as exc:
        ENTRY_POINTS[entry](e)
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_depth_is_checked_before_variables_and_f_before_exact():
    with pytest.raises(InvalidExactSolution, match="^exact solution nests deeper"):
        ENTRY_POINTS["exact"](left_nested_sum(Y, MAX_DEPTH + 1))
    with pytest.raises(InvalidProblem, match=r"^f mentions \['z'\]"):
        Problem(**{**PROBLEM_DATA, "f": Var("z")}, exact=left_nested_sum(Y, MAX_DEPTH + 1))


# parse meets no such literal: its numbers are finite floats, and only x takes a non-integral power.
@pytest.mark.parametrize("entry,e,error,message", [
    ("f", Add(Y, Constant(math.nan)), InvalidProblem, "a literal in f must be finite, got nan"),
    ("f", PowInt(Y, 2.5), InvalidProblem, "f has the non-integral power 2.5"),
    ("exact", Mul(X, PowXReal(math.inf)), InvalidExactSolution,
     "a literal in exact solution must be finite, got inf"),
    ("reference", Add(X, Constant(-math.inf)), InvalidExactSolution,
     "a literal in reference must be finite, got -inf"),
    ("f", Add(Var("z"), PowInt(Y, "2")), InvalidProblem,  # the literal before the variable
     "a literal in f must be a real number, got '2'"),
    ("exact", Mul(X, PowXReal(0.5j)), InvalidExactSolution,
     "a literal in exact solution must be a real number, got 0.5j"),
    ("reference", Add(X, Constant(None)), InvalidExactSolution,
     "a literal in reference must be a real number, got None"),
], ids=["f-constant", "f-power", "exact-exponent", "reference-constant",
        "f-str-power", "exact-complex-exponent", "reference-none-constant"])
def test_each_entry_point_rejects_a_bad_literal_with_its_own_error(entry, e, error, message):
    with pytest.raises(error) as exc:
        ENTRY_POINTS[entry](e)
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_literals_are_checked_after_depth_and_before_variables():
    with pytest.raises(InvalidProblem, match="^f nests deeper"):
        ENTRY_POINTS["f"](left_nested_sum(Constant(math.nan), MAX_DEPTH + 1))
    with pytest.raises(InvalidProblem, match="^a literal in f must be finite, got nan$"):
        ENTRY_POINTS["f"](Add(Var("z"), PowInt(Y, math.nan)))
    with pytest.raises(InvalidProblem, match="^f has the non-integral power 2.5$"):
        ENTRY_POINTS["f"](Add(Var("z"), PowInt(Y, 2.5)))


def test_an_integral_power_of_another_number_type_solves_as_an_int():
    want = solve(Problem(**{**PROBLEM_DATA, "f": PowInt(Y, -2), "eta1": 1.0}), 4).psi
    for power in (-2.0, np.int64(-2)):
        got = solve(Problem(**{**PROBLEM_DATA, "f": PowInt(Y, power), "eta1": 1.0}), 4).psi
        assert got.terms == want.terms


# --- shared subtrees: every walk visits a node object once, not once per path ----------


def shared_dag(levels: int):
    """e = e + 0.01*e, ``levels`` times over y: 2^levels paths, 2*levels + 1 levels deep."""
    e = Y
    for _ in range(levels):
        e = Add(e, Mul(Constant(0.01), e))
    return e


def count_node_visits(monkeypatch, cap=100_000):
    """Count the layouts, the printer's node texts, the tape's nodes and the real arithmetic
    operations; past ``cap`` in all, raise, so that a walk once per path fails at once
    instead of running for hours."""
    calls = collections.Counter()

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            if sum(calls.values()) > cap:  # no traceback: its frames' reprs walk every path
                pytest.fail(f"more than {cap} node visits: {dict(calls)}", pytrace=False)
            return real(*args)
        return wrapper

    for name in ("_layout", "_parts"):
        monkeypatch.setattr(expressions, name, counted(name, getattr(expressions, name)))
    monkeypatch.setattr(Tape, "_push", counted("_push", Tape._push))
    for node, op in list(_ARITHMETIC.items()):
        monkeypatch.setitem(_ARITHMETIC, node, counted("arithmetic", op))
    return calls


def test_a_40_level_shared_dag_is_checked_laid_out_and_evaluated_once_per_node(monkeypatch):
    f = shared_dag(40)  # 81 levels deep, within the bound
    calls = count_node_visits(monkeypatch)
    started = time.perf_counter()
    problem = Problem(**{**PROBLEM_DATA, "f": f, "eta1": 1.0})
    values = residual(solve(problem, 3).psi, problem, 64)
    assert time.perf_counter() - started < 1.0  # a few milliseconds
    assert calls["_push"] == 81  # 0.01, and each level's product and sum
    assert calls["arithmetic"] == 80  # one residual grid, one operation per node object
    assert len(values) == 64 and all(np.isfinite(v) for _, v in values)


@pytest.mark.parametrize("reader", ["solve", "eval_real"])
def test_a_40_level_shared_dag_is_named_in_a_cut_message_at_once(monkeypatch, reader):
    f = Ln(shared_dag(40))  # 82 levels deep; its argument is y*1.01^40, negative where y is
    calls = count_node_visits(monkeypatch)
    started = time.perf_counter()
    with pytest.raises(LogOfNonPositive) as err:
        if reader == "solve":
            solve(Problem(**{**PROBLEM_DATA, "f": f, "eta1": -1.0}), 3)
        else:
            eval_real(f, 0.5, -1.0)
    assert time.perf_counter() - started < 1.0
    assert calls["_parts"] < 1_000
    # the text of e_40 starts with that of e_9, which is longer than the bound
    cut = to_source(Ln(shared_dag(9)))[:MESSAGE_SOURCE_CHARS - 3] + "..."
    message = str(err.value)
    assert message.endswith(f"[in {cut!r}]" if reader == "solve" else f" in {cut!r}")
    assert len(message) - len(repr(cut)) < 50  # the bound and the message's own words


@pytest.mark.parametrize("constant,cut", [(0.25, False), (0.125, True)])
def test_a_message_quotes_its_subexpression_up_to_the_bound(constant, cut):
    e = Ln(Add(left_nested_sum(Y, 123), Constant(constant)))
    text = to_source(e)
    assert len(text) == MESSAGE_SOURCE_CHARS + cut
    quoted = text[:MESSAGE_SOURCE_CHARS - 3] + "..." if cut else text
    with pytest.raises(LogOfNonPositive) as err:
        eval_real(e, 0.5, -1.0)
    assert str(err.value) == f"ln({constant - 123:g}) in {quoted!r}"


def test_dump_problem_refuses_the_text_of_a_40_level_shared_dag_at_once(monkeypatch):
    problem = Problem(**{**PROBLEM_DATA, "f": shared_dag(40)})  # 2^40 paths
    count_node_visits(monkeypatch)
    started = time.perf_counter()
    with pytest.raises(InvalidProblem,
                       match=f"^expression text is longer than {MAX_SOURCE_CHARS} characters$"):
        dump_problem(problem)
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("reader", ["to_source", "eval_real", "check_expr", "Tape", "==", "hash"])
def test_every_reader_takes_a_5000_level_tree(reader):
    e = left_nested_sum(Y, 5000)  # only the entry points hold an AST to MAX_DEPTH
    if reader == "==":
        assert e == left_nested_sum(Var("y"), 5000) != left_nested_sum(X, 5000)
    elif reader == "hash":
        assert hash(e) == hash(left_nested_sum(Var("y"), 5000))
    elif reader == "to_source":
        assert to_source(e) == " + ".join(["y"] * 5000)
    elif reader == "eval_real":
        assert eval_real(e, 0.5, 1.0) == 5000.0
    elif reader == "check_expr":
        with pytest.raises(InvalidProblem, match=f"^f nests deeper than {MAX_DEPTH} levels$"):
            check_expr(e, {"y"}, InvalidProblem, "f")
    else:
        assert evaluate(Tape(e).extend(GPSeries.constant(1.0)), 0.5) == 5000.0


def test_a_shared_dag_past_the_depth_bound_is_rejected_at_once(monkeypatch):
    count_node_visits(monkeypatch)
    with pytest.raises(InvalidProblem, match=f"^f nests deeper than {MAX_DEPTH} levels$"):
        Problem(**{**PROBLEM_DATA, "f": shared_dag(50)})
    assert eval_real(shared_dag(50), 0.5, 1.0) == pytest.approx(1.01 ** 50)  # no bound here


def unshared(levels: int):
    """shared_dag(levels) with no node object shared: 2^levels leaves, each its own."""
    if levels == 0:
        return Var("y")
    return Add(unshared(levels - 1), Mul(Constant(0.01), unshared(levels - 1)))


def test_equal_trees_compare_and_hash_equal_however_their_subtrees_are_shared():
    assert shared_dag(10) == unshared(10) and hash(shared_dag(10)) == hash(unshared(10))
    assert shared_dag(10) != unshared(9) and shared_dag(10) != Add(unshared(9), unshared(9))
    f, copy = shared_dag(18), shared_dag(18)  # 2^18 paths, 37 node objects each
    started = time.perf_counter()
    assert f == copy and hash(f) == hash(copy)
    assert time.perf_counter() - started < 0.05  # about a millisecond; once per path, 0.5 s


def test_trees_compare_by_type_literal_and_operand_order():
    assert Constant(1) == Constant(1.0) and hash(Constant(1)) == hash(Constant(1.0))
    assert len({Add(Constant(True), Y), Add(Constant(1.0), Y)}) == 1
    unequal = [Constant(1.0), Constant(2.0), Var("x"), Var("y"), PowInt(Y, 2), PowInt(Y, 3),
               PowXReal(0.5), Neg(Y), Exp(Y), Ln(Y), Add(X, Y), Add(Y, X), Sub(X, Y)]
    assert len(set(unequal)) == len(unequal)
    assert [a == b for a in unequal for b in unequal] == [a is b for a in unequal for b in unequal]
    assert Constant(1.0) != 1.0 and X != "x"  # not a node: NotImplemented, then identity


# --- one layout per tree object: walked once, kept on the tree, not copied ------------------

DEMO_FILE = str(Path(__file__).resolve().parent.parent / "demos" / "problems" / "exp_dirichlet.prob")
WALKED_COMMANDS = {
    "cli solve": ["solve", DEMO_FILE, "--n", "10"],
    "cli residual": ["residual", DEMO_FILE, "--n", "10", "--grid", "100"],
    "cli table": ["table", "--example", "1", "--betas", "1,3.5"],  # 3 alphas by 2 betas
}
COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
          "pickle": lambda value: pickle.loads(pickle.dumps(value))}


def _walks(monkeypatch) -> list:
    """The tree objects ``expressions._layout`` walks from now on: the calls that keep a new
    layout on the tree, which is every call on a tree that keeps none yet."""
    walked, real = [], expressions._layout

    def layout(e):
        kept = getattr(e, "_laid_out", None)
        result = real(e)
        if getattr(e, "_laid_out", None) is not kept:
            walked.append(e)
        return result

    monkeypatch.setattr(expressions, "_layout", layout)
    return walked


@pytest.mark.parametrize("case,walks", [("cli solve", 2), ("cli residual", 2), ("cli table", 12),
                                        ("solve", 0), ("max_errors", 0)])
def test_each_tree_object_is_walked_once(monkeypatch, capsys, case, walks):
    # parse walks each tree it reads and Problem each benchmark tree it is built with; every
    # later check, tape and evaluation of that tree object reads the layout kept on it
    checked = benchmark_problem(1, 0.5, 1.0), benchmark_problem(1, 0.5, 3.5)
    built = []  # the problems built from now on, in order

    def kept(build):
        return lambda *args: built.append(build(*args)) or built[-1]

    monkeypatch.setattr(cli, "load_problem", kept(cli.load_problem))
    monkeypatch.setattr(cli, "benchmark_problem", kept(cli.benchmark_problem))
    walked = _walks(monkeypatch)
    if case == "solve":
        solve(checked[0], 8)
    elif case == "max_errors":
        max_errors([GPSeries.constant(-1.5)], checked[1].exact, 1000)
    else:
        assert cli.main(WALKED_COMMANDS[case]) == 0
    want = [tree for problem in built for tree in (problem.f, problem.exact)]
    assert len(walked) == len(want) == walks
    assert all(tree is wanted for tree, wanted in zip(walked, want))


@pytest.mark.parametrize("how", list(COPIES))
def test_a_copy_holds_the_fields_alone_and_lays_itself_out_again(how):
    problem = benchmark_problem(1, 0.6056, 1.771)
    psi = solve(problem, 8).psi  # f and exact are laid out
    tree, twin = COPIES[how](problem.f), COPIES[how](problem)
    assert tree is not problem.f and tree.__dict__.keys() == problem.f.__dict__.keys()
    assert tree == problem.f and twin == problem
    for e in (tree, twin.f, twin.exact):  # a layout of its own object, not the original's
        assert expressions._layout(e)[-1][0] is e
    for copied in (dataclasses.replace(problem, f=tree), twin):
        got = solve(copied, 8).psi
        assert got.coeffs.tobytes() == psi.coeffs.tobytes()
        assert got.exponents.tobytes() == psi.exponents.tobytes()


def test_a_laid_out_tree_is_freed_when_its_last_reference_goes():
    # the layout kept on a tree holds no entry of the tree itself, so it makes no cycle
    gc.disable()
    try:
        problem = benchmark_problem(1, 0.5, 1.0)
        solve(problem, 4)
        max_errors([GPSeries.constant(-1.5)], problem.exact, 10)
        assert expressions._layout(problem.f)[-1][0] is problem.f
        trees = [weakref.ref(problem.f), weakref.ref(problem.exact)]
        del problem
        assert [tree() for tree in trees] == [None, None]
    finally:
        gc.enable()


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
    on_tape = evaluate(Tape(e).extend(GPSeries.constant(2.0)), 0.5)
    assert on_tape == pytest.approx(eval_real(e, 0.5, 2.0, 0.0), rel=1e-14)


# an unchecked tree whose literal check_expr would refuse, and the one message each reader gives
UNCHECKED = [
    (PowInt(Y, 2.5), "expression has the non-integral power 2.5"),
    (PowInt(Y, math.nan), "a literal in expression must be finite, got nan"),
    (PowInt(Y, math.inf), "a literal in expression must be finite, got inf"),
    (PowInt(Y, "2"), "a literal in expression must be a real number, got '2'"),
    (Constant("2"), "a literal in expression must be a real number, got '2'"),
    (PowXReal("2"), "a literal in expression must be a real number, got '2'"),
    (Var("z"), "expression mentions ['z']; only ['x', 'y', 'yp'] allowed"),
]


@pytest.mark.parametrize("tree,message", UNCHECKED,
                         ids=["y^2.5", "y^nan", "y^inf", "y^'2'", "'2'", "x^'2'", "z"])
@pytest.mark.parametrize("reader", [lambda e: Tape(e).extend(GPSeries.constant(2.0)),
                                    lambda e: eval_real(e, 0.5, 2.0), to_source],
                         ids=["tape", "eval_real", "to_source"])
def test_each_reader_of_an_unchecked_tree_refuses_its_literal_by_one_rule(reader, tree, message):
    # the rule check_expr keeps: a literal by check_real, an integral power, a name of x, y, yp
    with pytest.raises(InvalidProblem, match=f"^{re.escape(message)}$"):
        reader(tree)


@pytest.mark.parametrize("not_a_node", [1.0, "y", None])
@pytest.mark.parametrize("reader", [_mentioned, to_source, lambda e: eval_real(e, 0.5)],
                         ids=["check_expr", "to_source", "eval_real"])
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


def test_eval_real_reports_the_first_fault_in_the_tapes_order():
    # ln(x - 2) comes before the division in the layout, as in the tape, whose solve names it
    with pytest.raises(LogOfNonPositive) as err:
        eval_real(parse("ln(x - 2)/(x - 1)"), 1.0)
    assert str(err.value) == "ln(-1) in 'ln(x - 2.0)'"
    with pytest.raises(LogOfNonPositive, match=r"\[in 'ln\(y - 2\.0\)'\]$"):
        solve(Problem(**{**PROBLEM_DATA, "f": parse("ln(y - 2)/(y - 1)"), "eta1": 1.0}), 2)


def test_eval_real_evaluates_each_constant_object_on_its_own():
    # -0.0 == 0.0, so a layout that shared equal constants would give 0.0 - 0.0 = 0.0
    value = eval_real(Sub(Constant(-0.0), Constant(0.0)), 0.5)
    assert value == 0.0 and math.copysign(1.0, value) == -1.0


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
    # a negative Constant prints as minus then its absolute value, which parses back to it
    ast = Mul(Constant(-0.5), Y)
    printed = to_source(ast)
    assert printed == "-0.5*y"
    reparsed = parse(printed)
    assert reparsed == ast and repr(reparsed) == repr(ast)
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
