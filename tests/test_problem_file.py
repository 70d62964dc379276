"""Problem-file parsing, validation and canonical round trips."""

import errno
import math

import numpy as np
import pytest

from support import left_nested_sum

from adomian_bvp.benchmarks import benchmark_problem
from adomian_bvp.errors import (
    DuplicateKey,
    FileNotFound,
    InputError,
    InvalidProblem,
    InvalidValue,
    MissingKey,
    ParseError,
    UnknownKey,
)
from adomian_bvp.expressions import MAX_DEPTH, X, Y, Constant, Mul, PowInt, PowXReal
from adomian_bvp.problem_file import dump_problem, load_problem, parse_problem_text
from adomian_bvp.solver import Problem

SAMPLE = """
# exponential nonlinearity, Dirichlet data
p_exponent = 0.5
q_exponent = -0.5
f = "-1*exp(y)*(x*yp + 0.5)"   # source term
eta1 = -1.3862943611198906
alpha1 = 1
beta1 = 0
gamma1 = -1.6094379124341003
exact = "ln(1/(4 + x))"
"""


def test_parse_sample():
    problem = parse_problem_text(SAMPLE)
    assert problem.alpha == 0.5
    assert problem.sigma == -0.5
    assert problem.eta1 == pytest.approx(-math.log(4.0))
    assert problem.exact is not None


def test_comments_and_blank_lines_ignored():
    problem = parse_problem_text(SAMPLE + "\n\n# trailing comment\n")
    assert problem.gamma1 == pytest.approx(-math.log(5.0))


def test_missing_key():
    text = "\n".join(
        line for line in SAMPLE.splitlines() if not line.startswith("gamma1")
    )
    with pytest.raises(MissingKey) as exc:
        parse_problem_text(text)
    assert str(exc.value) == "gamma1"


def test_unknown_key_rejected():
    with pytest.raises(UnknownKey):
        parse_problem_text(SAMPLE + "\nmystery = 3\n")


def test_duplicate_key_rejected():
    with pytest.raises(DuplicateKey):
        parse_problem_text(SAMPLE + "\neta1 = 0\n")


def test_invalid_number():
    with pytest.raises(InvalidValue):
        parse_problem_text(SAMPLE.replace("alpha1 = 1", "alpha1 = one"))


# digits are the ASCII 0-9 that parse reads, and none is grouped: float() takes all of these
@pytest.mark.parametrize("key,value", [
    ("p_exponent", "0.2_5"), ("eta1", "1_0"), ("gamma1", "1e1_0"), ("alpha1", "\u0661"),
    ("q_exponent", "-0.\u0665"), ("beta1", "\uff10"), ("eta1", "\u0661_0"),
])
def test_a_value_with_a_digit_separator_or_a_non_ascii_digit_is_invalid(key, value):
    line = next(line for line in SAMPLE.splitlines() if line.startswith(key))
    with pytest.raises(InvalidValue) as exc:
        parse_problem_text(SAMPLE.replace(line, f"{key} = {value}"))
    assert str(exc.value) == f"{key}: {value!r} is not a number"


@pytest.mark.parametrize("value,want", [
    ("+0.5", 0.5), ("0.5\t", 0.5), ("\xa00.5\u2028", 0.5), ("1e-3", 1e-3), ("-1E+1", -10.0),
    (".5", 0.5), ("5.", 5.0), ("1", 1.0),
])
def test_every_other_number_spelling_still_reads(value, want):
    assert parse_problem_text(SAMPLE.replace("eta1 = -1.3862943611198906",
                                             f"eta1 = {value}")).eta1 == want


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e999"])
def test_a_value_that_is_not_finite_reaches_the_check_of_problem(value):
    with pytest.raises(InvalidProblem, match="eta1 must be finite"):
        parse_problem_text(SAMPLE.replace("eta1 = -1.3862943611198906", f"eta1 = {value}"))


def test_a_line_without_an_equals_sign_is_named_by_its_number():
    with pytest.raises(InvalidValue) as exc:
        parse_problem_text(SAMPLE.replace("beta1 = 0", "beta1 0"))
    assert str(exc.value) == "line 8: expected 'key = value', got 'beta1 0'"


def test_expression_must_be_quoted():
    with pytest.raises(InvalidValue):
        parse_problem_text(SAMPLE.replace('f = "-1*exp(y)*(x*yp + 0.5)"', "f = y"))


def test_bad_expression_source_propagates():
    with pytest.raises(ParseError):
        parse_problem_text(
            SAMPLE.replace('"-1*exp(y)*(x*yp + 0.5)"', '"1 + "')
        )


def test_hash_inside_quotes_is_not_a_comment():
    # '#' only starts a comment outside quoted expressions
    problem = parse_problem_text(SAMPLE)
    assert problem.f == parse_problem_text(SAMPLE.replace("   # source term", "")).f


# A line for f, and the f it gives or the error it raises: a comment starts at the first '#'
# outside quotes, and a quote left open runs to the end of the line.
COMMENT_LINES = [
    ('f = "y"#', Y),
    ('f = "y" # "a # quoted" comment', Y),
    ('f = "y # z"   # a comment', ParseError("trailing input '# z'", 2)),
    ('f = "y  # an unbalanced quote',
     InvalidValue("""f: expression must be double-quoted, got '"y  # an unbalanced quote'""")),
    ('f = ""y" # "  # a second quoted run', ParseError("unexpected character '\"'", 0)),
]


@pytest.mark.parametrize("line,want", COMMENT_LINES, ids=range(len(COMMENT_LINES)))
def test_a_comment_starts_at_the_first_hash_outside_quotes(line, want):
    text = SAMPLE.replace('f = "-1*exp(y)*(x*yp + 0.5)"   # source term', line)
    if not isinstance(want, Exception):
        assert parse_problem_text(text).f == want
        return
    with pytest.raises(type(want)) as exc:
        parse_problem_text(text)
    assert str(exc.value) == str(want)


def test_dump_reload_round_trip(tmp_path):
    for example, alpha, beta in [(1, 0.5, 1.0), (2, 0.25, 1.0), (3, 0.75, 2.5)]:
        problem = benchmark_problem(example, alpha, beta)
        text = dump_problem(problem)
        path = tmp_path / f"ex{example}.prob"
        path.write_text(text, encoding="utf-8")
        assert load_problem(path) == problem


@pytest.mark.parametrize("f,printed", [
    (Mul(Y, Constant(np.float64(0.5))), "y*0.5"),
    (PowInt(Y, True), "y^1"),
    (PowInt(Y, 3.0), "y^3"),
    (Mul(PowXReal(np.float32(0.5)), PowInt(Y, np.int64(-2))), "x^0.5*y^-2"),
], ids=["float64-constant", "bool-power", "float-power", "float32-exponent-int64-power"])
def test_literals_of_other_number_types_dump_as_plain_text_that_reloads(f, printed):
    problem = Problem(alpha=0.5, sigma=0.0, f=f, eta1=1.0, alpha1=1.0, beta1=0.0, gamma1=1.0)
    text = dump_problem(problem)
    assert f'f = "{printed}"' in text.splitlines()
    assert parse_problem_text(text) == problem


def test_round_trip_from_file_text():
    problem = parse_problem_text(SAMPLE)
    assert parse_problem_text(dump_problem(problem)) == problem


def test_a_problem_at_the_depth_bound_dumps_text_that_parses_back():
    # Problem holds hand-built ASTs to the bound parse enforces on text
    problem = Problem(alpha=0.5, sigma=0.0, f=left_nested_sum(Y, MAX_DEPTH), eta1=0.0,
                      alpha1=1.0, beta1=0.0, gamma1=1.0, exact=left_nested_sum(X, MAX_DEPTH))
    assert parse_problem_text(dump_problem(problem)) == problem


def test_a_missing_file_is_one_input_error(tmp_path):
    path = tmp_path / "absent.prob"
    with pytest.raises(FileNotFound) as exc:
        load_problem(path)
    err = exc.value
    assert isinstance(err, InputError) and isinstance(err, FileNotFoundError)
    assert (err.code, str(err), err.filename, err.errno) == (
        "FileNotFound", str(path), str(path), errno.ENOENT)


# --- schema: canonical dump text and the order faults are reported in ---------


def test_dump_text_is_pinned():
    assert dump_problem(benchmark_problem(1, 0.5, 3.5)) == (
        "p_exponent = 0.5\n"
        "q_exponent = 2.0\n"
        'f = "-3.5*exp(y)*(x*yp + 3.0)"\n'
        "eta1 = -1.3862943611198906\n"
        "alpha1 = 1.0\n"
        "beta1 = 0.0\n"
        "gamma1 = -1.6094379124341003\n"
        'exact = "ln(1.0/(4.0 + x^3.5))"\n'
    )


def test_dump_text_without_exact_is_pinned():
    robin = parse_problem_text(
        'beta1 = 0.75\nf = "y^2 - x*yp + exp(-y)"\np_exponent = 0.25\neta1 = 0.5\n'
        "gamma1 = -1.25\nq_exponent = 0\nalpha1 = 2\n"
    )
    assert dump_problem(robin) == (
        "p_exponent = 0.25\n"
        "q_exponent = 0.0\n"
        'f = "y^2 - x*yp + exp(-y)"\n'
        "eta1 = 0.5\n"
        "alpha1 = 2.0\n"
        "beta1 = 0.75\n"
        "gamma1 = -1.25\n"
    )


BAD_ETA1 = ("eta1 = -1.3862943611198906", "eta1 = minus")
UNQUOTED_F = ('f = "-1*exp(y)*(x*yp + 0.5)"', "f = y")


def _faulty(*swaps, drop=None):
    text = SAMPLE
    for old, new in swaps:
        assert old in text
        text = text.replace(old, new)
    return "\n".join(line for line in text.splitlines() if not (drop and line.startswith(drop)))


def test_a_missing_key_is_reported_before_a_bad_number():
    with pytest.raises(MissingKey) as exc:
        parse_problem_text(_faulty(BAD_ETA1, drop="gamma1"))
    assert str(exc.value) == "gamma1"


def test_a_bad_number_is_reported_before_an_unquoted_expression():
    with pytest.raises(InvalidValue) as exc:
        parse_problem_text(_faulty(BAD_ETA1, UNQUOTED_F))
    assert str(exc.value) == "eta1: 'minus' is not a number"


def test_an_unquoted_f_is_reported_before_an_unquoted_exact():
    with pytest.raises(InvalidValue) as exc:
        parse_problem_text(_faulty(UNQUOTED_F, ('exact = "ln(1/(4 + x))"', "exact = x")))
    assert str(exc.value) == "f: expression must be double-quoted, got 'y'"
