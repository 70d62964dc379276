"""The one rule for a number a caller gives, ``series.check_real``: a ``numbers.Real`` whose
float is finite, read as that float.  ``Problem``, every literal of f, of an exact solution and
of ``max_error``'s reference, ``benchmark_problem`` and ``OperatorContext`` refuse any other
number with their own AdmError, and every reader reads a literal as its float."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from adomian_bvp import Problem, series, solve
from adomian_bvp.benchmarks import benchmark_problem
from adomian_bvp.diagnostics import max_error, residual
from adomian_bvp.errors import AdmError, InvalidExactSolution, InvalidProblem, ParseError
from adomian_bvp.expressions import Add, Constant, Mul, PowInt, PowXReal, X, Y, eval_real, to_source
from adomian_bvp.series import GPSeries
from adomian_bvp.singular_operator import OperatorContext, apply_inverse

BIG = 10**400  # an int past the largest float
HUGE = 10**5000  # past the largest float, and its repr past Python's default of 4300 digits
PAST = "must be finite, got a number past the largest float"
DATA = dict(alpha=0.5, sigma=0.0, f=Y, eta1=0.0, alpha1=1.0, beta1=0.0, gamma1=1.0)


def _problem(**changes) -> Problem:
    return Problem(**{**DATA, **changes})


def _inverse(alpha, sigma) -> GPSeries:
    return apply_inverse(OperatorContext(alpha, sigma), GPSeries.constant(1.0))


def _measured(third, half) -> tuple:
    """The errors and the residual of psi_4 where f = y + third and exact = x^half * third."""
    problem = _problem(f=Add(Y, Constant(third)), exact=Mul(PowXReal(half), Constant(third)))
    psi = solve(problem, 4).psi
    return max_error(psi, problem.exact, 10).errors.tolist(), residual(psi, problem, 10)


def _float32_sum() -> tuple:
    """0.1 as a float32 constant plus x, at the point 0.3 and on the grid [0.3]."""
    e = Add(Constant(np.float32(0.1)), X)
    return eval_real(e, 0.3), eval_real(e, np.array([0.3])).tolist()


# id: (call, the AdmError it raises, or a call whose value it has bit for bit)
ROWS = {
    "problem-int": (lambda: _problem(alpha1=BIG), InvalidProblem(f"alpha1 {PAST}")),
    "problem-fraction": (lambda: _problem(alpha1=Fraction(BIG)), InvalidProblem(f"alpha1 {PAST}")),
    "f-constant": (lambda: _problem(f=Add(Y, Constant(BIG))),
                   InvalidProblem(f"a literal in f {PAST}")),
    "f-exponent": (lambda: _problem(f=Mul(Y, PowXReal(BIG))),
                   InvalidProblem(f"a literal in f {PAST}")),
    "reference-constant": (lambda: max_error(GPSeries.zero(), Constant(BIG), 10),
                           InvalidExactSolution(f"a literal in reference {PAST}")),
    "reference-exponent": (lambda: max_error(GPSeries.zero(), PowXReal(-HUGE), 10),
                           InvalidExactSolution(f"a literal in reference {PAST}")),
    "f-power": (lambda: _problem(f=PowInt(Y, BIG)), InvalidProblem(f"a literal in f {PAST}")),
    "f-power-huge": (lambda: _problem(f=PowInt(Y, HUGE)), InvalidProblem(f"a literal in f {PAST}")),
    "benchmark-str": (lambda: benchmark_problem(1, "0.5"),
                      InvalidProblem("alpha must be a real number, got '0.5'")),
    "benchmark-int": (lambda: benchmark_problem(1, 0.5, BIG), InvalidProblem(f"beta {PAST}")),
    "operator-str": (lambda: _inverse("0.5", 0.0),
                     InvalidProblem("alpha must be a real number, got '0.5'")),
    "operator-int": (lambda: _inverse(0.5, BIG), InvalidProblem(f"sigma {PAST}")),
    # eval_real and to_source read a tree no check has seen, each literal by the same rule
    "eval-constant": (lambda: eval_real(Constant(BIG), 0.5),
                      InvalidProblem(f"a literal in expression {PAST}")),
    "eval-str": (lambda: eval_real(Constant("a"), 0.5),
                 InvalidProblem("a literal in expression must be a real number, got 'a'")),
    "eval-power": (lambda: eval_real(PowInt(Y, BIG), 0.5, 2.0),
                   InvalidProblem(f"a literal in expression {PAST}")),
    "source-constant": (lambda: to_source(Constant(BIG)),
                        InvalidProblem(f"a literal in expression {PAST}")),
    "source-power-huge": (lambda: to_source(PowInt(Y, HUGE)),
                          InvalidProblem(f"a literal in expression {PAST}")),
    "fraction-literals": (lambda: _measured(Fraction(1, 3), Fraction(1, 2)),
                          lambda: _measured(1 / 3, 0.5)),
    "float32-constant": (_float32_sum, lambda: (0.4000000014901161, [0.4000000014901161])),
}


@pytest.mark.parametrize("call,want", ROWS.values(), ids=ROWS)
def test_each_number_is_refused_with_its_own_error_or_read_as_its_float(call, want):
    if isinstance(want, AdmError):
        with pytest.raises(AdmError) as exc:
            call()
        assert type(exc.value) is type(want) and str(exc.value) == str(want)
    else:  # repr: the same floats, bit for bit, of type float
        assert repr(call()) == repr(want())


@pytest.mark.parametrize("value", [
    1, True, np.int64(-2), 2.5, Fraction(1, 3), np.float32(0.1), np.float64(-0.0),
    Fraction(HUGE + 1, HUGE),
], ids=["int", "bool", "int64", "float", "fraction", "float32", "minus-zero", "huge-fraction"])
def test_check_real_reads_a_finite_real_as_its_float(value):
    got = series.check_real(value, "v")
    assert type(got) is float and repr(got) == repr(float(value))


@pytest.mark.parametrize("value,message", [
    ("1", "v must be a real number, got '1'"),
    (None, "v must be a real number, got None"),
    (1j, "v must be a real number, got 1j"),
    (Decimal("1"), "v must be a real number, got Decimal('1')"),
    (np.array(0.5), "v must be a real number, got array(0.5)"),
    (math.nan, "v must be finite, got nan"),
    (-math.inf, "v must be finite, got -inf"),
    (np.float64(math.inf), f"v must be finite, got {np.float64(math.inf)!r}"),
    (BIG, f"v {PAST}"),
    (-HUGE, f"v {PAST}"),
    (Fraction(HUGE, 3), f"v {PAST}"),
], ids=["str", "none", "complex", "decimal", "0-d-array", "nan", "minus-inf", "float64-inf",
        "big-int", "huge-negative-int", "huge-fraction"])
def test_check_real_raises_the_error_it_is_given(value, message):
    with pytest.raises(InvalidProblem) as exc:
        series.check_real(value, "v")
    assert type(exc.value) is InvalidProblem and str(exc.value) == message
    with pytest.raises(ParseError) as exc:
        series.check_real(value, "v", lambda text: ParseError(text, 7))
    assert str(exc.value) == f"{message} (at position 7)" and exc.value.position == 7
