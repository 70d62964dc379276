"""Built-in benchmark problems with known closed-form solutions.

Three families, selected by index:

1. exponential nonlinearity, exact solution ln(1/(4 + x^beta)),
   weight exponent sigma = alpha + beta - 2;
2. exponential nonlinearity, exact solution ln(1/(2 + x)),
   weight exponent sigma = alpha - 1 (no beta);
3. linear source, exact solution exp(x^beta),
   weight exponent sigma = alpha + beta - 2.

All three carry Dirichlet data at both ends (alpha1 = 1, beta1 = 0).  The
``beta`` parameter shapes both the weight exponent and the coefficients of
the nonlinearity; it is folded in here so the solver itself only ever sees
(alpha, sigma, f).
"""

from __future__ import annotations

import math

from .errors import InvalidProblem
from .expressions import (
    X,
    Y,
    YP,
    Add,
    Constant,
    Div,
    Exp,
    Expr,
    Ln,
    Mul,
    Neg,
    PowXReal,
)
from .solver import Problem

BENCHMARK_IDS = (1, 2, 3)


def _const(value: float) -> Expr:
    # Keep constants nonnegative under an explicit Neg, the parser-image form.
    if value < 0:
        return Neg(Constant(-value))
    return Constant(value)


def _x_power(exponent: float) -> Expr:
    return X if exponent == 1.0 else PowXReal(exponent)


def log_rational_problem(alpha: float, beta: float) -> Problem:
    """Family 1: (x^a y')' = b x^(a+b-2) e^y (-x y' - a - b + 1), y = ln(1/(4+x^b))."""
    f = Mul(
        Mul(Neg(Constant(beta)), Exp(Y)),
        Add(Mul(X, YP), _const(alpha + beta - 1.0)),
    )
    exact = Ln(Div(Constant(1.0), Add(Constant(4.0), _x_power(beta))))
    return Problem(
        alpha=alpha,
        sigma=alpha + beta - 2.0,
        f=f,
        eta1=-math.log(4.0),
        alpha1=1.0,
        beta1=0.0,
        gamma1=-math.log(5.0),
        exact=exact,
    )


def log_shift_problem(alpha: float) -> Problem:
    """Family 2: (x^a y')' = x^(a-1) e^y (-x y' - a), y = ln(1/(2+x))."""
    f = Mul(
        Mul(Neg(Constant(1.0)), Exp(Y)),
        Add(Mul(X, YP), _const(alpha)),
    )
    exact = Ln(Div(Constant(1.0), Add(Constant(2.0), X)))
    return Problem(
        alpha=alpha,
        sigma=alpha - 1.0,
        f=f,
        eta1=-math.log(2.0),
        alpha1=1.0,
        beta1=0.0,
        gamma1=-math.log(3.0),
        exact=exact,
    )


def exp_power_problem(alpha: float, beta: float) -> Problem:
    """Family 3: (x^a y')' = b x^(a+b-2) (x y' + (a+b-1) y), y = exp(x^b)."""
    f = Mul(
        _const(beta),
        Add(Mul(X, YP), Mul(_const(alpha + beta - 1.0), Y)),
    )
    exact = Exp(_x_power(beta))
    return Problem(
        alpha=alpha,
        sigma=alpha + beta - 2.0,
        f=f,
        eta1=1.0,
        alpha1=1.0,
        beta1=0.0,
        gamma1=math.e,
        exact=exact,
    )


def benchmark_problem(example: int, alpha: float, beta: float = 1.0) -> Problem:
    """Instantiate benchmark family ``example`` in {1, 2, 3} at (alpha, beta)."""
    if example == 1:
        return log_rational_problem(alpha, beta)
    if example == 2:
        return log_shift_problem(alpha)
    if example == 3:
        return exp_power_problem(alpha, beta)
    raise InvalidProblem(f"example must be one of {BENCHMARK_IDS}, got {example!r}")
