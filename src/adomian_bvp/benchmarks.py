"""Built-in benchmark problems with known closed-form solutions.

Each of the three families has Dirichlet data at both ends (alpha1 = 1, beta1 = 0).
``beta`` shapes both the weight exponent and the coefficients of f.
``benchmark_problem`` builds f and the exact solution as ASTs, each equal to the tree
that :func:`.expressions.parse` reads from the family's problem-file text with alpha,
beta and the derived exponents written as ``repr`` floats: each coefficient, such as
-beta, is one ``Constant`` of its signed value.  ``Problem`` checks each tree once, and
the solver only ever sees (alpha, sigma, f).
"""

from __future__ import annotations

import math

from .errors import InvalidProblem
from .expressions import Add, Constant, Div, Exp, Ln, Mul, PowXReal, X, Y, YP
from .series import check_real
from .solver import Problem

BENCHMARK_IDS = (1, 2, 3)

# The families whose problem depends on beta; family 2 has no beta.
BETA_FAMILIES = (1, 3)


def benchmark_problem(example: int, alpha: float, beta: float = 1.0) -> Problem:
    """Instantiate benchmark family ``example`` in {1, 2, 3} at (alpha, beta)."""
    if example not in BENCHMARK_IDS:
        raise InvalidProblem(f"example must be one of {BENCHMARK_IDS}, got {example!r}")
    alpha, beta = check_real(alpha, "alpha"), check_real(beta, "beta")
    x_beta = X if beta == 1.0 else PowXReal(beta)
    if example == 1:  # (x^a y')' = b x^(a+b-2) e^y (-x y' - a - b + 1),  y = ln(1/(4 + x^b))
        sigma = alpha + beta - 2.0
        f = Mul(Mul(Constant(-beta), Exp(Y)), Add(Mul(X, YP), Constant(alpha + beta - 1.0)))
        exact = Ln(Div(Constant(1.0), Add(Constant(4.0), x_beta)))
        eta1, gamma1 = -math.log(4), -math.log(5)
    elif example == 2:  # (x^a y')' = x^(a-1) e^y (-x y' - a),  y = ln(1/(2 + x)); no beta
        sigma = alpha - 1.0
        f = Mul(Mul(Constant(-1.0), Exp(Y)), Add(Mul(X, YP), Constant(alpha)))
        exact = Ln(Div(Constant(1.0), Add(Constant(2.0), X)))
        eta1, gamma1 = -math.log(2), -math.log(3)
    else:  # (x^a y')' = b x^(a+b-2) (x y' + (a+b-1) y),  y = exp(x^b)
        sigma = alpha + beta - 2.0
        f = Mul(Constant(beta), Add(Mul(X, YP), Mul(Constant(alpha + beta - 1.0), Y)))
        exact = Exp(x_beta)
        eta1, gamma1 = 1.0, math.e
    return Problem(alpha, sigma, f, eta1, 1.0, 0.0, gamma1, exact)
