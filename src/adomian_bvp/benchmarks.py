"""Built-in benchmark problems with known closed-form solutions.

Each of the three families is problem-file text (see :mod:`.problem_file`)
with Dirichlet data at both ends (alpha1 = 1, beta1 = 0).  ``beta`` shapes
both the weight exponent and the coefficients of f; ``benchmark_problem``
fills in alpha, beta and the derived exponents as ``repr`` floats and reads
the text with the parser ``cli solve`` uses, so the solver only ever sees
(alpha, sigma, f).
"""

from __future__ import annotations

import math

from .errors import InvalidProblem
from .problem_file import parse_problem_text
from .solver import Problem

BENCHMARK_IDS = (1, 2, 3)

_DIRICHLET = "\nalpha1 = 1.0\nbeta1 = 0.0"

_FAMILIES = {
    # (x^a y')' = b x^(a+b-2) e^y (-x y' - a - b + 1),  y = ln(1/(4 + x^b))
    1: """p_exponent = {alpha!r}
        q_exponent = {alpha_beta_2!r}
        f = "-{beta!r}*exp(y)*(x*yp + {alpha_beta_1!r})"
        exact = "ln(1.0/(4.0 + {x_beta}))"
        eta1 = -{ln[4]!r}
        gamma1 = -{ln[5]!r}""",
    # (x^a y')' = x^(a-1) e^y (-x y' - a),  y = ln(1/(2 + x)); no beta
    2: """p_exponent = {alpha!r}
        q_exponent = {alpha_1!r}
        f = "-1.0*exp(y)*(x*yp + {alpha!r})"
        exact = "ln(1.0/(2.0 + x))"
        eta1 = -{ln[2]!r}
        gamma1 = -{ln[3]!r}""",
    # (x^a y')' = b x^(a+b-2) (x y' + (a+b-1) y),  y = exp(x^b)
    3: """p_exponent = {alpha!r}
        q_exponent = {alpha_beta_2!r}
        f = "{beta!r}*(x*yp + {alpha_beta_1!r}*y)"
        exact = "exp({x_beta})"
        eta1 = 1.0
        gamma1 = {e!r}""",
}

# The families whose problem depends on beta; family 2 has no beta.
BETA_FAMILIES = (1, 3)


def benchmark_problem(example: int, alpha: float, beta: float = 1.0) -> Problem:
    """Instantiate benchmark family ``example`` in {1, 2, 3} at (alpha, beta)."""
    if example not in BENCHMARK_IDS:
        raise InvalidProblem(f"example must be one of {BENCHMARK_IDS}, got {example!r}")
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not math.isfinite(value):  # "nan" in f would be a ParseError
            raise InvalidProblem(f"{name} must be finite, got {value!r}")
    text = _FAMILIES[example].format(
        alpha=alpha, beta=beta, alpha_1=alpha - 1.0,
        alpha_beta_1=alpha + beta - 1.0, alpha_beta_2=alpha + beta - 2.0,
        x_beta="x" if beta == 1.0 else f"x^{beta!r}",
        ln={k: math.log(k) for k in (2, 3, 4, 5)}, e=math.e,
    )
    return parse_problem_text(text + _DIRICHLET)
