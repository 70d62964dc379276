"""Closed-form series solutions of doubly singular two-point boundary value problems.

The pipeline: parse a nonlinearity f(x, y, yp), expand it into decomposition
polynomials on a compiled expression tape, invert the singular operator
(x^alpha u')' term by term in closed form, and accumulate solution
components whose partial sums satisfy both boundary conditions exactly.
"""

from . import benchmarks, diagnostics, problem_file
from .diagnostics import ErrorReport, max_error, max_errors, residual
from .errors import AdmError, ComputeError, InputError
from .expressions import Expr, eval_real, parse, to_source
from .series import GPSeries, Term, format_series, normalize
from .singular_operator import OperatorContext, apply_forward, apply_inverse, h_series
from .solver import Problem, SolveReport, partial_sum, solve, steps

__all__ = [
    "AdmError",
    "ComputeError",
    "ErrorReport",
    "Expr",
    "GPSeries",
    "InputError",
    "OperatorContext",
    "Problem",
    "SolveReport",
    "Term",
    "apply_forward",
    "apply_inverse",
    "benchmarks",
    "diagnostics",
    "eval_real",
    "format_series",
    "h_series",
    "max_error",
    "max_errors",
    "normalize",
    "parse",
    "partial_sum",
    "problem_file",
    "residual",
    "solve",
    "steps",
    "to_source",
]

__version__ = "0.1.0"
