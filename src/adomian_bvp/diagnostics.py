"""Error and residual diagnostics of a partial sum.

Accuracy of a partial sum is measured against a closed-form reference on the
uniform grid x_i = i/grid_size, i = 1..grid_size — the left endpoint is
excluded (the equation lives on the half-open interval), the right one
included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import series as gps
from .errors import InvalidExactSolution, InvalidProblem, NonFiniteTerm
from .expressions import Expr, check_expr, eval_real
from .series import GPSeries
from .singular_operator import apply_forward
from .solver import Problem, check_count


@dataclass(frozen=True, eq=False)  # arrays have no single truth value for ==
class ErrorReport:
    """Max |psi - exact| over a grid; ``grid`` and ``errors`` are read-only arrays."""

    n: int | None
    grid: np.ndarray
    errors: np.ndarray
    max_error: float
    max_point: float


def _uniform_grid(grid_size: int) -> np.ndarray:
    grid_size = check_count(grid_size, "grid_size")
    if grid_size < 1:
        raise InvalidProblem(f"grid_size must be at least 1, got {grid_size!r}")
    return np.arange(1, grid_size + 1, dtype=float) / grid_size


def max_error(
    psi: GPSeries, exact: Expr, grid_size: int, n: int | None = None
) -> ErrorReport:
    """Largest |psi(x_i) - exact(x_i)| over the uniform grid.

    Raises:
        InvalidExactSolution: the reference nests deeper than ``MAX_DEPTH``
            levels, has a literal that is not a finite real, or mentions y or yp.
        InvalidProblem: grid_size is not an integer, or grid_size < 1.
        NonFiniteTerm: psi, the reference or their difference overflows.
    """
    check_expr(exact, {"x"}, InvalidExactSolution, "reference")
    xs = _uniform_grid(grid_size)
    with np.errstate(over="ignore", invalid="ignore"):
        errors = np.abs(gps.evaluate_many(psi, xs) - eval_real(exact, xs))
    if not np.all(np.isfinite(errors)):
        raise NonFiniteTerm("psi - exact overflows on the grid")
    xs.setflags(write=False)
    errors.setflags(write=False)
    imax = int(np.argmax(errors))
    return ErrorReport(
        n=n,
        grid=xs,
        errors=errors,
        max_error=float(errors[imax]),
        max_point=float(xs[imax]),
    )


def residual(
    psi: GPSeries, problem: Problem, grid_size: int
) -> list[tuple[float, float]]:
    """(x^alpha psi')' - x^sigma f(x, psi, psi') sampled on the uniform grid.

    Raises:
        InvalidProblem: grid_size is not an integer, or grid_size < 1.
        NonFiniteTerm: some term of the residual overflows.
    """
    xs = _uniform_grid(grid_size)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = gps.evaluate_many(apply_forward(problem.alpha, psi), xs)
        y = gps.evaluate_many(psi, xs)
        yp = gps.evaluate_many(gps.differentiate(psi), xs)
        values = lhs - xs ** problem.sigma * eval_real(problem.f, xs, y, yp)
    if not np.all(np.isfinite(values)):
        raise NonFiniteTerm("the residual overflows on the grid")
    return list(zip(xs.tolist(), values.tolist()))


def format_error_table(
    alphas: list[float], ns: list[int], cells: dict[tuple[float, int], float]
) -> str:
    """Plain-text table: one row per alpha, one maximum-error column per n."""
    header = ["alpha"] + [f"E^{n}" for n in ns]
    rows = [header]
    for a in alphas:
        rows.append([f"{a:g}"] + [f"{cells[(a, n)]:.5e}" for n in ns])
    widths = [max(len(r[j]) for r in rows) for j in range(len(header))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    ]
    return "\n".join(lines)
