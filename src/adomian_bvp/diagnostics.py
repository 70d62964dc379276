"""Error and residual diagnostics of a partial sum.

Accuracy of a partial sum is measured against a closed-form reference on the
uniform grid x_i = i/grid_size, i = 1..grid_size — the left endpoint is
excluded (the equation lives on the half-open interval), the right one
included.  Several partial sums, such as every cell of an error table, are
measured in one call that checks and evaluates the reference once
(:func:`max_errors`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import series as gps
from .errors import InvalidExactSolution, NonFiniteTerm
from .expressions import Expr, check_expr, eval_real
from .series import GPSeries
from .singular_operator import apply_forward
from .solver import Problem, check_count

# The most grid points that max_error, max_errors and residual accept: each holds a few
# arrays of grid_size floats, and max_errors one more per partial sum (cli table keeps
# the partial sums of one call times grid_size within this bound too).
MAX_GRID_SIZE = 1_000_000


@dataclass(frozen=True, eq=False)  # arrays have no single truth value for ==
class ErrorReport:
    """Max |psi - exact| over a grid; ``grid`` and ``errors`` are read-only arrays."""

    grid: np.ndarray
    errors: np.ndarray
    max_error: float
    max_point: float


def _uniform_grid(grid_size: int) -> np.ndarray:
    grid_size = check_count(grid_size, "grid_size", 1, MAX_GRID_SIZE)
    return np.arange(1, grid_size + 1, dtype=float) / grid_size


def max_error(psi: GPSeries, exact: Expr, grid_size: int) -> ErrorReport:
    """Largest |psi(x_i) - exact(x_i)| over the uniform grid: :func:`max_errors` of psi alone."""
    (report,) = max_errors((psi,), exact, grid_size)
    return report


def max_errors(
    partial_sums: Iterable[GPSeries], exact: Expr, grid_size: int
) -> list[ErrorReport]:
    """Largest |psi(x_i) - exact(x_i)| over the uniform grid, one report per psi.

    The reference is checked once, and evaluated on the grid once, for all the partial sums,
    both from the one layout its tree keeps; the sums share each power of x
    (``series.evaluate_each``).  Each error array is formed in place of its values array: a
    call holds one grid array per psi, beside the grid, the reference and evaluation buffers.

    Raises:
        InvalidExactSolution: the reference nests deeper than ``MAX_DEPTH``
            levels, has a literal that is not a finite real, or mentions y or yp.
        InvalidProblem: grid_size is not an integer, or lies outside
            [1, ``MAX_GRID_SIZE``].
        NonFiniteTerm: some psi, the reference or their difference
            overflows; the first such psi names the error.
    """
    check_expr(exact, {"x"}, InvalidExactSolution, "reference")
    xs = _uniform_grid(grid_size)
    with np.errstate(over="ignore", invalid="ignore"):
        values = gps.evaluate_each(partial_sums, xs)
        reference = eval_real(exact, xs)
        errors = [np.abs(np.subtract(v, reference, out=v), out=v) for v in values]
    xs.setflags(write=False)
    reports = []
    for e in errors:
        if not np.all(np.isfinite(e)):
            raise NonFiniteTerm("psi - exact overflows on the grid")
        e.setflags(write=False)
        imax = int(np.argmax(e))
        reports.append(ErrorReport(
            grid=xs, errors=e, max_error=float(e[imax]), max_point=float(xs[imax])))
    return reports


def residual(psi: GPSeries, problem: Problem, grid_size: int) -> list[tuple[float, float]]:
    """:func:`residual_grid` as (x, r) pairs, in grid order."""
    return list(zip(*(column.tolist() for column in residual_grid(psi, problem, grid_size))))


def residual_grid(
    psi: GPSeries, problem: Problem, grid_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """The uniform grid and (x^alpha psi')' - x^sigma f(x, psi, psi') sampled on it.

    (x^alpha psi')', psi and psi' share each power of x (``series.evaluate_each``),
    each bit for bit its own ``evaluate_many``; f is read from the layout its tree keeps.

    Raises:
        InvalidProblem: grid_size is not an integer, or lies outside
            [1, ``MAX_GRID_SIZE``].
        NonFiniteTerm: some term of the residual overflows.
    """
    xs = _uniform_grid(grid_size)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs, y, yp = gps.evaluate_each(
            (apply_forward(problem.alpha, psi), psi, gps.differentiate(psi)), xs)
        values = lhs - xs ** problem.sigma * eval_real(problem.f, xs, y, yp)
    if not np.all(np.isfinite(values)):
        raise NonFiniteTerm("the residual overflows on the grid")
    return xs, values


def format_error_table(
    alphas: list[float], ns: list[int], cells: dict[tuple[float, int], float]
) -> str:
    """Plain-text table: one row per alpha, one maximum-error column per n."""
    header = ["alpha"] + [f"E^{n}" for n in ns]
    rows = [header]
    for a in alphas:
        rows.append([_label(a)] + [f"{cells[(a, n)]:.5e}" for n in ns])
    widths = [max(len(r[j]) for r in rows) for j in range(len(header))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    ]
    return "\n".join(lines)


def _label(value: float) -> str:
    """``value`` as ``:g`` text where that reads back as value, else its ``repr``."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)
