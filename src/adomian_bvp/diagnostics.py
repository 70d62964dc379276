"""Error and residual diagnostics, plus an independent quadrature check.

Accuracy of a partial sum is measured against a closed-form reference on the
uniform grid x_i = i/grid_size, i = 1..grid_size — the left endpoint is
excluded (the equation lives on the half-open interval), the right one
included.  The quadrature oracle re-computes the inverse operator by
adaptive integration so the closed-form series route can be cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import series as gps
from .errors import InvalidExactSolution, InvalidProblem, NonFiniteTerm, QuadratureFailure
from .expressions import Expr, eval_real, free_vars
from .series import GPSeries
from .singular_operator import RESONANCE_TOL, OperatorContext, apply_forward
from .solver import Problem


@dataclass(frozen=True, eq=False)  # arrays have no single truth value for ==
class ErrorReport:
    """Max |psi - exact| over a grid; ``grid`` and ``errors`` are read-only arrays."""

    n: int | None
    grid: np.ndarray
    errors: np.ndarray
    max_error: float
    max_point: float


def _uniform_grid(grid_size: int) -> np.ndarray:
    return np.arange(1, grid_size + 1, dtype=float) / grid_size


def max_error(
    psi: GPSeries, exact: Expr, grid_size: int, n: int | None = None
) -> ErrorReport:
    """Largest |psi(x_i) - exact(x_i)| over the uniform grid.

    Raises:
        InvalidExactSolution: if the reference mentions y or yp.
        InvalidProblem: grid_size < 2.
        NonFiniteTerm: psi, the reference or their difference overflows.
    """
    if free_vars(exact) - {"x"}:
        raise InvalidExactSolution(
            f"reference mentions variables {sorted(free_vars(exact))}"
        )
    if grid_size < 2:
        raise InvalidProblem(f"grid_size must be at least 2, got {grid_size!r}")
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
        InvalidProblem: grid_size < 1.
        NonFiniteTerm: some term of the residual overflows.
    """
    if grid_size < 1:
        raise InvalidProblem(f"grid_size must be at least 1, got {grid_size!r}")
    xs = _uniform_grid(grid_size)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = gps.evaluate_many(apply_forward(problem.alpha, psi), xs)
        y = gps.evaluate_many(psi, xs)
        yp = gps.evaluate_many(gps.differentiate(psi), xs)
        values = lhs - xs ** problem.sigma * eval_real(problem.f, xs, y, yp)
    if not np.all(np.isfinite(values)):
        raise NonFiniteTerm("the residual overflows on the grid")
    return list(zip(xs.tolist(), values.tolist()))


def quadrature_oracle(
    ctx: OperatorContext, g: GPSeries, x: float, tol: float = 1e-10
) -> float:
    """The inverse operator evaluated by adaptive quadrature instead of closed form.

    The inner integral of each weighted term c*s^r over [t, 1] is elementary,
    c*(1 - t^(r+1))/(r+1); the outer integral over [0, x] carries the t^-alpha
    endpoint singularity, removed exactly by substituting t = u^(1/(1-alpha)):

        int_0^x t^-alpha F(t) dt  =  m * int_0^(x^(1/m)) F(u^m) du,
        m = 1/(1-alpha),

    leaving at worst an integrable power of u at the origin.

    Raises:
        QuadratureFailure: if the error estimate exceeds ``tol``, or a weighted
            exponent is resonant (r = -1, r = alpha - 2) or divergent (r < alpha - 2).
    """
    from scipy.integrate import quad  # here, so that importing the package skips scipy
    if g.is_zero:
        return 0.0
    weighted = [(t.coeff, t.exponent + ctx.sigma) for t in g.terms]
    for _, r in weighted:
        if abs(r + 1.0) <= RESONANCE_TOL or abs(r + 2.0 - ctx.alpha) <= RESONANCE_TOL:
            raise QuadratureFailure(f"weighted exponent {r:g} is resonant")
        if r + 2.0 - ctx.alpha < 0.0:
            raise QuadratureFailure(f"weighted exponent {r:g} diverges")

    m = 1.0 / (1.0 - ctx.alpha)

    def integrand(u: float) -> float:
        t = u ** m
        return m * sum(c * (1.0 - t ** (r + 1.0)) / (r + 1.0) for c, r in weighted)

    upper = x ** (1.0 - ctx.alpha)
    result = quad(integrand, 0.0, upper, epsabs=1e-13, epsrel=1e-13,
                  limit=200, full_output=1)
    value, abserr = result[0], result[1]
    if abserr > tol:
        raise QuadratureFailure(
            f"error estimate {abserr:.2e} exceeds tolerance {tol:.2e}"
        )
    return float(value)


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
