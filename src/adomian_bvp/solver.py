"""Decomposition recursion for the doubly singular two-point problem.

Solves (x^alpha y')' = x^sigma f(x, y, y') on (0, 1] with y(0) = eta1 and
the Robin condition alpha1*y(1) + beta1*y'(1) = gamma1, by building solution
components as closed-form series:

    y_0     = eta1
    y_1     = (gamma1 - alpha1*eta1)/D * h  +  correction(A_0)
    y_(k+1) = correction(A_k),   k >= 1

where h(x) = x^(1-alpha)/(1-alpha), D = alpha1*h(1) + beta1*h'(1), A_k is
the k-th decomposition polynomial of f, and

    correction(A) = (alpha1/D) * [inverse image of A at 1] * h
                    - inverse image of A.

Each correction contributes zero to the Robin combination at x = 1 and
vanishes at x = 0, so every partial sum satisfies both boundary conditions
by construction — no algebraic equations for unknown constants arise.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from . import series as gps
from .errors import AdmError, InvalidExactSolution, InvalidProblem
from .expressions import Expr, Tape, free_vars
from .series import GPSeries
from .singular_operator import OperatorContext, apply_inverse, h_series

# Not called here; bench/spans.py WRAPPED looks these names up on this module.
from .lambda_ring import eval_lambda, extract_adomian, lift_solution  # noqa: F401
from .singular_operator import inverse_at_one  # noqa: F401


@dataclass(frozen=True)
class Problem:
    """One boundary value problem instance.

    ``f`` is the source nonlinearity over {x, y, yp}; ``exact``, when given,
    is a reference solution over {x} used only by the diagnostics.
    """

    alpha: float
    sigma: float
    f: Expr
    eta1: float
    alpha1: float
    beta1: float
    gamma1: float
    exact: Expr | None = None

    def __post_init__(self):
        for name in ("alpha", "sigma", "eta1", "alpha1", "beta1", "gamma1"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidProblem(f"{name} must be finite, got {value!r}")
        self.operator_context  # raises InvalidProblem unless 0 <= alpha < 1
        if not self.alpha1 > 0.0:
            raise InvalidProblem(f"alpha1 must be positive, got {self.alpha1!r}")
        if not self.beta1 >= 0.0:
            raise InvalidProblem(f"beta1 must be nonnegative, got {self.beta1!r}")
        extra = free_vars(self.f) - {"x", "y", "yp"}
        if extra:
            raise InvalidProblem(f"f mentions unknown variables {sorted(extra)}")
        if self.exact is not None and free_vars(self.exact) - {"x"}:
            raise InvalidExactSolution(
                "exact solution may only mention x, got "
                f"variables {sorted(free_vars(self.exact))}"
            )

    @property
    def operator_context(self) -> OperatorContext:
        return OperatorContext(self.alpha, self.sigma)

    @property
    def mixing_denominator(self) -> float:
        """D = alpha1*h(1) + beta1*h'(1) > 0; h(1) = 1/(1-alpha) >= 1, h'(1) = 1."""
        return self.alpha1 * (1.0 / (1.0 - self.alpha)) + self.beta1


@dataclass(frozen=True)
class StepInfo:
    """Per-component bookkeeping: series size and wall time of one step."""

    step: int
    terms: int
    seconds: float


@dataclass(frozen=True)
class SolveReport:
    """Components y_0 ... y_(n-1), running sums psi_1 ... psi_n, step diagnostics."""

    components: tuple[GPSeries, ...]
    partial_sums: tuple[GPSeries, ...]
    psi: GPSeries  # psi_n, a field so that dataclasses.replace can swap it
    diagnostics: tuple[StepInfo, ...] = field(default_factory=tuple)

    @property
    def n(self) -> int:
        return len(self.partial_sums)


def solve(problem: Problem, n: int = 10) -> SolveReport:
    """Run the recursion for n components and return them with their running sums.

    Raises:
        InvalidProblem: n < 1.
        AdmError: ring/operator failures, re-raised tagged with the step index.
    """
    if n < 1:
        raise InvalidProblem(f"need at least one component, got n = {n!r}")

    ctx = problem.operator_context
    H = h_series(ctx)
    D = problem.mixing_denominator

    psi = y = GPSeries.constant(problem.eta1)
    components, partial_sums = [y], [psi]
    diagnostics = [StepInfo(0, len(y), 0.0)]
    inhomogeneous = (problem.gamma1 - problem.alpha1 * problem.eta1) / D  # in y_1 only

    tape = Tape(problem.f)
    for k in range(n - 1):
        started = time.perf_counter()
        try:
            a_k = tape.extend(y, gps.differentiate(y))
            image = apply_inverse(ctx, a_k)
            bleed = sum(image.coeffs.tolist(), 0.0)  # image(1): every power of 1 is 1
            weights = (problem.alpha1 * bleed / D, -1.0, inhomogeneous if k == 0 else 0.0)
            y = gps.combine(zip(weights, (H, image, H)))
            psi = gps.add(psi, y)
            if problem.eta1 and (psi.is_zero or psi.exponents[0] != 0.0):
                # The prune dropped a tiny eta1; y_k has no constant term for k >= 1.
                psi = GPSeries(components[0].terms + psi.terms)
        except AdmError as err:
            raise type(err)(f"component {k + 1}: {err}") from err
        components.append(y)
        partial_sums.append(psi)
        diagnostics.append(StepInfo(k + 1, len(y), time.perf_counter() - started))

    return SolveReport(tuple(components), tuple(partial_sums), psi, tuple(diagnostics))


def partial_sum(report: SolveReport, m: int) -> GPSeries:
    """psi_m, the sum of the first m components, 1 <= m <= n."""
    if not 1 <= m <= report.n:
        raise InvalidProblem(f"m must lie in [1, {report.n}], got {m!r}")
    return report.partial_sums[m - 1]
