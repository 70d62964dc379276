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
by construction — no algebraic equations for unknown constants arise.  A step
is one ordered pass from A_k to y_(k+1) and the y'_(k+1) that A_(k+1) reads.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from . import series as gps
from .errors import AdmError, InvalidExactSolution, InvalidProblem
from .expressions import Expr, Tape, check_expr
from .series import GPSeries
from .singular_operator import OperatorContext, _image, h_series

# Not called here; bench/spans.py WRAPPED looks these names up on this module.
from .lambda_ring import eval_lambda, extract_adomian, lift_solution  # noqa: F401
from .singular_operator import apply_inverse, inverse_at_one  # noqa: F401


@dataclass(frozen=True)
class Problem:
    """One boundary value problem instance, as checked data; :func:`solve` derives the rest.

    ``f`` is the source nonlinearity over {x, y, yp}; ``exact``, when given, is a
    reference solution over {x} used only by the diagnostics.  Each nests at most
    ``expressions.MAX_DEPTH`` levels, its numbers finite reals and its powers integral.
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
        OperatorContext(self.alpha, self.sigma)  # raises InvalidProblem unless 0 <= alpha < 1
        if not self.alpha1 > 0.0:
            raise InvalidProblem(f"alpha1 must be positive, got {self.alpha1!r}")
        if not self.beta1 >= 0.0:
            raise InvalidProblem(f"beta1 must be nonnegative, got {self.beta1!r}")
        check_expr(self.f, {"x", "y", "yp"}, InvalidProblem, "f")
        if self.exact is not None:
            check_expr(self.exact, {"x"}, InvalidExactSolution, "exact solution")


@dataclass(frozen=True)
class StepInfo:
    """Per-component bookkeeping: series size and wall time of one step."""

    step: int
    terms: int
    seconds: float


@dataclass(frozen=True)
class SolveReport:
    """Components y_0 ... y_(n-1), their sum psi_n, step diagnostics; psi_m is on demand."""

    components: tuple[GPSeries, ...]
    psi: GPSeries  # psi_n, a field so that dataclasses.replace can swap it
    diagnostics: tuple[StepInfo, ...] = field(default_factory=tuple)

    @property
    def n(self) -> int:
        return len(self.components)


def check_count(value: object, name: str) -> int:
    """``value`` as an int if ``operator.index`` takes it; InvalidProblem naming ``name`` if not."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidProblem(f"{name} must be an integer, got {value!r}") from None


def solve(problem: Problem, n: int = 10) -> SolveReport:
    """Run the recursion for n components and return them with their sum psi_n.

    Raises:
        InvalidProblem: n is not an integer, or n < 1.
        AdmError: ring/operator failures, re-raised tagged with the step (or ``psi_<n>``).
    """
    n = check_count(n, "n")
    if n < 1:
        raise InvalidProblem(f"need at least one component, got n = {n!r}")

    ctx = OperatorContext(problem.alpha, problem.sigma)
    H = h_series(ctx)
    D = problem.alpha1 * gps.at_one(H) + problem.beta1  # h(1) = H(1), h'(1) = 1

    y = GPSeries.constant(problem.eta1)
    components, diagnostics = [y], [StepInfo(0, len(y), 0.0)]
    inhomogeneous = (problem.gamma1 - problem.alpha1 * problem.eta1) / D  # in y_1 only

    tape, yp = Tape(problem.f), None
    for k in range(n - 1):
        started = time.perf_counter()
        try:
            a_k = tape.extend(y, gps.differentiate(y) if yp is None else yp)
            y, yp = _next(ctx, H, a_k, problem.alpha1, D, inhomogeneous if k == 0 else 0.0)
        except AdmError as err:
            raise type(err)(f"component {k + 1}: {err}") from err
        components.append(y)
        diagnostics.append(StepInfo(k + 1, len(y), time.perf_counter() - started))

    try:
        psi = gps.combine((1.0, y) for y in components)
    except AdmError as err:  # a merged coefficient overflows
        raise type(err)(f"psi_{n}: {err}") from err
    return SolveReport(tuple(components), psi, tuple(diagnostics))


def _next(ctx: OperatorContext, H: GPSeries, g: GPSeries, alpha1: float, D: float,
          c: float) -> tuple[GPSeries, GPSeries | None]:
    """y_(k+1) and y'_(k+1) from g = A_k and the weight c of h, in one ordered pass.

    y is ``combine(zip((w, -1.0, c), (H, image, H)))``, w = alpha1*image(1)/D: -image, its x^p
    coefficient S made ((0.0 + w*h) - S) + c*h as the kernel sums that group.  y' is y's
    coefficients times its exponents, at those less 1.  Each is checked as from_ordered checks:
    where that fails, the kernel forms image and y, and y' is None, read as differentiate(y)."""
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs, e, i = _image(ctx, g) if len(g.coeffs) else (g.coeffs, g.exponents, 0)
        ordered = len(e) and gps._in_order(coeffs, e)
        image = GPSeries._of(coeffs, e) if ordered else gps.from_arrays(coeffs, e)
        w, h = alpha1 * gps.at_one(image) / D, H.coeffs.item(0)
        head = ((0.0 + w * h) - coeffs.item(i)) + c * h if ordered else 0.0
        if head == 0.0 or not math.isfinite(head):
            return gps.combine(zip((w, -1.0, c), (H, image, H))), None
        coeffs = -coeffs
        coeffs[i] = head
        slopes, lowered = coeffs * e, e - 1.0  # e ascends: past e[0] no exponent is near 0
        in_order = e.item(0) > gps.EXPONENT_MERGE_TOL and gps._in_order(slopes, lowered)
    return GPSeries._of(coeffs, e), GPSeries._of(slopes, lowered) if in_order else None


def partial_sum(report: SolveReport, m: int) -> GPSeries:
    """psi_m = y_0 + ... + y_(m-1), integer m in [1, n]: one merge, bit for bit the left fold.
    psi_n is ``report.psi`` itself, the merge :func:`solve` made."""
    m = check_count(m, "m")
    if not 1 <= m <= report.n:
        raise InvalidProblem(f"m must lie in [1, {report.n}], got {m!r}")
    return report.psi if m == report.n else gps.combine((1.0, y) for y in report.components[:m])
