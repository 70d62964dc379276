"""Decomposition recursion for the doubly singular two-point problem.

Solves (x^alpha y')' = x^sigma f(x, y, y') on (0, 1] with y(0) = eta1 and the Robin
condition alpha1*y(1) + beta1*y'(1) = gamma1, each number read by ``series.check_real``
as its float, by building solution components as closed-form series:

    y_0     = eta1
    y_1     = (gamma1 - alpha1*eta1)/D * h  +  correction(A_0)
    y_(k+1) = correction(A_k),   k >= 1

where h(x) = x^(1-alpha)/(1-alpha), D = alpha1*h(1) + beta1*h'(1), A_k is
the k-th decomposition polynomial of f, and

    correction(A) = (alpha1/D) * [inverse image of A at 1] * h
                    - inverse image of A.

Each correction contributes zero to the Robin combination at x = 1 and
vanishes at x = 0, so every partial sum satisfies both boundary conditions
by construction — no algebraic equations for unknown constants arise.  :func:`steps`
forms y_(k+1), when it is read, from A_k of y_k and y_k', its inverse image and its correction.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from collections.abc import Iterator
from dataclasses import dataclass

from . import series as gps
from .errors import AdmError, InvalidExactSolution, InvalidProblem
from .expressions import Expr, Tape, check_expr
from .series import EXPONENT_MERGE_TOL, GPSeries, check_real
from .singular_operator import OperatorContext, apply_inverse, h_series

# Not called here; bench/spans.py WRAPPED looks these names up on this module.
from .lambda_ring import eval_lambda, extract_adomian, lift_solution  # noqa: F401
from .singular_operator import inverse_at_one  # noqa: F401


@dataclass(frozen=True)
class Problem:
    """One boundary value problem instance, as checked data; :func:`steps` derives the rest.

    ``f`` is the source nonlinearity over {x, y, yp}; ``exact``, when given, is a reference solution
    over {x} used only by the diagnostics.  Each nests at most ``expressions.MAX_DEPTH`` levels, its
    powers integral.  The six numbers and every literal pass ``check_real``; the six are floats.
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
            object.__setattr__(self, name, check_real(getattr(self, name), name))
        OperatorContext(self.alpha, self.sigma)  # raises InvalidProblem unless 0 <= alpha < 1
        if (gap := 1.0 - self.alpha) <= EXPONENT_MERGE_TOL:  # x^(1-alpha) would merge with x^0
            raise InvalidProblem(f"1 - alpha = {gap:g} <= merge tolerance {EXPONENT_MERGE_TOL:g}")
        if not self.alpha1 > 0.0:
            raise InvalidProblem(f"alpha1 must be positive, got {self.alpha1!r}")
        if not self.beta1 >= 0.0:
            raise InvalidProblem(f"beta1 must be nonnegative, got {self.beta1!r}")
        check_expr(self.f, {"x", "y", "yp"}, InvalidProblem, "f")
        if self.exact is not None:
            check_expr(self.exact, {"x"}, InvalidExactSolution, "exact solution")


@dataclass(frozen=True)
class Step:
    """Component y_step of the recursion and the wall time that formed it."""

    step: int
    y: GPSeries
    seconds: float

    @property
    def terms(self) -> int:
        return len(self.y)


@dataclass(frozen=True)
class SolveReport:
    """The steps of y_0 ... y_(n-1) and their sum psi_n; psi_m is on demand."""

    diagnostics: tuple[Step, ...]
    psi: GPSeries  # psi_n, a field so that dataclasses.replace can swap it

    @property
    def components(self) -> tuple[GPSeries, ...]:
        return tuple(step.y for step in self.diagnostics)

    @property
    def n(self) -> int:
        return len(self.diagnostics)


def check_count(value: object, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an int in [low, high] (no upper bound if high is None) if ``operator.index``
    takes it: the one rule for a count a caller gives; InvalidProblem naming ``name`` if not."""
    try:
        count = operator.index(value)
    except TypeError:
        raise InvalidProblem(f"{name} must be an integer, got {value!r}") from None
    if count < low:
        raise InvalidProblem(f"{name} must be at least {low}, got {count!r}")
    if high is not None and count > high:
        raise InvalidProblem(f"{name} must be at most {high}, got {count!r}")
    return count


def steps(problem: Problem) -> Iterator[Step]:
    """The recursion as a lazy stream: y_0, then y_(k+1) only once the next step is read.

    A failing step raises at its own ``next()``, its AdmError tagged ``component k``."""
    ctx = OperatorContext(problem.alpha, problem.sigma)
    H = h_series(ctx)
    D = problem.alpha1 * gps.at_one(H) + problem.beta1  # h(1) = H(1), h'(1) = 1
    weight = (problem.gamma1 - problem.alpha1 * problem.eta1) / D  # of H, in y_1 only
    tape = Tape(problem.f)

    y = GPSeries.constant(problem.eta1)
    yield Step(0, y, 0.0)
    for k in itertools.count(1):
        started = time.perf_counter()
        try:
            a_k = tape.extend(y, gps.differentiate(y))
            y = _next(ctx, H, a_k, problem.alpha1, D, weight)
        except AdmError as err:
            raise type(err)(f"component {k}: {err}") from err
        weight = 0.0
        yield Step(k, y, time.perf_counter() - started)


def solve(problem: Problem, n: int = 10) -> SolveReport:
    """The first n steps of :func:`steps` and their sum psi_n.

    Raises:
        InvalidProblem: n is not an integer, or n < 1.
        AdmError: ring/operator failures, re-raised tagged with the step (or ``psi_<n>``).
    """
    n = check_count(n, "n", 1)
    taken = tuple(step for _, step in zip(range(n), steps(problem)))  # islice caps n at sys.maxsize
    try:
        psi = gps.combine((1.0, step.y) for step in taken)
    except AdmError as err:  # a merged coefficient overflows
        raise type(err)(f"psi_{n}: {err}") from err
    return SolveReport(taken, psi)


def _next(ctx: OperatorContext, H: GPSeries, g: GPSeries, alpha1: float, D: float,
          c: float) -> GPSeries:
    """y_(k+1) from g = A_k and the weight c of H = h*x^p: the correction of A_k plus c*H.

    It is ``combine(zip((w, -1.0, c), (H, image, H)))``, w = alpha1*image(1)/D, in order:
    -image, its x^p coefficient S made ((0.0 + w*h) - S) + c*h as the kernel sums that group
    (a zero weight adds a zero), or that kernel call if S is missing or the sum is 0 or not
    finite.  For boundary data of type float the sum is of Python floats: it warns of nothing."""
    image = apply_inverse(ctx, g)
    w, h, p = alpha1 * gps.at_one(image) / D, H.coeffs.item(0), H.exponents.item(0)
    i = int(image.exponents.searchsorted(p))
    if i < len(image) and image.exponents.item(i) == p:
        head = ((0.0 + w * h) - image.coeffs.item(i)) + c * h
        if head != 0.0 and math.isfinite(head):
            coeffs = -image.coeffs
            coeffs[i] = head
            return GPSeries._of(coeffs, image.exponents)
    return gps.combine(zip((w, -1.0, c), (H, image, H)))


def partial_sum(report: SolveReport, m: int) -> GPSeries:
    """psi_m = y_0 + ... + y_(m-1), integer m in [1, n]: one merge, bit for bit the left fold.
    psi_n is ``report.psi`` itself, the merge :func:`solve` made."""
    m = check_count(m, "m", 1, report.n)
    return report.psi if m == report.n else gps.combine((1.0, s.y) for s in report.diagnostics[:m])
