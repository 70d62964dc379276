"""Closed-form inversion of the singular operator u -> (x^alpha u')'.

The problems handled here have the coefficient of the second-order operator
vanishing like x^alpha at the left endpoint (0 <= alpha < 1) and a
right-hand-side weight x^sigma that may itself be singular at 0.  The
inverse map used by the solver is the nested integral

    g  ->  int_0^x t^-alpha [ int_t^1 s^sigma g(s) ds ] dt

(the weight is folded in here), which acts term by term on series of real
powers:

    c*x^e  ->  c * [ x^(1-alpha) / ((r+1)(1-alpha))
                     - x^(r+2-alpha) / ((r+1)(r+2-alpha)) ],   r = e + sigma.

Two weighted exponents are off-limits: r = -1 makes the inner integral
logarithmic and r = alpha-2 the outer one; r < alpha-2 diverges.  All three
raise instead of silently leaving the representable algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import series as gps
from .errors import Divergent, InvalidProblem, LogResonance, OuterResonance
from .series import GPSeries

RESONANCE_TOL = 1e-12  # matches the exponent-merge tolerance


@dataclass(frozen=True)
class OperatorContext:
    """Exponent pair (a, s) of the operator weight x^a and source weight x^s."""

    alpha: float
    sigma: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise InvalidProblem(f"alpha must lie in [0, 1), got {self.alpha!r}")

    @property
    def h1(self) -> float:
        """Value at 1 of the homogeneous integral x^(1-a)/(1-a)."""
        return 1.0 / (1.0 - self.alpha)


def h_series(ctx: OperatorContext) -> GPSeries:
    """The homogeneous solution int_0^x t^-a dt = x^(1-a)/(1-a)."""
    return GPSeries.monomial(1.0 / (1.0 - ctx.alpha), 1.0 - ctx.alpha)


def _check_exponent(ctx: OperatorContext, exponent: float) -> None:
    r = exponent + ctx.sigma
    if abs(r + 1.0) <= RESONANCE_TOL:
        raise LogResonance(f"weighted exponent {r:g} hits -1 (term x^{exponent:g})")
    tail = r + 2.0 - ctx.alpha
    if abs(tail) <= RESONANCE_TOL:
        raise OuterResonance(
            f"weighted exponent {r:g} hits alpha-2 = {ctx.alpha - 2.0:g}"
        )
    if tail < 0.0:
        raise Divergent(
            f"weighted exponent {r:g} below alpha-2 = {ctx.alpha - 2.0:g}: "
            "integral diverges"
        )


def apply_inverse(ctx: OperatorContext, g: GPSeries) -> GPSeries:
    """Term-wise closed form of the nested integral applied to the weighted g.

    Satisfies (x^a * result')' = -x^s * g, and every output exponent is at
    least 1-a > 0, so the image always vanishes at x = 0 and its combination
    a1*u(1) + b1*u'(1) reduces to a1*u(1) (the derivative vanishes at 1).
    The raw image lists the two terms of each term of g in turn, x^(1-a)
    first, so that equal exponents merge in the same order as term by term.

    Raises:
        LogResonance, OuterResonance, Divergent: inadmissible exponents, for
            the first offending term.
    """
    if g.is_zero:
        return g
    r = g.exponents + ctx.sigma
    r1 = r + 1.0
    tail = r + 2.0 - ctx.alpha
    if np.abs(r1).min() <= RESONANCE_TOL or tail.min() <= RESONANCE_TOL:
        for exponent in g.exponents.tolist():
            _check_exponent(ctx, exponent)
    coeffs = np.empty(2 * len(g))
    exponents = np.empty(2 * len(g))
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs[0::2] = g.coeffs / (r1 * (1.0 - ctx.alpha))
        coeffs[1::2] = -g.coeffs / (r1 * tail)
    exponents[0::2] = 1.0 - ctx.alpha
    exponents[1::2] = tail
    return gps.from_arrays(coeffs, exponents)


def inverse_at_one(ctx: OperatorContext, g: GPSeries) -> float:
    """The inverse image evaluated at x = 1 (both powers of x collapse to 1)."""
    return gps.evaluate(apply_inverse(ctx, g), 1.0)


def apply_forward(alpha: float, u: GPSeries) -> GPSeries:
    """The forward operator (x^a u')' via two derivatives and one monomial product."""
    inner = gps.mul(GPSeries.monomial(1.0, alpha), gps.differentiate(u))
    return gps.differentiate(inner)
