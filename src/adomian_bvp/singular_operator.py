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
raise instead of silently leaving the representable algebra.  So does an r
whose two image exponents 1-alpha and r+2-alpha, as computed, lie within the
merge tolerance: the merge would fold them into one x^(1-alpha) term, which
L maps to 0.  The image is built as arrays in exponent order, its x^(1-alpha) terms one sum,
which :func:`apply_inverse` and the solver's step share; only terms that would merge, or are 0
or not finite, go to the kernel, which names their first non-finite term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import series as gps
from .errors import Divergent, InvalidProblem, LogResonance, OuterResonance
from .series import GPSeries

RESONANCE_TOL = gps.EXPONENT_MERGE_TOL


@dataclass(frozen=True)
class OperatorContext:
    """Exponent pair (a, s) of the operator weight x^a and source weight x^s."""

    alpha: float
    sigma: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise InvalidProblem(f"alpha must lie in [0, 1), got {self.alpha!r}")


def h_series(ctx: OperatorContext) -> GPSeries:
    """The homogeneous solution int_0^x t^-a dt = x^(1-a)/(1-a)."""
    return GPSeries.monomial(1.0 / (1.0 - ctx.alpha), 1.0 - ctx.alpha)


def apply_inverse(ctx: OperatorContext, g: GPSeries) -> GPSeries:
    """Term-wise closed form of the nested integral applied to the weighted g.

    Satisfies (x^a * result')' = -x^s * g, and every output exponent is at
    least 1-a > 0, so the image always vanishes at x = 0 and its combination
    a1*u(1) + b1*u'(1) reduces to a1*u(1) (the derivative vanishes at 1).
    It is bit for bit the kernel's merge of the raw image, which lists the two
    terms of each term of g in turn, x^(1-a) first, as term by term would.

    Raises:
        LogResonance, OuterResonance, Divergent: inadmissible exponents, for
            the first offending term.
        NonFiniteTerm: naming the image's first non-finite term in exponent order.
    """
    if g.is_zero:
        return g
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs, exponents, _ = _image(ctx, g)
    return gps.from_ordered(coeffs, exponents)


def _image(ctx: OperatorContext, g: GPSeries) -> tuple[np.ndarray, np.ndarray, int]:
    """A nonzero g's image as unchecked arrays in exponent order and the index of its x^(1-a)
    term, those summed in input order from 0.0 as the kernel does; overflows are not screened."""
    r = g.exponents + ctx.sigma
    r1 = r + 1.0
    tail = r + 2.0 - ctx.alpha
    # The tails ascend with g's exponents.  r = -1 also where the image's two
    # exponents, as computed, would merge: their gap is r1 up to rounding, far
    # inside the screen's margin.
    if np.minimum.reduce(np.abs(r1)) <= 2.0 * RESONANCE_TOL or tail.item(0) <= RESONANCE_TOL:
        gap = tail - (1.0 - ctx.alpha)
        log = (np.abs(r1) <= RESONANCE_TOL) | (np.abs(gap) <= RESONANCE_TOL)
        bad = log | (tail <= RESONANCE_TOL)
        if bad.any():
            i = int(np.argmax(bad))
            ri, bound = r[i], ctx.alpha - 2.0  # the first offending term, in exponent order
            if log[i]:
                raise LogResonance(f"weighted exponent {ri:g} hits -1 (term x^{g.exponents[i]:g})")
            if tail[i] >= -RESONANCE_TOL:
                raise OuterResonance(f"weighted exponent {ri:g} hits alpha-2 = {bound:g}")
            raise Divergent(
                f"weighted exponent {ri:g} below alpha-2 = {bound:g}: integral diverges")
    heads = g.coeffs / (r1 * (1.0 - ctx.alpha))
    tails = -g.coeffs / (r1 * tail)
    head = 0.0
    for c in heads.tolist():
        head += c
    i = int(tail.searchsorted(1.0 - ctx.alpha))
    coeffs, exponents = np.empty(len(r) + 1), np.empty(len(r) + 1)
    coeffs[:i], coeffs[i], coeffs[i + 1:] = tails[:i], head, tails[i:]
    exponents[:i], exponents[i], exponents[i + 1:] = tail[:i], 1.0 - ctx.alpha, tail[i:]
    return coeffs, exponents, i


def inverse_at_one(ctx: OperatorContext, g: GPSeries) -> float:
    """The inverse image at x = 1, read by :func:`series.at_one`."""
    return gps.at_one(apply_inverse(ctx, g))


def apply_forward(alpha: float, u: GPSeries) -> GPSeries:
    """The forward operator (x^a u')' via two derivatives and one product by x^a, kept in order."""
    inner = gps.mul(GPSeries.monomial(1.0, alpha), gps.differentiate(u))
    return gps.differentiate(inner)
