"""Shared fixtures for the test suite: published reference data, helpers and oracles.

The component expansions and maximum-error tables below are frozen from the
benchmark write-up this package reproduces.  Coefficients are compared at
half an ulp of their shortest printed form (4 to 6 significant digits), so
each assertion pins at least the printed precision.

Two oracles check the method's two parts independently of the package's own
routes: adaptive quadrature (scipy) for the closed-form inverse operator, and
a complex evaluation of f on a circle in lambda, whose discrete Cauchy
integrals give the decomposition polynomials.  A cheaper check of the tape's
polynomials is their Taylor gap: summed in powers of lambda they approach f
at the summed components.

The truth error judges a computed psi against the solution itself, in 30-digit
mpmath, below the float rounding that ``max_error`` adds of its own.
"""

from __future__ import annotations

import math
import re

import numpy as np

from adomian_bvp.errors import NonFiniteTerm
from adomian_bvp.expressions import (
    Add,
    Constant,
    Div,
    Exp,
    Expr,
    Ln,
    Mul,
    Neg,
    PowInt,
    PowXReal,
    Sub,
    Tape,
    Var,
    _layout,
    eval_real,
)
from adomian_bvp.series import (
    EXPONENT_MERGE_TOL,
    GPSeries,
    differentiate,
    evaluate,
)
from adomian_bvp.singular_operator import RESONANCE_TOL, OperatorContext

# f templates of admissible random problems (acceptance criterion 5 and the
# boundary-exactness property).
ADMISSIBLE_TEMPLATES = [
    "0.3 + 0.5*x",
    "exp(y)*(x*yp + 0.4)",
    "0.7*y + 0.2*x*yp",
    "1/(2 + y)",
    "x^0.5*y - 0.3*yp*x",
]


def left_nested_sum(leaf: Expr, depth: int) -> Expr:
    """leaf + leaf + ... + leaf, an AST ``depth`` levels deep, built without the parser."""
    e = leaf
    for _ in range(depth - 1):
        e = Add(e, leaf)
    return e


# --- tolerance from printed significant digits --------------------------------


def _sig_digits(printed: str) -> int:
    mantissa = printed.lower().split("e")[0]
    digits = re.sub(r"[^0-9]", "", mantissa).lstrip("0")
    return max(len(digits), 1)


def printed_rel_tol(printed: str) -> float:
    """Relative half-ulp bound of a decimal literal at its printed precision."""
    return 0.6 * 10.0 ** (1 - _sig_digits(printed))


def assert_series_matches_printed(
    series: GPSeries, printed: list[tuple[str, float]]
) -> None:
    """Coefficient-by-coefficient comparison against printed (value, exponent) pairs."""
    assert len(series.terms) == len(printed), (
        f"term count {len(series.terms)} != printed {len(printed)}: "
        f"{[(t.coeff, t.exponent) for t in series.terms]}"
    )
    for term, (coeff_str, exponent) in zip(series.terms, printed):
        assert abs(term.exponent - exponent) < 1e-9, (term, coeff_str, exponent)
        ref = float(coeff_str)
        rel = abs(term.coeff - ref) / abs(ref)
        assert rel <= printed_rel_tol(coeff_str), (
            f"coefficient of x^{exponent}: got {term.coeff!r}, printed {coeff_str} "
            f"(rel dev {rel:.2e} > {printed_rel_tol(coeff_str):.2e})"
        )


# --- reference normalization ----------------------------------------------------


def reference_normalize(raw_terms) -> list[tuple[float, float]]:
    """The term-by-term normalization the array kernel must reproduce bit for bit.

    Groups are found on the exponents in sorted order, each anchored at its
    smallest exponent (the anchor never moves), and a zero anchor is +0.0.
    Each group's coefficient is its members' coefficients added in input
    order, from 0.0.  Then the groups whose sum is exactly zero are dropped.
    Returns the kept (coeff, exponent) pairs.
    """
    terms = []
    for c, e in raw_terms:
        c, e = float(c), float(e)
        if not (math.isfinite(c) and math.isfinite(e)):
            raise NonFiniteTerm(f"term ({c!r}, {e!r}) is not finite")
        terms.append((c, e))
    anchors, group_of = [], [0] * len(terms)
    for i in sorted(range(len(terms)), key=lambda i: terms[i][1]):
        if not anchors or terms[i][1] - anchors[-1] > EXPONENT_MERGE_TOL:
            anchors.append(terms[i][1])
        group_of[i] = len(anchors) - 1
    sums = [0.0] * len(anchors)
    for (c, _), g in zip(terms, group_of):
        sums[g] += c
    return [(c, e + 0.0) for c, e in zip(sums, anchors) if c != 0.0]


# --- the truth error, in 30 digits ------------------------------------------------

TRUTH_DIGITS = 30


def eval_mp(e: Expr, x):
    """e over {x} at the mpf x, in mpmath at the working precision; its literals read exactly."""
    import mpmath as mp  # here, so that importing support skips mpmath
    unary = {Neg: lambda a: -a, Exp: mp.exp, Ln: mp.log}
    binary = {Add: lambda a, b: a + b, Sub: lambda a, b: a - b,
              Mul: lambda a, b: a * b, Div: lambda a, b: a / b}
    values = []
    for node, operands, literal in _layout(e):
        args = [values[i] for i in operands]
        kind = type(node)
        if kind is Constant:
            value = mp.mpf(literal)
        elif kind is Var:
            value = x
        elif kind is PowXReal:
            value = x ** mp.mpf(literal)
        elif kind is PowInt:
            value = args[0] ** int(literal)
        else:
            value = (unary.get(kind) or binary[kind])(*args)
        values.append(value)
    return values[-1]


def truth_grid(points: int) -> np.ndarray:
    """``points`` evenly spaced points of [0, 1], both ends included."""
    return np.linspace(0.0, 1.0, points)


def truth_error(psi: GPSeries, exact: Expr, points: int = 64) -> float:
    """max |psi(x) - exact(x)| over :func:`truth_grid`, both sides in 30-digit mpmath.

    psi's float coefficients and exponents, and each x, are read exactly as
    mpf, so the only float rounding measured is psi's own; each psi(x) is its
    terms summed by ``mp.fsum``, x**e as exp(e ln x) for x > 0 (about 3x
    faster than mpmath's power) and 0**0 = 1.
    """
    import mpmath as mp
    with mp.workdps(TRUTH_DIGITS):
        terms = [(mp.mpf(c), mp.mpf(e)) for c, e in psi.terms]
        worst = mp.mpf(0)
        for x in truth_grid(points).tolist():
            x = mp.mpf(x)
            if x:
                log_x = mp.log(x)
                value = mp.fsum(c * mp.exp(e * log_x) for c, e in terms)
            else:
                value = mp.fsum(c * x ** e for c, e in terms)
            worst = max(worst, abs(value - eval_mp(exact, x)))
        return float(worst)


# --- the inverse operator by adaptive quadrature -----------------------------------


class QuadratureFailure(Exception):
    """The quadrature oracle cannot evaluate its input to the requested tolerance."""


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
    from scipy.integrate import quad  # here, so that importing support skips scipy
    if g.is_zero:
        return 0.0
    weighted = [(t.coeff, t.exponent + ctx.sigma) for t in g.terms]
    for _, r in weighted:
        tail = r + 2.0 - ctx.alpha
        # as the closed form: r = -1 also where its two image exponents merge
        gap = min(abs(r + 1.0), abs(tail - (1.0 - ctx.alpha)))
        if gap <= RESONANCE_TOL or abs(tail) <= RESONANCE_TOL:
            raise QuadratureFailure(f"weighted exponent {r:g} is resonant")
        if tail < 0.0:
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


# --- the decomposition polynomials and their Taylor oracle --------------------------


def adomian_polynomials(f: Expr, components) -> list[GPSeries]:
    """A_0, A_1, ... of f at the components: one ``Tape.extend`` per component."""
    tape = Tape(f)
    return [tape.extend(y) for y in components]


def taylor_gap(f: Expr, components, polynomials, x: float, lam: float) -> float:
    """|sum_k A_k(x) lam^k - f(x, y, y')| at y = sum_k y_k(x) lam^k (y' likewise).

    The polynomials are f's Taylor coefficients in lam, so the gap is the
    truncation error, O(lam^(K+1)) for K+1 of them.
    """
    series_val = sum(evaluate(a, x) * lam**k for k, a in enumerate(polynomials))
    y_val = sum(evaluate(c, x) * lam**k for k, c in enumerate(components))
    yp_val = sum(evaluate(differentiate(c), x) * lam**k for k, c in enumerate(components))
    return abs(series_val - eval_real(f, x, y_val, yp_val))


# --- the decomposition generator on a circle in lambda ------------------------------


class Unresolved(Exception):
    """f on the circle leaves the Cauchy integrals short of its Taylor coefficients."""


def _divisor(d):
    winding = np.sum(np.angle(np.roll(d, -1) / d)) / (2.0 * np.pi)
    if np.min(np.abs(d)) < 1e-3 or abs(winding) > 0.5:
        raise Unresolved("a divisor comes near 0 or winds around it")
    return d


def _sum(a, b):
    # a cancellation of d digits leaves the sum 1e-16 * 10^d of relative error
    total = a + b
    if np.any(np.abs(total) < 1e-4 * np.maximum(np.abs(a), np.abs(b))):
        raise Unresolved("a sum cancels more than 4 digits")
    return total


_BINARY = {
    Add: _sum,
    Sub: lambda a, b: _sum(a, -b),
    Mul: np.multiply,
    Div: lambda a, b: a / _divisor(b),
}


def eval_on_circle(e: Expr, x: float, y: np.ndarray, yp: np.ndarray) -> np.ndarray:
    """e in complex128 at real x, where y and yp are sampled around a circle in lambda.

    Raises:
        Unresolved: a divisor (the right side of ``/``, the base of a negative
            power) comes within 1e-3 of 0 or winds around it, or an ln argument
            comes within 1e-3 of 0 or has Re <= 0, somewhere on the circle: the
            Taylor series in lambda would not converge on it.  Or a sum or
            difference cancels more than 4 digits: its rounding would pass the
            bound that the Cauchy integrals are compared at.
    """
    if isinstance(e, (Constant, PowXReal)):
        return np.full_like(y, e.value if isinstance(e, Constant) else x ** e.exponent)
    if isinstance(e, Var):
        return {"x": np.full_like(y, x), "y": y, "yp": yp}[e.name]
    if isinstance(e, PowInt):
        base = eval_on_circle(e.base, x, y, yp)
        return (_divisor(base) if e.power < 0 else base) ** e.power
    if isinstance(e, Neg):
        return -eval_on_circle(e.arg, x, y, yp)
    if isinstance(e, Exp):
        return np.exp(eval_on_circle(e.arg, x, y, yp))
    if isinstance(e, Ln):
        arg = eval_on_circle(e.arg, x, y, yp)
        if np.min(np.abs(arg)) < 1e-3 or np.min(arg.real) <= 0.0:
            raise Unresolved("an ln argument comes near 0 or crosses the branch cut")
        return np.log(arg)
    return _BINARY[type(e)](eval_on_circle(e.left, x, y, yp), eval_on_circle(e.right, x, y, yp))


# --- printed component expansions ----------------------------------------------
# keys: (example, alpha, beta) -> {k: [(coeff string, exponent), ...]}

PRINTED_COMPONENTS = {
    (1, 0.5, 1.0): {
        1: [("0.0268564", 0.5), ("-0.25", 1.0)],
        2: [("-0.0267739", 0.5), ("-0.00447607", 1.5), ("0.03125", 2.0)],
        3: [
            ("-0.0003279", 0.5),
            ("0.0044623", 1.5),
            ("-0.000045079", 2.0),
            ("0.00111902", 2.5),
            ("-0.0052083", 3.0),
        ],
        4: [
            ("0.00025327", 0.5),
            ("0.0000546545", 1.5),
            ("0.0000898816", 2.0),
            ("-0.0011159", 2.5),
            ("0.0000212874", 3.0),
            ("-0.0002797", 3.5),
            ("0.000976563", 4.0),
        ],
    },
    (1, 0.5, 3.5): {
        1: [("0.0268564", 0.5), ("-0.25", 3.5)],
        2: [("-0.0253752", 0.5), ("-0.00587485", 4.0), ("0.03125", 7.0)],
        3: [
            ("-0.00174107", 0.5),
            ("0.00555081", 4.0),
            ("-0.000070123", 4.5),
            ("0.00146871", 7.5),
            ("-0.00520833", 10.5),
        ],
        4: [
            ("0.000230726", 0.5),
            ("0.000380859", 4.0),
            ("0.000132511", 4.5),
            ("-5.6497931825e-7", 5.0),
            ("-0.0013877", 7.5),
            ("0.0000347878", 8.0),
            ("-0.000367178", 11.0),
            ("0.000976563", 14.0),
        ],
    },
    (2, 0.5, 1.0): {
        1: [("0.0945349", 0.5), ("-0.5", 1.0)],
        2: [("-0.0934884", 0.5), ("-0.0315116", 1.5), ("0.125", 2.0)],
        3: [
            ("-0.00413483", 0.5),
            ("0.0311628", 1.5),
            ("-0.00111711", 2.0),
            ("0.0157558", 2.5),
            ("-0.0416667", 3.0),
        ],
        4: [
            ("0.00321966", 0.5),
            ("0.00137828", 1.5),
            ("0.00220948", 2.0),
            ("-0.0156096", 2.5),
            ("0.00105504", 3.0),
            ("-0.00787791", 3.5),
            ("0.015625", 4.0),
        ],
    },
    (3, 0.5, 1.0): {
        1: [("0.718282", 0.5), ("1", 1.0)],
        2: [("-0.978855", 0.5), ("0.478855", 1.5), ("0.5", 2.0)],
        3: [
            ("0.294361", 0.5),
            ("-0.65257", 1.5),
            ("0.191542", 2.5),
            ("0.166667", 3.0),
        ],
        4: [
            ("-0.0316058", 0.5),
            ("0.196241", 1.5),
            ("-0.261028", 2.5),
            ("0.0547262", 3.5),
            ("0.0416667", 4.0),
        ],
    },
    (3, 0.5, 2.5): {
        1: [("0.718282", 0.5), ("1", 2.5)],
        2: [("-1.09857", 0.5), ("0.598568", 3.0), ("0.5", 5.0)],
        3: [
            ("0.47673", 0.5),
            ("-0.915473", 3.0),
            ("0.272076", 5.5),
            ("0.166667", 7.5),
        ],
        4: [
            ("-0.107842", 0.5),
            ("0.397275", 3.0),
            ("-0.416124", 5.5),
            ("0.0850239", 8.0),
            ("0.0416667", 10.0),
        ],
    },
}

FIRST_COMPONENT = {  # exact eta1 per (example, beta-independent)
    1: -math.log(4.0),
    2: -math.log(2.0),
    3: 1.0,
}

# --- published maximum-error tables ---------------------------------------------
# keys: (example, beta) -> {alpha: (E5, E8, E10)}

PUBLISHED_TABLES = {
    (1, 1.0): {
        0.25: (1.11205e-5, 2.30301e-8, 3.54171e-10),
        0.5: (1.52386e-5, 2.68725e-8, 6.11240e-10),
        0.75: (1.62907e-5, 4.91114e-8, 9.22449e-10),
    },
    (1, 3.5): {
        0.25: (1.50942e-5, 5.61969e-8, 1.12729e-9),
        0.5: (1.58204e-5, 6.53078e-8, 1.32773e-9),
        0.75: (2.91795e-5, 6.92627e-8, 1.38617e-9),
    },
    (2, 1.0): {
        0.25: (8.25847e-5, 8.22973e-7, 3.94246e-8),
        0.5: (8.41014e-5, 1.68118e-6, 4.29665e-8),
        0.75: (3.17953e-5, 8.27238e-6, 6.58700e-8),
    },
    (3, 1.0): {
        0.25: (9.47534e-5, 9.45679e-7, 2.28700e-9),
        0.5: (6.54946e-5, 6.83854e-7, 1.04295e-8),
        0.75: (8.17721e-5, 1.08101e-6, 1.18947e-8),
    },
    (3, 2.5): {
        0.25: (8.48845e-4, 5.11258e-6, 3.01254e-8),
        0.5: (9.99777e-4, 5.94699e-6, 3.44033e-8),
        0.75: (2.97716e-4, 1.53819e-6, 1.19534e-8),
    },
}

TABLE_NS = (5, 8, 10)
TABLE_ALPHAS = (0.25, 0.5, 0.75)
