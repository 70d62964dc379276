"""Truncated polynomial ring in the decomposition parameter.

Elements are polynomials of fixed truncation order N in a formal parameter
(written ``lam`` here) whose coefficients are :class:`~.series.GPSeries`.
Injecting the solution components as ``y_0 + y_1*lam + ... + y_N*lam^N`` and
pushing the nonlinearity through this ring yields its decomposition
polynomials A_n as the coefficient of ``lam^n``.

Every operation is one Taylor-coefficient recurrence: coefficient k of the
result from coefficients 0..k of the operands and 0..k-1 of the result.  For
the decomposition polynomials these are Duan's recurrences (Duan, "Convenient
analytic recurrence algorithms for the Adomian polynomials", 2011); see also
Griewank & Walther, *Evaluating Derivatives*, ch. 13.  The ``*_coeff``
functions are the recurrences.  The expression tape
(:class:`~.expressions.Tape`) calls them once per node and step, so A_k costs
one new coefficient per node; ``ring_*`` run them over a whole element.

exp/ln/reciprocal expand around the order-zero coefficient, which therefore
has to be a constant.  The recursion that feeds this ring always starts from
a constant first component, so the restriction costs nothing in practice.
Integer powers use repeated squaring over products, which needs no base
point at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from . import series as gps
from .errors import (
    DivisionByZeroSeries,
    LogOfNonPositive,
    NonConstantBasePoint,
    NonFiniteTerm,
    OrderMismatch,
)
from .series import GPSeries

_T = TypeVar("_T")
_Coeffs = Sequence[GPSeries]

_ZERO = GPSeries()


@dataclass(frozen=True)
class LambdaSeries:
    """Truncated polynomial in the decomposition parameter.

    ``coeffs[k]`` is the series coefficient of the k-th power of the
    parameter; there are exactly ``order + 1`` slots.
    """

    coeffs: tuple[GPSeries, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def zero(order: int) -> "LambdaSeries":
        return LambdaSeries(tuple(GPSeries.zero() for _ in range(order + 1)))

    @staticmethod
    def constant(value: float, order: int) -> "LambdaSeries":
        return LambdaSeries.from_gpseries(GPSeries.constant(value), order)

    @staticmethod
    def from_gpseries(s: GPSeries, order: int) -> "LambdaSeries":
        """Embed a plain series as the order-zero coefficient."""
        rest = tuple(GPSeries.zero() for _ in range(order))
        return LambdaSeries((s,) + rest)


def _check_orders(a: LambdaSeries, b: LambdaSeries) -> None:
    if a.order != b.order:
        raise OrderMismatch(f"truncation orders differ: {a.order} vs {b.order}")


def lift_solution(
    components: list[GPSeries], order: int
) -> tuple[LambdaSeries, LambdaSeries]:
    """Inject solution components and their derivatives into the ring.

    Returns the pair (y, y') where component k sits at parameter power k.
    Missing components beyond ``len(components)`` are taken as zero.
    """
    padded = list(components[: order + 1])
    padded += [GPSeries.zero()] * (order + 1 - len(padded))
    y = LambdaSeries(tuple(padded))
    yp = LambdaSeries(tuple(gps.differentiate(c) for c in padded))
    return y, yp


def base_point(c0: GPSeries) -> float:
    """The constant value of an order-zero coefficient.

    Raises:
        NonConstantBasePoint: if that coefficient is not a constant series.
    """
    if c0.is_zero:
        return 0.0
    if len(c0) == 1 and abs(c0.exponents[0]) <= gps.EXPONENT_MERGE_TOL:
        return float(c0.coeffs[0])
    raise NonConstantBasePoint(
        f"order-zero coefficient is not constant: {gps.format_series(c0)}"
    )


# --- per-coefficient recurrences ------------------------------------------------
#
# Each takes the step k, the result's coefficients 0..k-1 and the operands'
# coefficient sequences (at least k+1 long), and returns coefficient k.


def _product(a: GPSeries, b: GPSeries) -> GPSeries:
    return _ZERO if a.is_zero or b.is_zero else gps.mul(a, b)


def _combine(parts: Iterable[tuple[float, GPSeries]]) -> GPSeries:
    """The sum of weight * series over the parts, normalized once.

    A single nonzero part only needs scaling: its terms are already sorted
    and merged, and normalizing them again changes nothing.
    """
    live = [(w, s) for w, s in parts if not s.is_zero]
    if len(live) <= 1:
        return gps.scale(live[0][1], live[0][0]) if live else _ZERO
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = [s.coeffs if w == 1.0 else w * s.coeffs for w, s in live]
    return gps.from_arrays(
        np.concatenate(coeffs), np.concatenate([s.exponents for _, s in live])
    )


def add_coeff(k: int, out: _Coeffs, a: _Coeffs, b: _Coeffs) -> GPSeries:
    return gps.add(a[k], b[k])


def sub_coeff(k: int, out: _Coeffs, a: _Coeffs, b: _Coeffs) -> GPSeries:
    return _combine(((1.0, a[k]), (-1.0, b[k])))


def neg_coeff(k: int, out: _Coeffs, a: _Coeffs) -> GPSeries:
    return gps.scale(a[k], -1.0)


def mul_coeff(k: int, out: _Coeffs, a: _Coeffs, b: _Coeffs) -> GPSeries:
    """Coefficient k of a*b: the Cauchy sum of a_i * b_(k-i)."""
    return _combine((1.0, _product(a[i], b[k - i])) for i in range(k + 1))


def div_coeff(k: int, out: _Coeffs, a: _Coeffs, b: _Coeffs) -> GPSeries:
    """Coefficient k of a/b: q_k = (a_k - sum_{j=1..k} b_j q_(k-j)) / b_0.

    Raises:
        NonConstantBasePoint, DivisionByZeroSeries: b_0 not a nonzero constant.
    """
    b0 = base_point(b[0])
    if b0 == 0.0:
        raise DivisionByZeroSeries("reciprocal of a ring element with zero base point")
    inv = 1.0 / b0
    parts = [(inv, a[k])]
    parts += [(-inv, _product(b[j], out[k - j])) for j in range(1, k + 1)]
    return _combine(parts)


def exp_coeff(k: int, out: _Coeffs, a: _Coeffs) -> GPSeries:
    """Coefficient k of exp(a): E_0 = exp(a_0), E_k = (1/k) sum_{j=1..k} j a_j E_(k-j).

    Raises:
        NonConstantBasePoint: a_0 not a constant.
        NonFiniteTerm: exp(a_0) overflows.
    """
    if k == 0:
        a0 = base_point(a[0])
        try:
            return GPSeries.constant(math.exp(a0))
        except OverflowError:
            raise NonFiniteTerm(f"exp({a0!r}) overflows") from None
    return _combine((j / k, _product(a[j], out[k - j])) for j in range(1, k + 1))


def ln_coeff(k: int, out: _Coeffs, a: _Coeffs) -> GPSeries:
    """Coefficient k of ln(a): L_0 = ln(a_0),
    L_k = (a_k - (1/k) sum_{j=1..k-1} j L_j a_(k-j)) / a_0.

    Raises:
        NonConstantBasePoint, LogOfNonPositive: a_0 not a positive constant.
    """
    a0 = base_point(a[0])
    if a0 <= 0.0:
        raise LogOfNonPositive(f"ln of base point {a0:g}")
    if k == 0:
        return GPSeries.constant(math.log(a0))
    parts = [(1.0 / a0, a[k])]
    parts += [(-j / (k * a0), _product(out[j], a[k - j])) for j in range(1, k)]
    return _combine(parts)


def binary_power(base: _T, p: int, mul: Callable[[_T, _T], _T]) -> _T:
    """base^p for p >= 1 by repeated squaring, with ``mul`` as the product."""
    result = None
    while True:
        if p & 1:
            result = base if result is None else mul(result, base)
        p >>= 1
        if not p:
            return result
        base = mul(base, base)


# --- whole elements ----------------------------------------------------------------


def _run(rule: Callable[..., GPSeries], *operands: LambdaSeries) -> LambdaSeries:
    """Apply a recurrence at every order of the (common) truncation order."""
    out: list[GPSeries] = []
    columns = [a.coeffs for a in operands]
    for k in range(operands[0].order + 1):
        out.append(rule(k, out, *columns))
    return LambdaSeries(tuple(out))


def ring_add(a: LambdaSeries, b: LambdaSeries) -> LambdaSeries:
    _check_orders(a, b)
    return _run(add_coeff, a, b)


def ring_scale(a: LambdaSeries, k: float) -> LambdaSeries:
    return LambdaSeries(tuple(gps.scale(c, k) for c in a.coeffs))


def ring_sub(a: LambdaSeries, b: LambdaSeries) -> LambdaSeries:
    _check_orders(a, b)
    return _run(sub_coeff, a, b)


def ring_mul(a: LambdaSeries, b: LambdaSeries) -> LambdaSeries:
    """Cauchy product truncated at the common order."""
    _check_orders(a, b)
    return _run(mul_coeff, a, b)


def ring_exp(a: LambdaSeries) -> LambdaSeries:
    """exp of a ring element with constant base point."""
    return _run(exp_coeff, a)


def ring_ln(a: LambdaSeries) -> LambdaSeries:
    """ln of a ring element with positive constant base point."""
    return _run(ln_coeff, a)


def ring_recip(a: LambdaSeries) -> LambdaSeries:
    """Reciprocal of a ring element with nonzero constant base point."""
    return _run(div_coeff, LambdaSeries.constant(1.0, a.order), a)


def ring_powi(a: LambdaSeries, k: int) -> LambdaSeries:
    """Integer power by repeated squaring; negative k via reciprocal."""
    if k < 0:
        a, k = ring_recip(a), -k
    if k == 0:
        return LambdaSeries.constant(1.0, a.order)
    return binary_power(a, k, ring_mul)


def extract_adomian(f_of_lambda: LambdaSeries, n: int) -> GPSeries:
    """Coefficient of parameter power n: the n-th decomposition polynomial.

    Raises:
        OrderMismatch: if n exceeds the truncation order.
    """
    if n > f_of_lambda.order:
        raise OrderMismatch(
            f"coefficient {n} requested from order-{f_of_lambda.order} element"
        )
    return f_of_lambda.coeffs[n]
