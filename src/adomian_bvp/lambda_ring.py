"""Truncated polynomial ring in the decomposition parameter, whole elements at a time.

Elements are polynomials of fixed truncation order N in the decomposition
parameter whose coefficients are :class:`~.series.GPSeries`.
:func:`eval_lambda` runs an expression's :class:`~.expressions.Tape` to the
order of its inputs, and each ``ring_*`` is that call on a one-node
expression over ``y`` and ``yp``, so the tape is the only code that runs
the recurrences.  ``solve`` calls none of this: it extends one tape per solve.
The module is the benchmark tracer's facade over the tape: it stays because
``bench/spans.py`` ``WRAPPED`` looks these names up, and it goes once the
tracer points at the tape (ROADMAP direction 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import series as gps
from .errors import OrderMismatch
from .expressions import Y, YP, Add, Constant, Div, Exp, Expr, Ln, Mul, PowInt, Sub, Tape
from .series import GPSeries


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


# --- whole elements: one-node expressions, a bound to y and b to yp ----------------


def ring_add(a: LambdaSeries, b: LambdaSeries) -> LambdaSeries:
    return eval_lambda(Add(Y, YP), a, b)


def ring_scale(a: LambdaSeries, k: float) -> LambdaSeries:
    return eval_lambda(Mul(Constant(k), Y), a, a)


def ring_sub(a: LambdaSeries, b: LambdaSeries) -> LambdaSeries:
    return eval_lambda(Sub(Y, YP), a, b)


def ring_mul(a: LambdaSeries, b: LambdaSeries) -> LambdaSeries:
    """Cauchy product truncated at the common order."""
    return eval_lambda(Mul(Y, YP), a, b)


def ring_exp(a: LambdaSeries) -> LambdaSeries:
    """exp of a ring element with constant base point."""
    return eval_lambda(Exp(Y), a, a)


def ring_ln(a: LambdaSeries) -> LambdaSeries:
    """ln of a ring element with positive constant base point."""
    return eval_lambda(Ln(Y), a, a)


def ring_recip(a: LambdaSeries) -> LambdaSeries:
    """Reciprocal of a ring element with nonzero constant base point."""
    return eval_lambda(Div(Constant(1.0), Y), a, a)


def ring_powi(a: LambdaSeries, k: int) -> LambdaSeries:
    """Integer power by repeated squaring; negative k via reciprocal."""
    return eval_lambda(PowInt(Y, k), a, a)


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


def eval_lambda(e: Expr, y_lambda: LambdaSeries, yp_lambda: LambdaSeries) -> LambdaSeries:
    """Push the expression through the truncated decomposition ring.

    ``x`` maps to the first-power monomial at parameter order zero; ``y`` and
    ``yp`` map to the supplied ring elements.  Runs the expression's
    :class:`~.expressions.Tape` to their common order; ring errors are
    re-raised with the offending subexpression appended.

    Raises:
        OrderMismatch: the two elements have different truncation orders.
    """
    if y_lambda.order != yp_lambda.order:
        raise OrderMismatch(
            f"y and y' lifts disagree: {y_lambda.order} vs {yp_lambda.order}"
        )
    tape = Tape(e)
    return LambdaSeries(
        tuple(tape.extend(y, yp) for y, yp in zip(y_lambda.coeffs, yp_lambda.coeffs))
    )
