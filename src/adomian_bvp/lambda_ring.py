"""Truncated polynomial ring in the decomposition parameter, whole elements at a time.

A ring element is a plain ``tuple[GPSeries, ...]``: entry k is the series
coefficient of the k-th power of the parameter, so order N means N + 1
entries.  :func:`eval_lambda` runs an expression's :class:`~.expressions.Tape`
over two elements of one order.  Each ``ring_*`` is that call on a one-node
expression, its first element bound to ``y`` and its second (or the first
again) to ``yp``.  ``solve`` calls none of this: it extends one tape per
solve.  The module is the benchmark tracer's facade over the tape:
``bench/spans.py`` ``WRAPPED`` looks these names up, and the module goes once
the tracer points at the tape (ROADMAP direction 1).
"""

from __future__ import annotations

from . import series as gps
from .errors import OrderMismatch
from .expressions import Y, YP, Add, Constant, Div, Exp, Expr, Ln, Mul, PowInt, Sub, Tape
from .series import GPSeries

Element = tuple[GPSeries, ...]


def lift_solution(components: list[GPSeries], order: int) -> tuple[Element, Element]:
    """The pair (y, y') with component k at parameter power k, zero past the components."""
    y = tuple(components[: order + 1]) + (GPSeries.zero(),) * (order + 1 - len(components))
    return y, tuple(map(gps.differentiate, y))


def ring_add(a: Element, b: Element) -> Element:
    return eval_lambda(Add(Y, YP), a, b)


def ring_scale(a: Element, k: float) -> Element:
    return eval_lambda(Mul(Constant(k), Y), a, a)


def ring_sub(a: Element, b: Element) -> Element:
    return eval_lambda(Sub(Y, YP), a, b)


def ring_mul(a: Element, b: Element) -> Element:
    return eval_lambda(Mul(Y, YP), a, b)


def ring_exp(a: Element) -> Element:
    return eval_lambda(Exp(Y), a, a)


def ring_ln(a: Element) -> Element:
    return eval_lambda(Ln(Y), a, a)


def ring_recip(a: Element) -> Element:
    return eval_lambda(Div(Constant(1.0), Y), a, a)


def ring_powi(a: Element, k: int) -> Element:
    return eval_lambda(PowInt(Y, k), a, a)


def extract_adomian(f_of_lambda: Element, n: int) -> GPSeries:
    """Entry n, the n-th decomposition polynomial; ``OrderMismatch`` past the last entry."""
    if n >= len(f_of_lambda):
        raise OrderMismatch(f"coefficient {n} requested from order-{len(f_of_lambda) - 1} element")
    return f_of_lambda[n]


def eval_lambda(e: Expr, y_lambda: Element, yp_lambda: Element) -> Element:
    """e with y and yp bound to the elements: one ``Tape.extend`` per entry.

    ``OrderMismatch`` when the elements' orders differ.  Errors at exp, ln,
    division and integer-power nodes name that subexpression.
    """
    if len(y_lambda) != len(yp_lambda):
        raise OrderMismatch(f"y and y' lifts disagree: {len(y_lambda) - 1} vs {len(yp_lambda) - 1}")
    tape = Tape(e)
    return tuple(tape.extend(y, yp) for y, yp in zip(y_lambda, yp_lambda))
