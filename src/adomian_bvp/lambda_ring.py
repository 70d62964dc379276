"""Truncated polynomial ring in the decomposition parameter, whole elements at a time.

A ring element is a plain ``tuple[GPSeries, ...]``: entry k is the series
coefficient of the k-th power of the parameter, so order N means N + 1
entries.  :func:`eval_lambda` runs an expression's :class:`~.expressions.Tape`
over one element bound to ``y`` (``yp`` is its x-derivative), and each unary
``ring_*`` is that call on a one-node expression.  ``ring_add``, ``ring_sub``
and ``ring_mul`` take two independent elements of one order, which no tape
input binds: at each order each is the ``series.combine`` call of its node's
tape rule.  ``solve`` calls none of this: it extends one tape per solve.  The
module is the benchmark tracer's facade over the tape: ``bench/spans.py``
``WRAPPED`` looks these names up, and the module goes once the tracer points
at the tape (ROADMAP direction 1).
"""

from __future__ import annotations

from . import series as gps
from .errors import OrderMismatch
from .expressions import Y, Constant, Div, Exp, Expr, Ln, Mul, PowInt, Tape
from .series import GPSeries

Element = tuple[GPSeries, ...]


def lift_solution(components: list[GPSeries], order: int) -> tuple[Element, Element]:
    """The pair (y, y') with component k at parameter power k, zero past the components."""
    y = tuple(components[: order + 1]) + (GPSeries.zero(),) * (order + 1 - len(components))
    return y, tuple(map(gps.differentiate, y))


def _orders(a: Element, b: Element) -> range:
    """The orders 0..N of two elements of order N; ``OrderMismatch`` if their orders differ."""
    if len(a) != len(b):
        raise OrderMismatch(f"ring elements disagree in order: {len(a) - 1} vs {len(b) - 1}")
    return range(len(a))


def ring_add(a: Element, b: Element) -> Element:
    return tuple(gps.combine(((1.0, a[k]), (1.0, b[k]))) for k in _orders(a, b))


def ring_scale(a: Element, k: float) -> Element:
    return eval_lambda(Mul(Constant(k), Y), a)


def ring_sub(a: Element, b: Element) -> Element:
    return tuple(gps.combine(((1.0, a[k]), (-1.0, b[k]))) for k in _orders(a, b))


def ring_mul(a: Element, b: Element) -> Element:
    return tuple(gps.combine((), ((1.0, a[i], b[k - i]) for i in range(k + 1)))
                 for k in _orders(a, b))


def ring_exp(a: Element) -> Element:
    return eval_lambda(Exp(Y), a)


def ring_ln(a: Element) -> Element:
    return eval_lambda(Ln(Y), a)


def ring_recip(a: Element) -> Element:
    return eval_lambda(Div(Constant(1.0), Y), a)


def ring_powi(a: Element, k: int) -> Element:
    return eval_lambda(PowInt(Y, k), a)


def extract_adomian(f_of_lambda: Element, n: int) -> GPSeries:
    """Entry n, the n-th decomposition polynomial; ``OrderMismatch`` past the last entry."""
    if n >= len(f_of_lambda):
        raise OrderMismatch(f"coefficient {n} requested from order-{len(f_of_lambda) - 1} element")
    return f_of_lambda[n]


def eval_lambda(e: Expr, y_lambda: Element) -> Element:
    """e with y bound to the element, and yp to its x-derivative: one ``Tape.extend`` per entry.
    Errors at exp, ln, division and integer-power nodes name that subexpression."""
    tape = Tape(e)
    return tuple(tape.extend(y) for y in y_lambda)
