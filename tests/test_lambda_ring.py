"""The decomposition ring facade's contract.

The facade (``lambda_ring``) takes ring elements as plain tuples of series,
entry k the coefficient of parameter power k.  Its tests pin that each
``ring_*`` is its one-node tape run, lifting, and the two order guards.  The
A_k oracles, which run on ``Tape.extend`` directly, are in ``tests/test_tape.py``.
"""

import math

import pytest

from adomian_bvp.errors import OrderMismatch
from adomian_bvp.expressions import YP, Add, Constant, Div, Exp, Ln, Mul, PowInt, Sub, Tape, Y
from adomian_bvp.lambda_ring import (
    extract_adomian,
    lift_solution,
    ring_add,
    ring_exp,
    ring_ln,
    ring_mul,
    ring_powi,
    ring_recip,
    ring_scale,
    ring_sub,
)
from adomian_bvp.series import GPSeries, Term, normalize

ZERO = GPSeries.zero()


def _terms(series):
    return [(t.coeff, t.exponent) for t in series.terms]


# --- the facade: each ring_* is its one-node tape run ---------------------------------

A = (
    GPSeries.constant(2.0),
    normalize([Term(0.5, 0.5), Term(-0.3, 1.5)]),
    GPSeries.monomial(-0.25, 1.0),
)
B = (GPSeries.constant(-1.0), GPSeries.monomial(1.5, 0.5), ZERO)


RING_OPS = [  # op, its arguments, its one-node expression, the elements bound to y and yp
    (ring_add, (A, B), Add(Y, YP), A, B),
    (ring_scale, (A, -2.5), Mul(Constant(-2.5), Y), A, A),
    (ring_sub, (A, B), Sub(Y, YP), A, B),
    (ring_mul, (A, B), Mul(Y, YP), A, B),
    (ring_exp, (A,), Exp(Y), A, A),
    (ring_ln, (A,), Ln(Y), A, A),
    (ring_recip, (A,), Div(Constant(1.0), Y), A, A),
    (ring_powi, (A, -3), PowInt(Y, -3), A, A),
]


@pytest.mark.parametrize("op,args,node,y,yp", RING_OPS, ids=[case[0].__name__ for case in RING_OPS])
def test_each_ring_op_is_its_one_node_tape_run(op, args, node, y, yp):
    tape = Tape(node)
    want = tuple(tape.extend(a, b) for a, b in zip(y, yp))
    got = op(*args)
    assert type(got) is tuple
    assert got == want


# --- lifting -----------------------------------------------------------------


def test_lift_constant_component():
    eta = GPSeries.constant(-math.log(4.0))
    y, yp = lift_solution([eta], 0)
    assert y == (eta,)
    assert yp[0].is_zero


def test_lift_derivative_slot():
    comps = [
        GPSeries.constant(-math.log(4.0)),
        normalize([Term(0.0268564, 0.5), Term(-0.25, 1.0)]),
    ]
    _, yp = lift_solution(comps, 1)
    assert _terms(yp[1]) == [
        (pytest.approx(0.0134282), -0.5),
        (pytest.approx(-0.25), 0.0),
    ]


def test_lift_pads_with_zero():
    y, yp = lift_solution([GPSeries.constant(1.0)], 2)
    assert len(y) == len(yp) == 3
    assert y[1].is_zero and y[2].is_zero
    assert all(c.is_zero for c in yp)


# --- facade arithmetic and its order guards -------------------------------------------


def test_ring_mul_by_zero():
    a = (GPSeries.constant(2.0), GPSeries.monomial(1.0, 0.5))
    assert all(c.is_zero for c in ring_mul(a, (ZERO, ZERO)))


def test_ring_add_is_coefficientwise():
    a = (GPSeries.constant(1.0), GPSeries.monomial(2.0, 0.5))
    b = (GPSeries.constant(-1.0), GPSeries.monomial(3.0, 0.5))
    s = ring_add(a, b)
    assert s[0].is_zero
    assert _terms(s[1]) == [(5.0, 0.5)]


def test_ring_scale_distributes_over_columns():
    a = (GPSeries.constant(3.0), GPSeries.monomial(2.0, 1.5))
    s = ring_scale(a, -2.0)
    assert _terms(s[0]) == [(-6.0, 0.0)]
    assert _terms(s[1]) == [(-4.0, 1.5)]


def test_order_mismatch_raises():
    with pytest.raises(OrderMismatch):
        ring_add((ZERO,) * 2, (ZERO,) * 3)


def test_extract_order_guard():
    with pytest.raises(OrderMismatch):
        extract_adomian((ZERO,) * 3, 3)
