"""The decomposition ring facade's contract.

The facade (``lambda_ring``) takes ring elements as plain tuples of series,
entry k the coefficient of parameter power k.  Its tests pin that each unary
``ring_*`` is its one-node tape run over y, and each binary one its node's tape
rule at each order over two independent elements; lifting; and the two order
guards.  The A_k oracles, which run on ``Tape.extend`` directly, are in
``tests/test_tape.py``.
"""

import math

import numpy as np
import pytest

from adomian_bvp.errors import OrderMismatch
from adomian_bvp.expressions import (
    Constant, Div, Exp, Ln, Mul, PowInt, Tape, Y, linear_coeff, mul_coeff, parse,
)
from adomian_bvp.lambda_ring import (
    eval_lambda,
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


# --- the facade: each ring_* is its one node's tape rule ---------------------------------

A = (
    GPSeries.constant(2.0),
    normalize([Term(0.5, 0.5), Term(-0.3, 1.5)]),
    GPSeries.monomial(-0.25, 1.0),
)
B = (GPSeries.constant(-1.0), GPSeries.monomial(1.5, 0.5), ZERO)


def _tape_run(node, y):
    """The one-node expression over y: one ``Tape.extend`` per entry."""
    tape = Tape(node)
    return tuple(tape.extend(a) for a in y)


def _rule_run(rule, a, b):
    """A tape rule at each order over two elements that no tape input binds (yp is y')."""
    return tuple(rule(k, (), a, b) for k in range(len(a)))


RING_OPS = [  # op, its arguments, what it equals: its rule over (A, B) or its tape run over A
    (ring_add, (A, B), _rule_run(linear_coeff(1.0, 1.0), A, B)),
    (ring_scale, (A, -2.5), _tape_run(Mul(Constant(-2.5), Y), A)),
    (ring_sub, (A, B), _rule_run(linear_coeff(1.0, -1.0), A, B)),
    (ring_mul, (A, B), _rule_run(mul_coeff, A, B)),
    (ring_exp, (A,), _tape_run(Exp(Y), A)),
    (ring_ln, (A,), _tape_run(Ln(Y), A)),
    (ring_recip, (A,), _tape_run(Div(Constant(1.0), Y), A)),
    (ring_powi, (A, -3), _tape_run(PowInt(Y, -3), A)),
]


def _bits(element):
    return [(c.coeffs.tobytes(), c.exponents.tobytes()) for c in element]


@pytest.mark.parametrize("op,args,want", RING_OPS, ids=[case[0].__name__ for case in RING_OPS])
def test_each_ring_op_is_its_one_node_tape_run(op, args, want):
    got = op(*args)
    assert type(got) is tuple
    assert _bits(got) == _bits(want) and all(len(c) for c in want[1:])


def test_eval_lambda_binds_yp_to_the_derivative_of_y_so_the_euler_node_holds():
    # yp is y's x-derivative on every path, which the Euler node of exp(y)*(x*yp) assumes, so
    # it agrees with the Cauchy product of exp(y)*x*yp; at order 0 both are 0, as y_0' = 0
    a = (GPSeries.constant(0.5), GPSeries.monomial(1.0, 0.5), GPSeries.monomial(-0.25, 1.0))
    euler, cauchy = eval_lambda(parse("exp(y)*(x*yp)"), a), eval_lambda(parse("exp(y)*x*yp"), a)
    assert euler[0].is_zero and cauchy[0].is_zero
    for got, want in zip(euler[1:], cauchy[1:]):
        assert np.array_equal(got.exponents, want.exponents)
        assert np.allclose(got.coeffs, want.coeffs, rtol=1e-15, atol=0.0)


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
    for op in (ring_add, ring_sub, ring_mul):
        with pytest.raises(OrderMismatch, match=r"^ring elements disagree in order: 1 vs 2$"):
            op((ZERO,) * 2, (ZERO,) * 3)


def test_extract_order_guard():
    with pytest.raises(OrderMismatch):
        extract_adomian((ZERO,) * 3, 3)
