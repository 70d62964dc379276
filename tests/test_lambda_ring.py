"""The decomposition ring: the facade's contract, then A_k oracles on the tape.

The facade (``lambda_ring``) takes ring elements as plain tuples of series,
entry k the coefficient of parameter power k.  Its tests pin that each
``ring_*`` is its one-node tape run, lifting, and the two order guards.  The
oracles below run on ``Tape.extend`` directly: one call per parameter power,
through :func:`_tape_run` or ``support.adomian_polynomials``.  They are moving
to ``tests/test_tape.py``, where six already are.
"""

import math

import numpy as np
import pytest

from support import adomian_polynomials

from adomian_bvp.errors import (
    DivisionByZeroSeries,
    LogOfNonPositive,
    NonConstantBasePoint,
    OrderMismatch,
)
from adomian_bvp.expressions import (
    YP,
    Add,
    Constant,
    Div,
    Exp,
    Ln,
    Mul,
    PowInt,
    Sub,
    Tape,
    X,
    Y,
    eval_real,
    parse,
)
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
from adomian_bvp.series import GPSeries, Term, evaluate, normalize

ZERO = GPSeries.zero()


def _terms(series):
    return [(t.coeff, t.exponent) for t in series.terms]


def _tape_run(source, y, yp=None):
    """Entries 0, 1, ... of the expression over the ring: one ``Tape.extend`` per
    entry of ``y``, with ``yp`` (``y`` when absent) bound to y'."""
    tape = Tape(parse(source))
    return [tape.extend(a, b) for a, b in zip(y, y if yp is None else yp)]


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


# --- the tape's rules: products, exp / ln / recip / powi ----------------------------


def test_exp_taylor_in_parameter():
    # exp(x^0.5 * lam) at order 2 -> 1 + x^0.5 lam + 0.5 x lam^2
    e = _tape_run("exp(y)", (ZERO, GPSeries.monomial(1.0, 0.5), ZERO))
    assert _terms(e[0]) == [(1.0, 0.0)]
    assert _terms(e[1]) == [(1.0, 0.5)]
    assert _terms(e[2]) == [(pytest.approx(0.5), 1.0)]


def test_exp_numeric_oracle():
    # the tape's coefficients at sampled (x, lam) against direct exp
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = [GPSeries.constant(rng.uniform(-1, 1))]
        a += [
            GPSeries.monomial(rng.uniform(-0.5, 0.5), rng.uniform(0.2, 2.0))
            for _ in range(4)
        ]
        e = _tape_run("exp(y)", a)
        for x, lam in [(0.3, 0.1), (0.8, 0.2)]:
            a_val = sum(evaluate(c, x) * lam**k for k, c in enumerate(a))
            e_val = sum(evaluate(c, x) * lam**k for k, c in enumerate(e))
            # truncation error is O(lam^5) with O(1) fluctuations
            assert e_val == pytest.approx(math.exp(a_val), abs=20 * lam**5)


def test_recip_geometric():
    r = _tape_run("1/y", (GPSeries.constant(1.0), GPSeries.monomial(1.0, 1.0), ZERO))
    assert _terms(r[0]) == [(1.0, 0.0)]
    assert _terms(r[1]) == [(-1.0, 1.0)]
    assert _terms(r[2]) == [(1.0, 2.0)]


def test_ln_of_one():
    assert all(c.is_zero for c in _tape_run("ln(y)", (GPSeries.constant(1.0), ZERO, ZERO)))


def test_ln_inverts_exp():
    a = (
        GPSeries.constant(0.3),
        GPSeries.monomial(0.4, 0.5),
        GPSeries.monomial(-0.2, 1.0),
    )
    back = _tape_run("ln(exp(y))", a)
    for orig, rec in zip(a, back):
        assert len(orig) == len(rec)
        for to, tr in zip(orig.terms, rec.terms):
            assert tr.coeff == pytest.approx(to.coeff, rel=1e-12)


def test_powi_identity_and_negative():
    a = (GPSeries.constant(2.0), GPSeries.monomial(1.0, 0.5))
    one = _tape_run("y^0", a)
    assert _terms(one[0]) == [(1.0, 0.0)] and one[1].is_zero
    prod = _tape_run("y*y^-1", a)
    assert _terms(prod[0]) == [(pytest.approx(1.0), 0.0)]
    assert prod[1].is_zero


def test_base_point_guards():
    with pytest.raises(NonConstantBasePoint):
        _tape_run("exp(y)", (GPSeries.monomial(1.0, 1.0), ZERO))
    with pytest.raises(LogOfNonPositive):
        _tape_run("ln(y)", (GPSeries.constant(-2.0), ZERO))
    with pytest.raises(DivisionByZeroSeries):
        _tape_run("1/y", (ZERO, ZERO))


# --- whole expressions at lifted components ------------------------------------------


def test_eval_lambda_constant():
    out = adomian_polynomials(Constant(3.5), [GPSeries.constant(1.0), ZERO, ZERO])
    assert _terms(out[0]) == [(3.5, 0.0)]
    assert all(c.is_zero for c in out[1:])


def test_eval_lambda_x_times_zero_derivative():
    out = adomian_polynomials(Mul(X, YP), [GPSeries.constant(2.0), ZERO])
    assert all(c.is_zero for c in out)


def test_eval_lambda_annotates_ring_errors():
    with pytest.raises(LogOfNonPositive) as exc:
        adomian_polynomials(parse("ln(y)"), [GPSeries.constant(-1.0), ZERO])
    assert "ln(y)" in str(exc.value)
    # non-constant base point: x sits in the order-zero slot
    with pytest.raises(NonConstantBasePoint) as exc2:
        adomian_polynomials(parse("exp(x)"), [GPSeries.constant(-1.0), ZERO])
    assert "exp(x)" in str(exc2.value)


# --- decomposition polynomials ------------------------------------------------------


def test_a0_of_exponential_nonlinearity():
    # f = -e^y (x*yp + 0.5) at constant first component -ln 4: A_0 = -0.125
    f = parse("-1*exp(y)*(x*yp + 0.5)")
    (a0,) = adomian_polynomials(f, [GPSeries.constant(-math.log(4.0))])
    assert _terms(a0) == [(pytest.approx(-0.125), 0.0)]
    # oracle: direct real evaluation, independent of x
    for x in (0.2, 0.9):
        assert eval_real(f, x, -math.log(4.0), 0.0) == pytest.approx(-0.125)


def test_a0_of_linear_nonlinearity():
    # f = x*yp + 0.5*y at first component 1: A_0 = 0.5
    (a0,) = adomian_polynomials(parse("x*yp + 0.5*y"), [GPSeries.constant(1.0)])
    assert _terms(a0) == [(pytest.approx(0.5), 0.0)]
