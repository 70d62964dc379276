"""Truncated ring in the decomposition parameter: lifting, eval_lambda, the ring_*
facade over the tape, extraction."""

import math

import numpy as np
import pytest

from support import taylor_gap

from adomian_bvp.errors import (
    DivisionByZeroSeries,
    LogOfNonPositive,
    NonConstantBasePoint,
    OrderMismatch,
)
from adomian_bvp.expressions import YP, Constant, Mul, X, eval_real, parse
from adomian_bvp.lambda_ring import (
    LambdaSeries,
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
)
from adomian_bvp.series import GPSeries, Term, evaluate, normalize


def _terms(series):
    return [(t.coeff, t.exponent) for t in series.terms]


# --- lifting -----------------------------------------------------------------


def test_lift_constant_component():
    eta = GPSeries.constant(-math.log(4.0))
    y, yp = lift_solution([eta], 0)
    assert y.coeffs[0] == eta
    assert yp.coeffs[0].is_zero


def test_lift_derivative_slot():
    comps = [
        GPSeries.constant(-math.log(4.0)),
        normalize([Term(0.0268564, 0.5), Term(-0.25, 1.0)]),
    ]
    _, yp = lift_solution(comps, 1)
    assert _terms(yp.coeffs[1]) == [
        (pytest.approx(0.0134282), -0.5),
        (pytest.approx(-0.25), 0.0),
    ]


def test_lift_pads_with_zero():
    y, yp = lift_solution([GPSeries.constant(1.0)], 2)
    assert y.order == 2
    assert y.coeffs[1].is_zero and y.coeffs[2].is_zero
    assert all(c.is_zero for c in yp.coeffs)


# --- ring arithmetic ------------------------------------------------------------


def test_ring_mul_binomial():
    # (1 + x*lam)^2 = 1 + 2x*lam + x^2*lam^2
    one_plus = LambdaSeries(
        (GPSeries.constant(1.0), GPSeries.monomial(1.0, 1.0), GPSeries.zero())
    )
    sq = ring_mul(one_plus, one_plus)
    assert _terms(sq.coeffs[0]) == [(1.0, 0.0)]
    assert _terms(sq.coeffs[1]) == [(2.0, 1.0)]
    assert _terms(sq.coeffs[2]) == [(1.0, 2.0)]


def test_ring_mul_by_zero():
    a = LambdaSeries((GPSeries.constant(2.0), GPSeries.monomial(1.0, 0.5)))
    assert all(c.is_zero for c in ring_mul(a, LambdaSeries.zero(1)).coeffs)


def test_ring_add_is_coefficientwise():
    a = LambdaSeries((GPSeries.constant(1.0), GPSeries.monomial(2.0, 0.5)))
    b = LambdaSeries((GPSeries.constant(-1.0), GPSeries.monomial(3.0, 0.5)))
    s = ring_add(a, b)
    assert s.coeffs[0].is_zero
    assert _terms(s.coeffs[1]) == [(5.0, 0.5)]


def test_order_mismatch_raises():
    with pytest.raises(OrderMismatch):
        ring_add(LambdaSeries.zero(1), LambdaSeries.zero(2))


# --- exp / ln / recip / powi ------------------------------------------------------


def test_exp_of_zero():
    e = ring_exp(LambdaSeries.zero(3))
    assert _terms(e.coeffs[0]) == [(1.0, 0.0)]
    assert all(c.is_zero for c in e.coeffs[1:])


def test_exp_first_order_around_constant():
    # exp(-ln4 + c*x^0.5*lam) at order 1 -> 0.25 + 0.25c*x^0.5*lam
    c = 0.7
    a = LambdaSeries((GPSeries.constant(-math.log(4.0)), GPSeries.monomial(c, 0.5)))
    e = ring_exp(a)
    assert _terms(e.coeffs[0]) == [(pytest.approx(0.25), 0.0)]
    assert _terms(e.coeffs[1]) == [(pytest.approx(0.25 * c), 0.5)]


def test_exp_taylor_in_parameter():
    # exp(x^0.5 * lam) at order 2 -> 1 + x^0.5 lam + 0.5 x lam^2
    a = LambdaSeries(
        (GPSeries.zero(), GPSeries.monomial(1.0, 0.5), GPSeries.zero())
    )
    e = ring_exp(a)
    assert _terms(e.coeffs[0]) == [(1.0, 0.0)]
    assert _terms(e.coeffs[1]) == [(1.0, 0.5)]
    assert _terms(e.coeffs[2]) == [(pytest.approx(0.5), 1.0)]


def test_exp_numeric_oracle():
    # ring evaluation at sampled (x, lam) against direct exp
    rng = np.random.default_rng(4)
    for _ in range(20):
        coeffs = [GPSeries.constant(rng.uniform(-1, 1))]
        coeffs += [
            GPSeries.monomial(rng.uniform(-0.5, 0.5), rng.uniform(0.2, 2.0))
            for _ in range(4)
        ]
        a = LambdaSeries(tuple(coeffs))
        e = ring_exp(a)
        for x, lam in [(0.3, 0.1), (0.8, 0.2)]:
            a_val = sum(evaluate(c, x) * lam**k for k, c in enumerate(a.coeffs))
            e_val = sum(evaluate(c, x) * lam**k for k, c in enumerate(e.coeffs))
            # truncation error is O(lam^5) with O(1) fluctuations
            assert e_val == pytest.approx(math.exp(a_val), abs=20 * lam**5)


def test_recip_geometric():
    u = GPSeries.monomial(1.0, 1.0)
    a = LambdaSeries((GPSeries.constant(1.0), u, GPSeries.zero()))
    r = ring_recip(a)
    assert _terms(r.coeffs[0]) == [(1.0, 0.0)]
    assert _terms(r.coeffs[1]) == [(-1.0, 1.0)]
    assert _terms(r.coeffs[2]) == [(1.0, 2.0)]


def test_ln_of_one():
    assert all(c.is_zero for c in ring_ln(LambdaSeries.constant(1.0, 2)).coeffs)


def test_ln_inverts_exp():
    a = LambdaSeries(
        (
            GPSeries.constant(0.3),
            GPSeries.monomial(0.4, 0.5),
            GPSeries.monomial(-0.2, 1.0),
        )
    )
    back = ring_ln(ring_exp(a))
    for orig, rec in zip(a.coeffs, back.coeffs):
        assert len(orig) == len(rec)
        for to, tr in zip(orig.terms, rec.terms):
            assert tr.coeff == pytest.approx(to.coeff, rel=1e-12)


def test_powi_identity_and_negative():
    a = LambdaSeries((GPSeries.constant(2.0), GPSeries.monomial(1.0, 0.5)))
    one = ring_powi(a, 0)
    assert _terms(one.coeffs[0]) == [(1.0, 0.0)] and one.coeffs[1].is_zero
    inv = ring_powi(a, -1)
    prod = ring_mul(a, inv)
    assert _terms(prod.coeffs[0]) == [(pytest.approx(1.0), 0.0)]
    assert prod.coeffs[1].is_zero


def test_base_point_guards():
    non_const = LambdaSeries.from_gpseries(GPSeries.monomial(1.0, 1.0), 1)
    with pytest.raises(NonConstantBasePoint):
        ring_exp(non_const)
    with pytest.raises(LogOfNonPositive):
        ring_ln(LambdaSeries.constant(-2.0, 1))
    with pytest.raises(DivisionByZeroSeries):
        ring_recip(LambdaSeries.zero(1))


# --- eval_lambda ------------------------------------------------------------------


def test_eval_lambda_constant():
    y, yp = lift_solution([GPSeries.constant(1.0)], 2)
    out = eval_lambda(Constant(3.5), y, yp)
    assert [(t.coeff, t.exponent) for t in out.coeffs[0].terms] == [(3.5, 0.0)]
    assert all(c.is_zero for c in out.coeffs[1:])


def test_eval_lambda_x_times_zero_derivative():
    y, yp = lift_solution([GPSeries.constant(2.0)], 1)
    out = eval_lambda(Mul(X, YP), y, yp)
    assert all(c.is_zero for c in out.coeffs)


def test_eval_lambda_annotates_ring_errors():
    y, yp = lift_solution([GPSeries.constant(-1.0)], 1)
    with pytest.raises(LogOfNonPositive) as exc:
        eval_lambda(parse("ln(y)"), y, yp)
    assert "ln(y)" in str(exc.value)
    # non-constant base point: x sits in the order-zero slot
    with pytest.raises(NonConstantBasePoint) as exc2:
        eval_lambda(parse("exp(x)"), y, yp)
    assert "exp(x)" in str(exc2.value)


# --- decomposition polynomials ------------------------------------------------------


def test_extract_order_guard():
    with pytest.raises(OrderMismatch):
        extract_adomian(LambdaSeries.zero(2), 3)


def test_a0_of_exponential_nonlinearity():
    # f = -e^y (x*yp + 0.5) at constant first component -ln 4: A_0 = -0.125
    f = parse("-1*exp(y)*(x*yp + 0.5)")
    y, yp = lift_solution([GPSeries.constant(-math.log(4.0))], 0)
    a0 = extract_adomian(eval_lambda(f, y, yp), 0)
    assert _terms(a0) == [(pytest.approx(-0.125), 0.0)]
    # oracle: direct real evaluation, independent of x
    for x in (0.2, 0.9):
        assert eval_real(f, x, -math.log(4.0), 0.0) == pytest.approx(-0.125)


def test_a0_of_linear_nonlinearity():
    # f = x*yp + 0.5*y at first component 1: A_0 = 0.5
    f = parse("x*yp + 0.5*y")
    y, yp = lift_solution([GPSeries.constant(1.0)], 0)
    a0 = extract_adomian(eval_lambda(f, y, yp), 0)
    assert _terms(a0) == [(pytest.approx(0.5), 0.0)]


def test_a0_is_f_of_first_component():
    # the order-zero slot of any composition equals f at the first component
    rng = np.random.default_rng(5)
    f = parse("exp(y)*(x*yp + 0.3) + 0.2*y")
    for _ in range(10):
        eta = float(rng.uniform(-1, 1))
        comps = [GPSeries.constant(eta)] + [
            GPSeries.monomial(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
            for _ in range(3)
        ]
        y, yp = lift_solution(comps, 3)
        a0 = extract_adomian(eval_lambda(f, y, yp), 0)
        for x in (0.3, 0.7):
            assert evaluate(a0, x) == pytest.approx(eval_real(f, x, eta, 0.0))


def test_linear_f_decouples_components():
    # for linear f the k-th polynomial depends on component k alone
    f = parse("2.5*(x*yp + 2*y)")
    rng = np.random.default_rng(6)
    comps = [GPSeries.constant(0.4)] + [
        GPSeries.monomial(rng.uniform(-1, 1), rng.uniform(0.5, 3.0)) for _ in range(3)
    ]
    full = eval_lambda(f, *lift_solution(comps, 3))
    k = 2
    alone = [GPSeries.zero()] * k + [comps[k]]
    solo = eval_lambda(f, *lift_solution(alone, 3))
    assert extract_adomian(full, k) == extract_adomian(solo, k)


def test_composition_matches_direct_evaluation():
    # anti-drift oracle: partial sums of A_n converge to f at the lifted point
    rng = np.random.default_rng(7)
    f = parse("exp(y)*(x*yp + 0.4)")
    n_order = 6
    comps = [GPSeries.constant(-0.5)] + [
        GPSeries.monomial(rng.uniform(-0.4, 0.4), 0.5 + 0.5 * k)
        for k in range(n_order)
    ]
    composed = eval_lambda(f, *lift_solution(comps, n_order))
    for x in (0.3, 0.7):
        for lam in (0.1, 0.5):
            gap = taylor_gap(f, comps, composed.coeffs, x, lam)
            assert gap <= 10 * lam ** (n_order + 1)


def test_ring_scale_distributes_over_columns():
    a = LambdaSeries((GPSeries.constant(3.0), GPSeries.monomial(2.0, 1.5)))
    s = ring_scale(a, -2.0)
    assert _terms(s.coeffs[0]) == [(-6.0, 0.0)]
    assert _terms(s.coeffs[1]) == [(-4.0, 1.5)]
