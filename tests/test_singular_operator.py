"""Closed-form inverse operator against independent quadrature and identities."""

import mpmath as mp
import numpy as np
import pytest

from adomian_bvp.benchmarks import benchmark_problem
from adomian_bvp.errors import Divergent, LogResonance, OuterResonance
from adomian_bvp.expressions import parse
from adomian_bvp.series import GPSeries, Term, add, evaluate, normalize, scale
from adomian_bvp.singular_operator import (
    OperatorContext,
    apply_forward,
    apply_inverse,
    h_series,
    inverse_at_one,
)
from adomian_bvp.solver import Problem, solve


def _terms(series):
    return [(t.coeff, t.exponent) for t in series.terms]


def nested_integral(alpha, sigma, g, x, dps=20):
    """Independent oracle: the raw double integral via tanh-sinh quadrature."""
    with mp.workdps(dps):
        terms = [(t.coeff, t.exponent + sigma) for t in g.terms]

        def inner(s):
            return mp.quad(lambda t: sum(c * t**r for c, r in terms), [s, 1])

        val = mp.quad(lambda s: s ** (-alpha) * inner(s), [0, x])
        return float(val)


# --- context and h -------------------------------------------------------------


def test_context_validation():
    OperatorContext(0.0, -1.0)
    with pytest.raises(ValueError):
        OperatorContext(1.0, 0.0)
    with pytest.raises(ValueError):
        OperatorContext(-0.1, 0.0)


def test_h_series_half():
    h = h_series(OperatorContext(0.5, 0.0))
    assert _terms(h) == [(pytest.approx(2.0), 0.5)]
    # quadrature oracle for int_0^x s^-0.5 ds
    for x in (0.25, 1.0):
        with mp.workdps(30):
            ref = float(mp.quad(lambda s: s**-0.5, [0, x]))
        assert evaluate(h, x) == pytest.approx(ref, abs=1e-10)


def test_h_series_nonsingular_limit():
    assert _terms(h_series(OperatorContext(0.0, 0.0))) == [(1.0, 1.0)]


def test_h_at_one_equals_context_value():
    for alpha in (0.0, 0.25, 0.5, 0.75):
        h1 = evaluate(h_series(OperatorContext(alpha, 0.0)), 1.0)
        assert h1 == pytest.approx(1.0 / (1.0 - alpha), rel=1e-14)
        problem = Problem(alpha=alpha, sigma=0.0, f=parse("0"), eta1=0.0,
                          alpha1=2.0, beta1=0.5, gamma1=1.5)
        # f = 0 and eta1 = 0 leave y_1 = (gamma1/D)*h, with D = alpha1*h(1) + beta1
        y1 = solve(problem, 2).components[1]
        assert _terms(y1) == [(pytest.approx(1.5 / ((2.0 * h1 + 0.5) * (1.0 - alpha)),
                                             rel=1e-14), 1.0 - alpha)]


# --- inverse images ---------------------------------------------------------------


def test_inverse_of_constant_with_singular_weight():
    # alpha=0.5, sigma=-0.5 applied to the constant -0.125
    ctx = OperatorContext(0.5, -0.5)
    g = GPSeries.constant(-0.125)
    u = apply_inverse(ctx, g)
    assert _terms(u) == [(pytest.approx(-0.5), 0.5), (pytest.approx(0.25), 1.0)]
    for x in (0.25, 1.0):
        assert evaluate(u, x) == pytest.approx(
            nested_integral(0.5, -0.5, g, x), abs=1e-8
        )


def test_inverse_of_constant_unit_weight():
    ctx = OperatorContext(0.5, 0.0)
    g = GPSeries.constant(1.0)
    u = apply_inverse(ctx, g)
    assert _terms(u) == [
        (pytest.approx(2.0), 0.5),
        (pytest.approx(-2.0 / 3.0), 1.5),
    ]
    assert evaluate(u, 0.5) == pytest.approx(nested_integral(0.5, 0.0, g, 0.5), abs=1e-8)


def test_inverse_of_zero():
    assert apply_inverse(OperatorContext(0.5, -0.5), GPSeries.zero()).is_zero


def test_inverse_at_one_values():
    assert inverse_at_one(
        OperatorContext(0.5, -0.5), GPSeries.constant(-0.125)
    ) == pytest.approx(-0.25)
    assert inverse_at_one(
        OperatorContext(0.5, -0.5), GPSeries.constant(-0.25)
    ) == pytest.approx(-0.5)
    assert inverse_at_one(OperatorContext(0.5, -0.5), GPSeries.zero()) == 0.0


# --- guards ------------------------------------------------------------------------


def test_log_resonance():
    ctx = OperatorContext(0.5, -0.5)
    with pytest.raises(LogResonance):
        apply_inverse(ctx, GPSeries.monomial(1.0, -0.5))  # weighted exponent -1


def test_outer_resonance():
    ctx = OperatorContext(0.5, 0.0)
    with pytest.raises(OuterResonance):
        apply_inverse(ctx, GPSeries.monomial(1.0, -1.5))  # weighted exponent a-2


def test_divergent():
    ctx = OperatorContext(0.5, 0.0)
    with pytest.raises(Divergent):
        apply_inverse(ctx, GPSeries.monomial(1.0, -1.7))


def _inverse_error(ctx, exponents):
    with pytest.raises((LogResonance, OuterResonance, Divergent)) as exc:
        apply_inverse(ctx, normalize([Term(1.0, e) for e in exponents]))
    return type(exc.value), str(exc.value)


LOG_AT_MINUS_1_5 = (LogResonance, "weighted exponent -1 hits -1 (term x^-1.5)")


@pytest.mark.parametrize("exponents,expected", [
    ([-1.5, 0.0, 1.0], LOG_AT_MINUS_1_5),  # offender first
    ([-2.0, -1.5, 0.0], LOG_AT_MINUS_1_5),  # in the middle
    ([-2.1, -2.0, -1.5], LOG_AT_MINUS_1_5),  # last
    ([-2.25, -1.0, 0.0], (OuterResonance, "weighted exponent -1.75 hits alpha-2 = -1.75")),
    ([-2.5, -2.0, 1.0],
     (Divergent, "weighted exponent -2 below alpha-2 = -1.75: integral diverges")),
    # a divergent term below a log-resonant one: the first in exponent order is named
    ([-2.5, -1.5],
     (Divergent, "weighted exponent -2 below alpha-2 = -1.75: integral diverges")),
])
def test_error_names_the_first_offending_term(exponents, expected):
    # alpha = 0.25, sigma = 0.5: r = -1 at x^-1.5 and r = alpha-2 at x^-2.25
    assert _inverse_error(OperatorContext(0.25, 0.5), exponents) == expected


@pytest.mark.parametrize("exponent,expected", [
    (-1.0 + 5e-13, (LogResonance, "weighted exponent -1 hits -1 (term x^-1)")),  # |r+1| = 5e-13
    (-1.5 - 5e-13, (OuterResonance, "weighted exponent -1.5 hits alpha-2 = -1.5")),
    (-1.5 - 2e-12,
     (Divergent, "weighted exponent -1.5 below alpha-2 = -1.5: integral diverges")),
])
def test_resonance_tolerance_edges(exponent, expected):
    # alpha = 0.5, sigma = 0: the tail r+2-alpha is -5e-13 and -2e-12 on the last two
    assert _inverse_error(OperatorContext(0.5, 0.0), [exponent]) == expected


def test_image_exponents_that_would_merge_are_a_log_resonance():
    # r + 1 = 1.00009e-12 passes the tolerance, but the computed gap between
    # x^(1-alpha) and x^(r+2-alpha) is 9.9998e-13: merged, the two terms
    # would leave one term at x^(1-alpha), which L maps to 0.
    problem = benchmark_problem(3, 1e-12, 1.0)
    ctx = OperatorContext(problem.alpha, problem.sigma)
    with pytest.raises(LogResonance, match=r"^weighted exponent -1 hits -1 \(term x\^0\)$"):
        apply_inverse(ctx, GPSeries.constant(1.0))
    with pytest.raises(LogResonance):
        solve(problem, 3)
    # alpha = 0.5, r + 1 = 2e-12: the gap, as computed, clears the tolerance
    image = apply_inverse(OperatorContext(0.5, 0.0), GPSeries.monomial(1.0, -1.0 + 2e-12))
    assert len(image) == 2


# --- identities -----------------------------------------------------------------------


def test_forward_inverse_identity():
    # L(L^-1(g)) = -x^sigma*g on random admissible single terms
    rng = np.random.default_rng(9)
    for alpha in (0.25, 0.5, 0.75):
        for sigma in (-0.5, 0.0, 1.5):
            ctx = OperatorContext(alpha, sigma)
            for _ in range(40):
                r = float(rng.uniform(alpha - 2 + 0.05, 6.0))
                if abs(r + 1.0) < 0.05:
                    continue
                c = float(rng.uniform(-2, 2)) or 1.0
                u = apply_inverse(ctx, GPSeries.monomial(c, r - sigma))
                image = apply_forward(alpha, u)
                assert len(image) == 1
                t = image.terms[0]
                assert t.exponent == pytest.approx(r, abs=1e-9)
                assert t.coeff == pytest.approx(-c, rel=1e-12)


def test_inverse_linearity():
    rng = np.random.default_rng(10)
    ctx = OperatorContext(0.5, -0.5)
    for _ in range(25):
        g1 = GPSeries.monomial(rng.uniform(-2, 2), rng.uniform(0.0, 4.0))
        g2 = GPSeries.monomial(rng.uniform(-2, 2), rng.uniform(0.0, 4.0))
        a, b = rng.uniform(-3, 3, size=2)
        lhs = apply_inverse(ctx, add(scale(g1, a), scale(g2, b)))
        rhs = add(scale(apply_inverse(ctx, g1), a), scale(apply_inverse(ctx, g2), b))
        assert len(lhs) == len(rhs)
        for tl, tr in zip(lhs.terms, rhs.terms):
            assert tl.exponent == pytest.approx(tr.exponent, abs=1e-12)
            assert tl.coeff == pytest.approx(tr.coeff, rel=1e-12)


def test_output_exponents_strictly_positive():
    rng = np.random.default_rng(11)
    for alpha in (0.0, 0.3, 0.75):
        ctx = OperatorContext(alpha, 0.25)
        for _ in range(25):
            g = normalize(
                [Term(rng.uniform(-1, 1), rng.uniform(0.0, 3.0)) for _ in range(3)]
            )
            u = apply_inverse(ctx, g)
            assert all(t.exponent >= 1.0 - alpha - 1e-12 for t in u.terms)
            assert evaluate(u, 0.0) == 0.0
