"""Series algebra: normalization, ring operations, calculus, display."""

import math

import numpy as np
import pytest
from support import reference_normalize

from adomian_bvp.errors import DomainError, NonFiniteTerm, TermBlowup
from adomian_bvp.series import (
    PRUNE_REL_THRESHOLD,
    GPSeries,
    Term,
    add,
    combine,
    differentiate,
    evaluate,
    evaluate_many,
    format_series,
    mul,
    normalize,
    scale,
)


def _terms(series):
    return [(t.coeff, t.exponent) for t in series.terms]


# --- normalize -----------------------------------------------------------------


def test_normalize_merges_equal_exponents():
    s = normalize([Term(1.0, 0.5), Term(2.0, 0.5)])
    assert _terms(s) == [(3.0, 0.5)]


def test_normalize_sorts_by_exponent():
    s = normalize([Term(-0.25, 1.0), Term(0.0268564, 0.5)])
    assert _terms(s) == [(0.0268564, 0.5), (-0.25, 1.0)]


def test_normalize_empty_is_zero():
    s = normalize([])
    assert s.is_zero
    assert s == GPSeries.zero()


def test_normalize_merges_within_tolerance():
    s = normalize([Term(1.0, 0.5), Term(1.0, 0.5 + 5e-13)])
    assert len(s) == 1
    assert s.terms[0].coeff == 2.0


def test_normalize_prunes_relative_dust():
    s = normalize([Term(1.0, 0.0), Term(1e-16, 1.0)])
    assert _terms(s) == [(1.0, 0.0)]


def test_normalize_drops_exact_cancellation():
    assert normalize([Term(2.0, 0.5), Term(-2.0, 0.5)]).is_zero


def test_normalize_rejects_non_finite():
    with pytest.raises(NonFiniteTerm):
        normalize([Term(float("nan"), 0.0)])
    with pytest.raises(NonFiniteTerm):
        normalize([Term(1.0, float("inf"))])


def test_normalize_idempotent_on_random_term_lists():
    rng = np.random.default_rng(1)
    for _ in range(200):
        raw = [
            Term(rng.uniform(-5, 5), rng.choice([0.0, 0.5, 0.5 + 1e-13, 1.0, 2.5]))
            for _ in range(rng.integers(0, 8))
        ]
        once = normalize(raw)
        assert normalize(once.terms) == once


def test_normalize_merge_is_anchored_at_the_first_exponent():
    # Each gap is 0.7e-12, inside the tolerance, but the third exponent lies
    # 1.4e-12 from the group's first: it starts a new term.  A chain merge
    # over consecutive gaps would give one term.
    s = normalize([Term(1.0, 0.5), Term(1.0, 0.5 + 0.7e-12), Term(1.0, 0.5 + 1.4e-12)])
    assert _terms(s) == [(2.0, 0.5), (1.0, 0.5 + 1.4e-12)]


def _random_raw_terms(rng):
    """Raw terms that probe every branch of the normalization."""
    n = int(rng.integers(0, 40))
    # Few distinct exponents, so groups of 8 or more terms are common.
    exponents = rng.choice([0.0, 0.5, 1.0, 2.375, 7.0], size=n)
    drift = rng.choice(
        [0.0, 0.0, 1e-16, -1e-16, 0.4e-12, 0.7e-12, 1e-12, -1e-12, 1.0000001e-12, 3e-12],
        size=n,
    )
    coeffs = rng.uniform(-5.0, 5.0, size=n)
    raw = [(float(c), float(e + d)) for c, e, d in zip(coeffs, exponents, drift)]
    for i in range(n):  # exact cancellations, zeros and subnormals
        kind = rng.integers(0, 12)
        if kind == 0 and i:
            raw[i] = (-raw[i - 1][0], raw[i - 1][1])
        elif kind == 1:
            raw[i] = (rng.choice([0.0, -0.0, 5e-324]), raw[i][1])
    if rng.integers(0, 2):  # coefficients at the relative prune threshold
        largest = 4.0
        raw.append((largest, 100.0))
        edge = PRUNE_REL_THRESHOLD * largest
        for j, c in enumerate(
            [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0), -edge]
        ):
            raw.append((float(c), 200.0 + j))
    order = rng.permutation(len(raw))
    return [raw[i] for i in order]


def test_normalize_matches_reference_bit_for_bit():
    rng = np.random.default_rng(20261018)
    for _ in range(2000):
        raw = _random_raw_terms(rng)
        want = reference_normalize(raw)
        assert _terms(normalize(raw)) == want
        assert _terms(normalize([Term(c, e) for c, e in raw])) == want


def test_operations_match_reference_bit_for_bit():
    rng = np.random.default_rng(7)
    for _ in range(300):
        a = normalize(_random_raw_terms(rng))
        b = normalize(_random_raw_terms(rng))
        pairs_a, pairs_b = _terms(a), _terms(b)
        product = [(ca * cb, ea + eb) for ca, ea in pairs_a for cb, eb in pairs_b]
        assert _terms(mul(a, b)) == reference_normalize(product)
        assert _terms(add(a, b)) == reference_normalize(pairs_a + pairs_b)
        k = float(rng.choice([-1.0, 0.37, 1e-15, 3.0e5]))
        assert _terms(scale(a, k)) == reference_normalize([(c * k, e) for c, e in pairs_a])
        derivative = [(c * e, e - 1.0) for c, e in pairs_a if abs(e) > 1e-12]
        assert _terms(differentiate(a)) == reference_normalize(derivative)
        parts = [
            (
                float(rng.choice([0.0, 1.0, -1.0, 0.37, 1e-15, 3.0e5])),
                GPSeries.zero() if rng.integers(0, 4) == 0 else normalize(_random_raw_terms(rng)),
            )
            for _ in range(int(rng.integers(1, 5)))
        ]
        weighted = [(w * c, e) for w, s in parts if w != 0.0 for c, e in _terms(s)]
        assert _terms(combine(parts)) == reference_normalize(weighted)


def test_terms_and_plain_pairs_read_through_one_path():
    assert Term(0.37, 2.5) == (0.37, 2.5)
    rng = np.random.default_rng(11)
    for _ in range(200):
        pairs = _random_raw_terms(rng)
        s = normalize(pairs)
        assert normalize([Term(c, e) for c, e in pairs]) == s
        assert GPSeries(s.terms) == s
        assert GPSeries(tuple(map(tuple, s.terms))) == s
        assert all(type(t) is Term and type(t.coeff) is float for t in s.terms)


def test_non_finite_terms_are_named_like_the_reference():
    rng = np.random.default_rng(5)
    for _ in range(200):
        raw = _random_raw_terms(rng)
        if not raw:
            continue
        for _ in range(int(rng.integers(1, 3))):
            i = int(rng.integers(0, len(raw)))
            bad = float(rng.choice([np.nan, np.inf, -np.inf]))
            raw[i] = (bad, raw[i][1]) if rng.integers(0, 2) else (raw[i][0], bad)
        with pytest.raises(NonFiniteTerm) as want:
            reference_normalize(raw)
        with pytest.raises(NonFiniteTerm) as got:
            normalize(raw)
        assert str(got.value) == str(want.value)


def test_merged_coefficient_overflow_is_a_non_finite_term():
    # Term by term, the sum would have kept an infinite coefficient.
    with pytest.raises(NonFiniteTerm, match="merged coefficient overflows"):
        normalize([Term(1e308, 0.5), Term(1e308, 0.5)])


def test_product_overflow_is_a_non_finite_term():
    big = GPSeries.monomial(1e200, 0.5)
    with pytest.raises(NonFiniteTerm):
        mul(big, big)
    with pytest.raises(NonFiniteTerm):
        scale(big, 1e200)


# --- arithmetic ------------------------------------------------------------------


def test_add_cancels():
    a = GPSeries.monomial(2.0, 0.5)
    b = GPSeries.monomial(-2.0, 0.5)
    assert add(a, b).is_zero


def test_mul_adds_exponents():
    a = GPSeries.monomial(1.0, 0.5)
    assert _terms(mul(a, a)) == [(1.0, 1.0)]


def test_scale_example():
    # (e - 1) * x^(1-alpha) for alpha = 0.5
    s = scale(GPSeries.monomial(1.0, 0.5), math.e - 1.0)
    assert _terms(s) == [(pytest.approx(1.718281828459045), 0.5)]


def test_scale_by_zero():
    assert scale(GPSeries.monomial(3.0, 2.0), 0.0).is_zero


def test_mul_term_cap():
    a = normalize([Term(1.0, float(i)) for i in range(200)])
    with pytest.raises(TermBlowup):
        mul(a, a)  # 40_000 raw terms
    b = normalize([Term(1.0, float(i)) for i in range(100)])
    assert len(mul(b, b)) == 199  # exactly DEFAULT_TERM_CAP raw terms succeeds


def test_ring_laws_on_evaluation():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = normalize(
            [Term(rng.uniform(-3, 3), rng.uniform(-0.9, 10)) for _ in range(4)]
        )
        b = normalize(
            [Term(rng.uniform(-3, 3), rng.uniform(-0.9, 10)) for _ in range(3)]
        )
        x = rng.uniform(0.1, 1.0)
        assert evaluate(add(a, b), x) == pytest.approx(
            evaluate(a, x) + evaluate(b, x), abs=1e-12, rel=1e-12
        )
        assert evaluate(mul(a, b), x) == pytest.approx(
            evaluate(a, x) * evaluate(b, x), abs=1e-12, rel=1e-12
        )


# --- differentiate ----------------------------------------------------------------


def test_differentiate_linear_term():
    assert _terms(differentiate(GPSeries.monomial(-0.25, 1.0))) == [(-0.25, 0.0)]


def test_differentiate_constant_vanishes():
    assert differentiate(GPSeries.constant(7.0)).is_zero


def test_differentiate_against_finite_differences():
    # independent oracle: central difference of c*x^0.5 at x = 0.5
    c = 0.0268564
    s = GPSeries.monomial(c, 0.5)
    ds = differentiate(s)
    assert _terms(ds) == [(pytest.approx(0.0134282), -0.5)]
    h = 1e-6
    x = 0.5
    fd = (evaluate(s, x + h) - evaluate(s, x - h)) / (2 * h)
    assert evaluate(ds, x) == pytest.approx(fd, abs=1e-8)


def test_product_rule_term_for_term():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = normalize(
            [Term(rng.uniform(-2, 2), rng.uniform(0.1, 5)) for _ in range(3)]
        )
        b = normalize(
            [Term(rng.uniform(-2, 2), rng.uniform(0.1, 5)) for _ in range(3)]
        )
        lhs = differentiate(mul(a, b))
        rhs = add(mul(differentiate(a), b), mul(a, differentiate(b)))
        assert len(lhs) == len(rhs)
        for tl, tr in zip(lhs.terms, rhs.terms):
            assert tl.exponent == pytest.approx(tr.exponent, abs=1e-12)
            assert tl.coeff == pytest.approx(tr.coeff, rel=1e-12)


# --- evaluate ---------------------------------------------------------------------


def test_evaluate_example():
    s = normalize([Term(0.0268564, 0.5), Term(-0.25, 1.0)])
    # direct arithmetic: 0.0268564*0.5 - 0.0625
    assert evaluate(s, 0.25) == pytest.approx(-0.0490718, abs=1e-10)


def test_evaluate_zero_series():
    assert evaluate(GPSeries.zero(), 0.7) == 0.0


def test_evaluate_at_one():
    assert evaluate(GPSeries.monomial(2.0, 0.5), 1.0) == 2.0


def test_evaluate_at_zero_rules():
    mixed = normalize([Term(3.0, 0.0), Term(5.0, 0.5)])
    assert evaluate(mixed, 0.0) == 3.0  # 0^0 := 1, positive powers vanish
    with pytest.raises(DomainError):
        evaluate(GPSeries.monomial(1.0, -0.5), 0.0)


def test_evaluate_negative_x_fractional_exponent():
    with pytest.raises(DomainError):
        evaluate(GPSeries.monomial(1.0, 0.5), -0.25)
    # integer exponents are rejected too: series are evaluated at x >= 0 only
    for s in (GPSeries.monomial(1.0, 2.0), GPSeries.monomial(3.0, 0.0), GPSeries.zero()):
        for x in (-0.25, -1.0, math.nan):
            with pytest.raises(DomainError):
                evaluate(s, x)


def test_evaluate_many_matches_scalar():
    s = normalize([Term(1.5, 0.5), Term(-0.5, 2.0)])
    xs = np.linspace(0.1, 1.0, 10)
    vec = evaluate_many(s, xs)
    for x, v in zip(xs, vec):
        assert v == pytest.approx(evaluate(s, float(x)), rel=1e-14)


# --- display ---------------------------------------------------------------------


def test_format_series_layout():
    s = normalize([Term(0.0268564, 0.5), Term(-0.25, 1.0)])
    assert format_series(s) == "2.6856400000e-02*x^0.5 + -2.5000000000e-01*x^1"


def test_format_zero():
    assert format_series(GPSeries.zero()) == "0"
