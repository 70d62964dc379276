"""Series algebra: normalization, ring operations, calculus, display."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from support import reference_normalize

from adomian_bvp.benchmarks import benchmark_problem
from adomian_bvp.errors import DomainError, InvalidProblem, NonFiniteTerm, TermBlowup
from adomian_bvp.series import (
    DEFAULT_TERM_CAP,
    EXPONENT_MERGE_TOL,
    PRUNE_REL_THRESHOLD,
    GPSeries,
    Term,
    add,
    combine,
    differentiate,
    evaluate,
    evaluate_many,
    format_series,
    from_arrays,
    mul,
    normalize,
    scale,
)
from adomian_bvp.solver import solve


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


def test_raw_pairs_must_be_finite_and_strictly_increasing():
    # What every operation relies on: unsorted exponents evaluated to inf at
    # x = 0, and a repeated exponent survived add as two terms.
    with pytest.raises(InvalidProblem, match=r"^exponents must strictly increase, got 0\.5 then -0\.5$"):
        GPSeries([(1.0, 0.5), (2.0, -0.5)])
    with pytest.raises(InvalidProblem, match=r"got 0\.5 then 0\.5$"):
        GPSeries([(1.0, 0.0), (1.0, 0.5), (2.0, 0.5)])
    with pytest.raises(NonFiniteTerm, match=r"^term \(nan, 1\.0\) is not finite$"):
        GPSeries([(math.nan, 1.0)])
    with pytest.raises(NonFiniteTerm, match=r"^term \(2\.0, inf\) is not finite$"):
        GPSeries([(1.0, 0.5), (2.0, math.inf)])
    # Still no merge and no prune: near-equal exponents and a zero coefficient stay.
    raw = ((1.0, 0.0), (1e-300, 1e-13), (0.0, 1.0))
    assert GPSeries(raw).terms == raw


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


# --- combine with products: one call per Cauchy sum --------------------------------

# Exponents from a few values with drift inside and just past the merge
# tolerance, so products of two factors often land within it of each other.
_EXPONENTS = st.builds(
    float.__add__,
    st.sampled_from([-0.5, 0.0, 0.5, 1.0, 2.375]),
    st.sampled_from([0.0, 0.4 * EXPONENT_MERGE_TOL, 0.7 * EXPONENT_MERGE_TOL,
                     EXPONENT_MERGE_TOL, -EXPONENT_MERGE_TOL, 3 * EXPONENT_MERGE_TOL]),
)
_COEFFS = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, 1.0, 1e-300, 3e16]),  # 3e16 + 1 - 3e16 depends on the order
    st.floats(1e299, 1e300).map(lambda c: -c),
    st.floats(1e299, 1e300),
)
_NONZERO = st.lists(st.tuples(_COEFFS, _EXPONENTS), min_size=1, max_size=6).map(normalize)
_SERIES = st.one_of(
    st.just(GPSeries.zero()),
    st.builds(GPSeries.constant, st.sampled_from([1.0, -1.0, 0.37, 1e300])),
    _NONZERO, _NONZERO, _NONZERO,
)
# 1e8 takes two coefficients near 1e300 to a merged sum past the largest float.
_WEIGHTS = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 1e8]), st.floats(-1e3, 1e3))


def _reference_sum(raw):
    """reference_normalize, raising where the kernel reports a merged overflow."""
    terms = reference_normalize(raw)
    if not all(math.isfinite(c) for c, _ in terms):
        raise NonFiniteTerm("a merged coefficient overflows")
    return terms


def _nested_oracle(parts, products):
    """Each product normalized on its own, in order, then the weighted sum once."""
    weighted = [(w * c, e) for w, s in parts if w != 0.0 for c, e in _terms(s)]
    for w, a, b in products:
        pairs = [(ca * cb, ea + eb) for ca, ea in _terms(a) for cb, eb in _terms(b)]
        product = _reference_sum(pairs)  # formed, and able to fail, at any weight
        if w != 0.0:
            weighted += [(w * c, e) for c, e in product]
    return _reference_sum(weighted)


@settings(max_examples=400, deadline=None)
@given(
    parts=st.lists(st.tuples(_WEIGHTS, _SERIES), max_size=3),
    products=st.lists(st.tuples(_WEIGHTS, _SERIES, _SERIES), max_size=4),
)
@example(  # the sum adds parts, then products, in order: (1 + 3e16) - 3e16 is 0
    parts=[(1.0, GPSeries.monomial(1.0, 0.5))],
    products=[(w, GPSeries.constant(3e16), GPSeries.monomial(1.0, 0.5)) for w in (1.0, -1.0)],
)
def test_combine_with_products_matches_the_nested_oracle(parts, products):
    try:
        want = _nested_oracle(parts, products)
    except NonFiniteTerm as err:
        with pytest.raises(NonFiniteTerm) as got:
            combine(iter(parts), iter(products))
        assert str(got.value) == str(err)
        return
    got = combine(iter(parts), iter(products))
    assert got.coeffs.tolist() == [c for c, _ in want]
    assert got.exponents.tolist() == [e for _, e in want]


def _powers(count):
    return from_arrays(np.ones(count), np.arange(count, dtype=float))


def test_an_overflowing_product_before_a_wide_one_is_a_non_finite_term():
    big, wide = GPSeries.monomial(1e200, 0.5), _powers(101)
    with pytest.raises(NonFiniteTerm) as err:
        combine((), [(1.0, big, big), (1.0, wide, wide)])
    assert str(err.value) == "term (inf, 1.0) is not finite"


def test_a_wide_product_before_an_overflowing_one_is_a_term_blowup():
    big, wide = GPSeries.monomial(1e200, 0.5), _powers(101)
    with pytest.raises(TermBlowup) as err:
        combine((), [(1.0, wide, wide), (1.0, big, big)])
    assert str(err.value) == f"product of 101 x 101 terms exceeds cap {DEFAULT_TERM_CAP}"


def test_an_empty_factor_skips_the_product_and_its_cap():
    huge, part = _powers(DEFAULT_TERM_CAP + 1), GPSeries.monomial(2.0, 0.5)
    got = combine([(1.0, part)], [(1.0, GPSeries.zero(), huge), (-3.0, huge, GPSeries.zero())])
    assert got == part
    assert mul(huge, GPSeries.zero()).is_zero


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
    # the same rule on a grid; an exponent within EXPONENT_MERGE_TOL of 0 counts as 0
    xs = np.array([0.0, 0.25, 0.0, 1.0])
    for tiny in (0.0, 1e-13, -1e-13):
        s = GPSeries([(3.0, tiny), (5.0, 0.5), (-2.0, 2.0)])
        values = evaluate_many(s, xs).tolist()
        assert values[0] == values[2] == evaluate(s, 0.0) == 3.0
        assert values[1] == evaluate(s, 0.25)
    singular = GPSeries([(1.0, -0.5), (3.0, 0.0)])
    assert evaluate_many(singular, np.array([0.25, 1.0])).tolist() == [5.0, 4.0]
    with pytest.raises(DomainError, match="singular at x = 0"):
        evaluate_many(singular, xs)


def test_evaluate_negative_x_fractional_exponent():
    with pytest.raises(DomainError):
        evaluate(GPSeries.monomial(1.0, 0.5), -0.25)
    # integer exponents are rejected too: series are evaluated at x >= 0 only
    for s in (GPSeries.monomial(1.0, 2.0), GPSeries.monomial(3.0, 0.0), GPSeries.zero()):
        for x in (-0.25, -1.0, -math.inf, math.nan):
            with pytest.raises(DomainError):
                evaluate(s, x)
            with pytest.raises(DomainError, match="x >= 0"):
                evaluate_many(s, np.array([0.5, x, 1.0]))


def test_evaluate_many_matches_scalar():
    # psi_1 ... psi_10 of the five published tables, at alpha = 0.25/0.5/0.75,
    # on their 1000-point grid plus x = 0: a point is a one-point grid, so the
    # two agree bit for bit.  Every psi is checked at every 40th point, from
    # x = 0 to x = 1, and the psi with the most terms at all 1001.
    xs = np.arange(0, 1001, dtype=float) / 1000
    widest = GPSeries.zero()
    for example, beta in ((1, 1.0), (1, 3.5), (2, 1.0), (3, 1.0), (3, 2.5)):
        for alpha in (0.25, 0.5, 0.75):
            for psi in solve(benchmark_problem(example, alpha, beta), 10).partial_sums:
                grid = evaluate_many(psi, xs)
                assert [evaluate(psi, x) for x in xs[::40].tolist()] == grid[::40].tolist()
                widest = max(widest, psi, key=len)
    assert [evaluate(widest, x) for x in xs.tolist()] == evaluate_many(widest, xs).tolist()


# --- display ---------------------------------------------------------------------


def test_format_series_layout():
    s = normalize([Term(0.0268564, 0.5), Term(-0.25, 1.0)])
    assert format_series(s) == "2.6856400000e-02*x^0.5 + -2.5000000000e-01*x^1"


def test_format_zero():
    assert format_series(GPSeries.zero()) == "0"
