"""Series algebra: normalization, ring operations, calculus, display."""

import functools
import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from support import reference_normalize

from adomian_bvp import series
from adomian_bvp.benchmarks import benchmark_problem
from adomian_bvp.errors import DomainError, InvalidProblem, NonFiniteTerm, TermBlowup
from adomian_bvp.series import (
    DEFAULT_TERM_CAP,
    EXPONENT_MERGE_TOL,
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
from adomian_bvp.solver import partial_sum, solve


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


def test_normalize_keeps_a_coefficient_far_below_the_largest():
    # Only exact zeros are dropped: no coefficient is dust next to another.
    s = normalize([Term(1.0, 0.0), Term(1e-16, 1.0)])
    assert _terms(s) == [(1.0, 0.0), (1e-16, 1.0)]
    assert _terms(add(GPSeries.constant(1.0), GPSeries.monomial(1e-300, 1.0))) == [
        (1.0, 0.0), (1e-300, 1.0)]


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
    if rng.integers(0, 2):  # coefficients near 1e-14 of the largest: all are kept
        largest = 4.0
        raw.append((largest, 100.0))
        edge = 1e-14 * largest
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


# --- the kernel does not depend on how the sort orders equal exponents ------------


def test_a_group_of_both_zeros_is_positive_zero_in_any_input_order():
    zeros = [(1.0, -0.0), (2.0, 0.0), (4.0, -0.0), (0.5, 1e-13), (8.0, 0.5)]
    for order in itertools.permutations(range(len(zeros))):
        raw = [zeros[i] for i in order]
        got = normalize(raw)
        assert _terms(got) == reference_normalize(raw) == [(7.5, 0.0), (8.0, 0.5)]
        assert math.copysign(1.0, got.exponents[0]) == 1.0
    # a zero exponent alone, with or without another group that merges
    for raw in ([(3.0, -0.0)], [(3.0, -0.0), (1.0, 0.5), (1.0, 0.5)]):
        assert math.copysign(1.0, normalize(raw).exponents[0]) == 1.0
    both = add(GPSeries([(1.0, -0.0)]), GPSeries([(1.0, 0.0)]))
    assert both.terms == ((2.0, 0.0),) and math.copysign(1.0, both.exponents[0]) == 1.0


def test_a_group_adds_its_coefficients_in_input_order():
    # 1 + 3e16 - 3e16 is 0, while 3e16 - 3e16 + 1, the order of the sorted
    # exponents, and -3e16 + 3e16 + 1, the reversed input, are 1
    raw = [(1.0, 0.5 + 1e-13), (3e16, 0.5), (-3e16, 0.5)]
    assert _terms(normalize(raw)) == reference_normalize(raw) == []
    assert _terms(normalize(raw[::-1])) == reference_normalize(raw[::-1]) == [(1.0, 0.5)]


def _tie_heavy(rng, size):
    """Many exactly equal exponents, both zeros, and neighbours drifted within the tolerance."""
    exponents = rng.choice([-0.0, 0.0, 0.5, 1.0, 1.0 + 4e-13, 2.375, 7.0], size=size)
    drifted = rng.integers(0, 8, size=size) == 0
    exponents[drifted] += rng.choice([1e-16, -1e-16, 4e-13, 9e-13, -9e-13], size=drifted.sum())
    coeffs = rng.choice([1.0, -1.0, 3e16, -3e16, 0.37, 1e-300], size=size)
    generic = rng.integers(0, 2, size=size) == 0
    coeffs[generic] = rng.uniform(-5.0, 5.0, size=generic.sum())
    return coeffs, exponents


def test_tie_heavy_raw_arrays_match_the_reference():
    rng = np.random.default_rng(25)
    for size in (2, 17, 64, 300, 3000):
        for _ in range(20):
            coeffs, exponents = _tie_heavy(rng, size)
            want = reference_normalize(zip(coeffs.tolist(), exponents.tolist()))
            got = from_arrays(coeffs, exponents)
            assert _terms(got) == want
            assert [math.copysign(1.0, e) for e in got.exponents.tolist()] == [
                math.copysign(1.0, e) for _, e in want]


def test_non_finite_exponents_among_ties_are_named_like_the_reference():
    rng = np.random.default_rng(26)
    for size in (3, 40, 500):
        for _ in range(30):
            coeffs, exponents = _tie_heavy(rng, size)
            for i in rng.integers(0, size, size=int(rng.integers(1, 4))):
                exponents[i] = rng.choice([np.nan, np.inf, -np.inf])
            with pytest.raises(NonFiniteTerm) as want:
                reference_normalize(zip(coeffs.tolist(), exponents.tolist()))
            with pytest.raises(NonFiniteTerm) as got:
                from_arrays(coeffs, exponents)
            assert str(got.value) == str(want.value)


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
    # Still no merge and no drop: near-equal exponents and a zero coefficient stay.
    raw = ((1.0, 0.0), (1e-300, 1e-13), (0.0, 1.0))
    assert GPSeries(raw).terms == raw


@pytest.mark.parametrize("coeff,exponent", [(math.inf, 0.5), (1.0, math.nan)])
def test_a_monomial_must_be_finite(coeff, exponent):
    with pytest.raises(NonFiniteTerm, match=rf"^term \({coeff!r}, {exponent!r}\) is not finite$"):
        GPSeries.monomial(coeff, exponent)


def test_equal_series_hash_equal_and_compare_unequal_to_a_number():
    a, b = GPSeries.monomial(2.0, 0.5), normalize([(1.0, 0.5), (1.0, 0.5)])
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    # a number is not a series: __eq__ returns NotImplemented, and Python then compares ids
    assert GPSeries.__eq__(GPSeries.constant(1.0), 1.0) is NotImplemented
    assert (GPSeries.constant(1.0) == 1.0) is False and (1.0 == GPSeries.constant(1.0)) is False


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


# --- the tolerance band: no exponent gap lies near the merge tolerance -------------------


def _non_dyadic_points(count: int, seed: int = 2211) -> list[tuple[int, float, float]]:
    """The two non-dyadic baseline rows, then seeded (family, alpha, beta) points of families 1-3
    with 4-digit alphas in [0, 0.9] that are no multiple of 1/16 and betas in [1, 3.5]."""
    rng, points = random.Random(seed), [(1, 0.6056, 1.771), (2, 0.8136, 1.0)]
    while len(points) < count:
        family, alpha = 1 + len(points) % 3, round(rng.uniform(0.0, 0.9), 4)
        beta = round(rng.uniform(1.0, 3.5), 4)
        if alpha * 16 % 1 != 0:
            points.append((family, alpha, 1.0 if family == 2 else beta))
    return points


def test_no_gap_the_kernel_sees_lies_in_the_band_around_the_merge_tolerance(monkeypatch):
    # Every gap the kernel joins is rounding noise, and every gap it keeps is a real exponent
    # step: a gap between 1e-13 and 1e-6 would make psi depend on where the tolerance sits.
    joined, kept, merged = [0.0], [math.inf], series._merged

    def hooked(coeffs, exponents):
        gaps = np.diff(np.sort(exponents))
        joined.append(np.max(gaps[gaps <= EXPONENT_MERGE_TOL], initial=0.0))
        kept.append(np.min(gaps[gaps > EXPONENT_MERGE_TOL], initial=math.inf))
        return merged(coeffs, exponents)

    monkeypatch.setattr(series, "_merged", hooked)
    for point in _non_dyadic_points(10):
        solve(benchmark_problem(*point), 20)
    assert max(joined) <= 1e-13 and min(kept) >= 1e-6, (max(joined), min(kept))


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

# Each series is drawn flat, as one integer, and built by numpy: drawn term
# by term through nested strategies, the series took most of this test's
# time.  Exponents come from a few values with drift inside and just past the
# merge tolerance, so products of two factors often land within it of each
# other.  Wide series have enough distinct exponents that a product of two
# has hundreds of raw terms.
_DRIFTS = np.array([0.0, 0.4, 0.7, 1.0, -1.0, 3.0]) * EXPONENT_MERGE_TOL
_NARROW = np.add.outer([-0.5, 0.0, 0.5, 1.0, 2.375], _DRIFTS).ravel()
_WIDE = np.add.outer(np.arange(-4, 41) / 8, _DRIFTS).ravel()
_SPECIAL = [0.0, 1.0, 1e-300, 3e16]  # 3e16 + 1 - 3e16 depends on the order


@functools.lru_cache(maxsize=None)
def _series(draw):
    """One of six kinds of series, picked by ``draw % 6`` and seeded by ``draw // 6``.

    Zero; a constant; a narrow series of 1-6 raw terms whose coefficients mix
    generic floats in [-10, 10], special values and values near -1e300 and
    1e300 at equal odds; two kinds of narrow series of generic floats alone,
    whose products merge terms without one coefficient pruning the rest; and
    a wide series of 17-48 raw terms of generic floats.
    """
    seed, kind = divmod(draw, 6)
    rng = np.random.default_rng(seed)
    if kind == 0:
        return GPSeries.zero()
    if kind == 1:
        return GPSeries.constant(rng.choice([1.0, -1.0, 0.37, 1e300]))
    pool, size = (_WIDE, rng.integers(17, 49)) if kind == 5 else (_NARROW, rng.integers(1, 7))
    coeffs = rng.uniform(-10.0, 10.0, size)
    if kind == 2:
        branch, huge = rng.integers(0, 4, size), rng.uniform(1e299, 1e300, size)
        coeffs = np.select([branch == 1, branch == 2, branch == 3],
                           [rng.choice(_SPECIAL, size), -huge, huge], coeffs)
    return from_arrays(coeffs, rng.choice(pool, size))


@functools.lru_cache(maxsize=None)
def _weight(draw):
    """0, 1, -1 or 1e8 for an even ``draw``, a generic float in [-1e3, 1e3] for an odd one.

    1e8 takes two coefficients near 1e300 to a merged sum past the largest float.
    """
    if draw % 2 == 0:
        return [0.0, 1.0, -1.0, 1e8][draw // 2 % 4]
    return float(np.random.default_rng(draw).uniform(-1e3, 1e3))


_SERIES = st.integers(0, 6 * 4096 - 1).map(_series)
_WEIGHTS = st.integers(0, 4095).map(_weight)


def _reference_sum(raw):
    """reference_normalize, raising where the kernel reports a merged overflow."""
    terms = reference_normalize(raw)
    if not all(math.isfinite(c) for c, _ in terms):
        raise NonFiniteTerm("a merged coefficient overflows")
    return terms


def _fused_oracle(parts, products):
    """The weighted sum with its raw products joining it unmerged, term by term.

    Parts and products of weight 0, and products with a zero factor, are
    skipped.  The reference normalizes the weighted terms of the live parts,
    then the weighted raw terms of each product in order, once, so that its
    errors name the first non-finite term among them.
    """
    weighted = [(w * c, e) for w, s in parts if w != 0.0 for c, e in _terms(s)]
    for w, a, b in products:
        if w == 0.0 or a.is_zero or b.is_zero:
            continue
        weighted += [(w * (ca * cb), ea + eb) for ca, ea in _terms(a) for cb, eb in _terms(b)]
    return _reference_sum(weighted)


def _nested_oracle(parts, products):
    """The weighted sum with each product normalized on its own first: the contract before."""
    normalized = [
        (w, GPSeries(_reference_sum(
            [(ca * cb, ea + eb) for ca, ea in _terms(a) for cb, eb in _terms(b)])))
        for w, a, b in products
    ]
    return _fused_oracle([*parts, *normalized], [])


def _assert_combine_matches(parts, products, want):
    got = combine(iter(parts), iter(products))
    assert got.coeffs.tolist() == [c for c, _ in want]
    assert got.exponents.tolist() == [e for _, e in want]


_CANCELLING = (GPSeries([(3e16, 0.0), (-3e16, 0.25)]), GPSeries([(1.0, 0.25), (1.0, 0.5)]))


@settings(max_examples=400, deadline=None)
@given(
    parts=st.lists(st.tuples(_WEIGHTS, _SERIES), max_size=3),
    products=st.lists(st.tuples(_WEIGHTS, _SERIES, _SERIES), max_size=4),
)
@example(  # the sum adds parts, then products, in order: (1 + 3e16) - 3e16 is 0
    parts=[(1.0, GPSeries.monomial(1.0, 0.5))],
    products=[(w, GPSeries.constant(3e16), GPSeries.monomial(1.0, 0.5)) for w in (1.0, -1.0)],
)
@example(  # the product's 3e16 and -3e16 at x^0.5 join the part's 1 unmerged: 0, not 1
    parts=[(1.0, GPSeries([(-3e16, 0.25), (1.0, 0.5), (3e16, 0.75)]))],
    products=[(1.0, *_CANCELLING)],
)
def test_combine_with_products_matches_the_fused_oracle(parts, products):
    try:
        want = _fused_oracle(parts, products)
    except NonFiniteTerm as err:
        with pytest.raises(NonFiniteTerm) as got:
            combine(iter(parts), iter(products))
        assert str(got.value) == str(err)
        return
    _assert_combine_matches(parts, products, want)


def test_the_cancelling_example_tells_the_fused_sum_from_the_nested_one():
    parts = [(1.0, GPSeries([(-3e16, 0.25), (1.0, 0.5), (3e16, 0.75)]))]
    assert _fused_oracle(parts, [(1.0, *_CANCELLING)]) == []
    assert _nested_oracle(parts, [(1.0, *_CANCELLING)]) == [(1.0, 0.5)]


@pytest.mark.parametrize("others", ["part", "alone", "beside_zero_weight"])
@pytest.mark.parametrize("rows", [16, 17, 100, DEFAULT_TERM_CAP // 16])
def test_a_product_joins_the_sum_raw_up_to_fused_product_terms(rows, others):
    # A product of any size up to DEFAULT_TERM_CAP raw terms joins the sum
    # unmerged: 16 x 16 and 17 x 16 straddle the former 256-term threshold,
    # which no longer holds.  Also when the product is the sum's only piece or
    # stands beside a product of weight 0, which is skipped.  Normalizing each
    # product on its own first gives other bits here.
    rng = np.random.default_rng(rows)
    a = from_arrays(rng.uniform(-1.0, 1.0, rows), np.arange(float(rows)))
    b = from_arrays(rng.uniform(-1.0, 1.0, 16), np.arange(16.0))
    part = from_arrays(rng.uniform(-1.0, 1.0, 32), np.arange(32.0))
    parts, products = {
        "part": ([(0.37, part)], [(0.3, a, b)]),
        "alone": ([], [(0.3, a, b)]),
        "beside_zero_weight": ([], [(0.0, part, part), (0.3, a, b)]),
    }[others]
    want = _fused_oracle(parts, products)
    _assert_combine_matches(parts, products, want)
    assert want != _nested_oracle(parts, products)


def test_a_raw_product_left_alone_is_still_normalized():
    # the first product underflows to nothing in the sum's one merge, beside the second
    tiny = from_arrays(np.full(17, 1e-200), np.arange(17, dtype=float))
    a, b = GPSeries([(1.0, 0.0), (2.0, 1.0)]), GPSeries([(3.0, 0.0), (4.0, 1.0)])
    got = combine((), [(1.0, tiny, tiny), (1.0, a, b)])
    assert _terms(got) == [(3.0, 0.0), (10.0, 1.0), (8.0, 2.0)]


def _powers(count):
    return from_arrays(np.ones(count), np.arange(count, dtype=float))


def test_an_overflowing_product_before_a_wide_one_is_a_term_blowup():
    # the cap is checked before any term's value is looked at
    big, wide = GPSeries.monomial(1e200, 0.5), _powers(101)
    with pytest.raises(TermBlowup) as err:
        combine((), [(1.0, big, big), (1.0, wide, wide)])
    assert str(err.value) == f"product of 101 x 101 terms exceeds cap {DEFAULT_TERM_CAP}"


def test_a_wide_product_before_an_overflowing_one_is_a_term_blowup():
    big, wide = GPSeries.monomial(1e200, 0.5), _powers(101)
    with pytest.raises(TermBlowup) as err:
        combine((), [(1.0, wide, wide), (1.0, big, big)])
    assert str(err.value) == f"product of 101 x 101 terms exceeds cap {DEFAULT_TERM_CAP}"


# The kernel is given the weighted parts, then the weighted raw products in order, and
# names the first non-finite term among them.
_BIG = GPSeries.monomial(1e200, 0.5)  # squared: the raw term (inf, 1.0)


@pytest.mark.parametrize("wide", ["merged", "pruned"])
def test_an_overflowing_product_before_a_wide_one_that_overflows_names_the_error(wide):
    # wide: hundreds of raw terms, every one of them not finite
    a, b = {
        "merged": (from_arrays(np.full(17, 1e200), np.arange(17.0)),) * 2,
        "pruned": (GPSeries.constant(1e200), from_arrays(np.full(300, 1e200), np.arange(300.0))),
    }[wide]
    with pytest.raises(NonFiniteTerm, match=r"^term \(inf, 0\.0\) is not finite$"):
        combine([(1.0, _BIG)], [(1.0, a, b)])
    with pytest.raises(NonFiniteTerm, match=r"^term \(inf, 1\.0\) is not finite$"):
        combine((), [(1.0, _BIG, _BIG), (1.0, a, b)])


def test_a_product_of_weight_0_is_skipped_before_it_is_formed():
    # so neither its overflow nor its size past the cap is an error
    part, wide = GPSeries.monomial(2.0, 0.5), _powers(101)
    assert combine([(1.0, part)], [(0.0, _BIG, _BIG)]) == part
    assert combine([(1.0, part)], [(-0.0, wide, wide), (1.0, part, GPSeries.zero())]) == part


@pytest.mark.parametrize("factor,named",
                         [(_BIG, "-inf, 1.0"), (GPSeries.monomial(1.0, 1e308), "-1.0, inf")],
                         ids=["coefficient", "exponent"])
def test_an_overflowing_part_names_the_error_before_an_overflowing_product(factor, named):
    part = (1e300, GPSeries.monomial(1e300, 0.25))  # its weighted coefficient overflows
    with pytest.raises(NonFiniteTerm, match=r"^term \(inf, 0\.25\) is not finite$"):
        combine([part], [(-1.0, factor, factor)])
    # with a finite part, the product's first non-finite weighted term is named
    with pytest.raises(NonFiniteTerm) as err:
        combine([(1.0, GPSeries.monomial(2.0, 0.25))], [(-1.0, factor, factor)])
    assert str(err.value) == f"term ({named}) is not finite"


def test_finite_raw_terms_whose_sum_overflows_are_a_merged_overflow():
    half = GPSeries.monomial(1e154, 0.25)  # squared: 1e308 at x^0.5, finite
    with pytest.raises(NonFiniteTerm, match="^a merged coefficient overflows$"):
        combine([(1.0, GPSeries.monomial(1e308, 0.5))], [(1.0, half, half)])


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
            report = solve(benchmark_problem(example, alpha, beta), 10)
            for m in range(1, 11):
                psi = partial_sum(report, m)
                grid = evaluate_many(psi, xs)
                assert [evaluate(psi, x) for x in xs[::40].tolist()] == grid[::40].tolist()
                widest = max(widest, psi, key=len)
    assert [evaluate(widest, x) for x in xs.tolist()] == evaluate_many(widest, xs).tolist()


def _term_by_term(a, xs):
    """One series on a grid as evaluate_many first defined it: c * xs**e per term, from 0.0."""
    xs = np.asarray(xs, dtype=float)
    outside = ~(xs >= 0.0)
    if outside.any():
        raise DomainError(f"series are evaluated at x >= 0, got x = {xs[outside][0]:g}")
    has_zero = not xs.all()
    if has_zero and len(a) and a.exponents[0] < -EXPONENT_MERGE_TOL:
        raise DomainError(f"x^{a.exponents[0]:g} is singular at x = 0")
    out = np.zeros_like(xs)
    for c, e in zip(a.coeffs.tolist(), a.exponents.tolist()):
        if has_zero and 0.0 < abs(e) <= EXPONENT_MERGE_TOL:
            out += c * np.power(xs, e, out=np.ones_like(xs), where=xs > 0.0)
        else:
            out += c * xs ** e
    return out


# Shared exponents, pairs less than EXPONENT_MERGE_TOL apart, and |e| <= the tolerance.
_EXPONENTS = st.sampled_from(
    [-0.5, -1e-13, 0.0, 1e-13, 0.25, 0.25 + 4e-13, 0.5, 0.5 - 1e-13, 1.0, 2.0, 2.0 + 5e-13]
) | st.floats(-0.6, 4.0)
_EVALUATED = st.lists(
    st.tuples(st.floats(-10.0, 10.0), _EXPONENTS), max_size=8, unique_by=lambda t: t[1]
).map(lambda terms: GPSeries(sorted(terms, key=lambda t: t[1])))
_POINTS = st.sampled_from([0.0, 0.001, 0.3, 0.5, 1.0, 2.5, -0.25, math.nan]) | st.floats(0.0, 3.0)


# The nine partial sums of a table of three commensurate alphas share most exponents.
_TABLE_SUMS = [partial_sum(solve(benchmark_problem(1, alpha, 3.5), 10), n)
               for alpha in (0.25, 0.5, 0.75) for n in (5, 8, 10)]


@settings(max_examples=300, deadline=None)
@given(many=st.lists(_EVALUATED, min_size=1, max_size=9),
       xs=st.lists(_POINTS, min_size=1, max_size=6))
@example(many=[GPSeries([(1.0, 0.5), (2.0, 1.0)]), GPSeries([(3.0, 0.5), (-1.0, 1.0), (0.5, 2.0)])],
         xs=[0.3, 0.7, 1.0])  # shared exponents
@example(many=[GPSeries([(1.0, 0.5)]), GPSeries([(1.0, 0.5 + 4e-13)])],
         xs=[0.3, 0.7])  # two exponents closer than the merge tolerance take two powers
@example(many=[GPSeries([(2.0, 1e-13), (1.0, 0.5)])], xs=[0.0, 0.25])  # 0**1e-13 := 1
@example(many=[GPSeries([(1.0, 0.5)]), GPSeries([(1.0, -0.5)]), GPSeries([(1.0, -0.25)])],
         xs=[0.5, 0.0])  # the first singular series names the error
@example(many=_TABLE_SUMS, xs=[0.0, 0.001, 0.3, 1.0])
def test_evaluate_each_is_each_series_term_by_term(many, xs):
    xs = np.array(xs)
    try:
        want = [_term_by_term(a, xs).tobytes() for a in many]
    except DomainError as err:
        with pytest.raises(DomainError, match=f"^{re.escape(str(err))}$"):
            series.evaluate_each(many, xs)
        return
    assert [values.tobytes() for values in series.evaluate_each(iter(many), xs)] == want
    assert [evaluate_many(a, xs).tobytes() for a in many] == want


def test_the_value_at_one_adds_left_to_right_from_zero():
    # a compensated sum, such as the builtin sum from Python 3.12 on, gives 1.0000000000000002
    a = GPSeries([(1.0, 0.0), (1e-16, 0.5), (1e-16, 1.0)])
    assert series.at_one(a) == 1.0 == evaluate(a, 1.0)
    assert series.at_one(GPSeries.zero()) == 0.0


# --- display ---------------------------------------------------------------------


def test_format_series_layout():
    s = normalize([Term(0.0268564, 0.5), Term(-0.25, 1.0)])
    assert format_series(s) == "2.6856400000e-02*x^0.5 + -2.5000000000e-01*x^1"


def test_format_zero():
    assert format_series(GPSeries.zero()) == "0"
