"""The ordered paths against the kernel calls they replace, bit for bit.

``apply_inverse``, the solver's step from A_k to y_(k+1), a lone product by one
term in ``series.combine`` and ``series.differentiate`` list their terms in
exponent order and skip the kernel's sort.  Each reference here is the kernel
call that the path replaced, so a result must match it in every bit.  An error
must match in class and message that of the kernel of the arrays the path
builds, which names their first non-finite term.
"""

import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from adomian_bvp import series
from adomian_bvp.benchmarks import benchmark_problem
from adomian_bvp.errors import (
    AdmError,
    Divergent,
    InvalidProblem,
    LogResonance,
    NonFiniteTerm,
    OuterResonance,
)
from adomian_bvp.expressions import Tape, parse
from adomian_bvp.series import (
    DEFAULT_TERM_CAP,
    EXPONENT_MERGE_TOL,
    GPSeries,
    at_one,
    combine,
    differentiate,
    from_arrays,
    from_ordered,
    mul,
    normalize,
)
from adomian_bvp.singular_operator import OperatorContext, apply_inverse, h_series
from adomian_bvp.solver import Problem, _next, solve


def raw_image(ctx, g):
    """The raw image as ``apply_inverse`` listed it for the kernel: x^(1-alpha) term first."""
    r = g.exponents + ctx.sigma
    coeffs, exponents = np.empty(2 * len(g)), np.empty(2 * len(g))
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs[0::2] = g.coeffs / ((r + 1.0) * (1.0 - ctx.alpha))
        coeffs[1::2] = -g.coeffs / ((r + 1.0) * (r + 2.0 - ctx.alpha))
    exponents[0::2] = 1.0 - ctx.alpha
    exponents[1::2] = r + 2.0 - ctx.alpha
    return coeffs, exponents


def kernel_image(ctx, g):
    """The kernel of the raw image; where it fails, the kernel of the arrays apply_inverse
    builds: the tails in exponent order and the x^(1-alpha) terms summed from 0.0, in order."""
    if not len(g):
        return g
    coeffs, exponents = raw_image(ctx, g)
    try:
        return from_arrays(coeffs, exponents)
    except NonFiniteTerm:
        head = 0.0
        for c in coeffs[0::2].tolist():
            head += c
        image = [(head, 1.0 - ctx.alpha), *zip(coeffs[1::2].tolist(), exponents[1::2].tolist())]
        return normalize(sorted(image, key=lambda term: term[1]))


def kernel_assembly(H, image, w, c):
    return combine(zip((w, -1.0, c), (H, image, H)))


def ordered_step(ctx, g, alpha1, D, c):
    """The solver's step y_(k+1), and the y' of it that the next step reads."""
    y = _next(ctx, h_series(ctx), g, alpha1, D, c)
    return y, differentiate(y)


def kernel_product(a, b, w=1.0):
    """combine((), ((w, a, b),)) as the kernel of the arrays it builds: the weighted raw outer
    product, its exponents + 0.0 where a product by one term of weight 1 is shifted in order."""
    shifted = w == 1.0 and 1 in (len(a), len(b))
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.multiply.outer(a.coeffs, b.coeffs).ravel()
        e = np.add.outer(a.exponents, b.exponents).ravel()
        return from_arrays(w * c, e + 0.0 if shifted else e)


def kernel_derivative(a):
    live = np.abs(a.exponents) > EXPONENT_MERGE_TOL
    with np.errstate(over="ignore", invalid="ignore"):
        return from_arrays(a.coeffs[live] * a.exponents[live], a.exponents[live] - 1.0)


def masked_derivative(a):
    """``differentiate`` as it stood before it skipped its mask: the live terms in order."""
    live = np.abs(a.exponents) > EXPONENT_MERGE_TOL
    with np.errstate(over="ignore", invalid="ignore"):
        return from_ordered(a.coeffs[live] * a.exponents[live], a.exponents[live] - 1.0)


def assert_same(got, want):
    """got() is want() in every bit, a series or a tuple of them, or raises the error that
    want() raises."""
    try:
        expected = want()
    except AdmError as err:
        with pytest.raises(type(err)) as raised:
            got()
        assert str(raised.value) == str(err)
        return
    result = got()
    pairs = zip(result, expected) if isinstance(expected, tuple) else ((result, expected),)
    for r, e in pairs:
        assert r.coeffs.tobytes() == e.coeffs.tobytes()
        assert r.exponents.tobytes() == e.exponents.tobytes()


_COEFFS = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([1e300, -1e307, 5e-324, -1e-310, 1e16, -1e16]),
)
_EXPONENTS = st.one_of(st.floats(-1.9, 6.0), st.integers(-7, 24).map(lambda k: k / 4))
_MERGED = st.lists(st.tuples(_COEFFS, _EXPONENTS), max_size=12).map(normalize)
_WEIGHTS = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e308]))
_CONTEXTS = st.builds(OperatorContext, st.floats(0.0, 0.99), st.floats(-1.0, 1.0))

# heads 1, 1e16 and -1e16 at alpha = sigma = 0: their sum is 0 from the left, 1 from the right
_ORDER_MATTERS = GPSeries([(1.0, 0.0), (2e16, 1.0), (-4e16, 3.0)])
# two of these make a product that no single term shifts
_TWO_TERMS = GPSeries([(1.0, 0.0), (3.0, 0.25)])
# and their product by each other overflows at x^-0.0, which only the kernel names as -0.0
_SIGNED_TWO_TERMS = GPSeries([(1e200, -0.0), (1.0, 1.0)])


@settings(max_examples=500)
@given(ctx=_CONTEXTS, g=_MERGED)
@example(ctx=OperatorContext(0.0, 0.0), g=_ORDER_MATTERS)
def test_apply_inverse_is_the_kernel_of_the_interleaved_raw_image(ctx, g):
    try:
        apply_inverse(ctx, g)
    except (LogResonance, OuterResonance, Divergent):  # the screen, which is unchanged
        event("screened")
        return
    except AdmError:
        pass  # a non-finite image: its error is compared below
    assert_same(lambda: apply_inverse(ctx, g), lambda: kernel_image(ctx, g))


def kernel_step(ctx, g, alpha1, D, c):
    """The step as kernel calls alone: the kernel image, its weighted sum, and y' from it."""
    try:
        apply_inverse(ctx, g)  # the screen, which the kernel lacks, raises here
    except NonFiniteTerm:
        pass  # a non-finite image: the kernel names it below
    H, image = h_series(ctx), kernel_image(ctx, g)
    y = kernel_assembly(H, image, alpha1 * at_one(image) / D, c)
    return y, kernel_derivative(y)


_ALPHA1 = st.one_of(st.floats(1e-3, 1e3), st.sampled_from([1.0, 1e-300, 1e308]))
_D = st.one_of(st.floats(0.1, 10.0), st.sampled_from([1.0, 1e-300]))


@settings(max_examples=500)
@given(ctx=_CONTEXTS, g=_MERGED, alpha1=_ALPHA1, D=_D, c=_WEIGHTS)
@example(ctx=OperatorContext(0.0, 0.0), g=_ORDER_MATTERS, alpha1=1.0, D=2.0, c=0.0)
@example(ctx=OperatorContext(0.0, 0.0), g=_ORDER_MATTERS, alpha1=1.0, D=4.0, c=0.0)
def test_the_assembled_component_is_the_kernel_of_its_weighted_sum(ctx, g, alpha1, D, c):
    assert_same(lambda: ordered_step(ctx, g, alpha1, D, c),
                lambda: kernel_step(ctx, g, alpha1, D, c))


# tails rounded within the tolerance of each other (see the test below), and an image of
# finite terms, its x^1 coefficient the largest float, whose y' overflows at x^0.48...
_MERGING = from_arrays(np.array([1.0, 2.0]), np.array([4093.5, 4093.5000000000014]))
_STEEP = GPSeries.monomial(8.640178512962757e307, -0.5193741164492736)
_IMAGE_HEAD_OVERFLOWS = GPSeries([(1.5e308, 0.0), (1.5e308, 1.0)])  # at alpha = sigma = 0


# Each place where the step, or the y' that the next step forms of it, leaves its ordered
# path for the kernel or an error: (ctx, A_k, alpha1, D, c)
_FALLBACKS = {
    "screen": (OperatorContext(0.5, 0.0), GPSeries.monomial(1.0, -1.0), 1.0, 1.0, 0.0),
    "image_head_0": (OperatorContext(0.0, 0.0), _ORDER_MATTERS, 1.0, 2.0, 0.5),
    "image_head_not_finite": (OperatorContext(0.0, 0.0), _IMAGE_HEAD_OVERFLOWS, 1.0, 1.0, 0.0),
    # the image is 3x - 1.5x^2, so w = 2 * 1.5 / 1 and the x^1 sum is (0.0 + 3*1) - 3
    "assembled_head_0": (OperatorContext(0.0, 0.0), GPSeries.constant(3.0), 2.0, 1.0, 0.0),
    "assembled_head_not_finite": (
        OperatorContext(0.5, 0.0), GPSeries.constant(1.0), 1e308, 1e-300, 0.0),
    "image_terms_merge": (OperatorContext(0.5, 0.7), _MERGING, 1.0, 1.0, 0.0),
    "y'_overflows": (OperatorContext(0.0, 0.0), _STEEP, 1e-300, 1.0, 0.0),
    "y_exponent_within_the_tolerance_of_0": (
        OperatorContext(1.0 - 1e-13, 0.0), GPSeries.constant(1.0), 1.0, 1.0, 0.5),
}


@pytest.mark.parametrize("case", _FALLBACKS)
def test_each_fallback_of_the_step_is_the_pipeline_it_replaced(case):
    args = _FALLBACKS[case]
    assert_same(lambda: ordered_step(*args), lambda: kernel_step(*args))


def test_the_fallback_examples_leave_the_ordered_pass_where_they_are_named():
    def step(case):
        ctx, g, alpha1, D, c = _FALLBACKS[case]
        return _next(ctx, h_series(ctx), g, alpha1, D, c)

    for case, error in (("screen", LogResonance), ("image_head_not_finite", NonFiniteTerm),
                        ("assembled_head_not_finite", NonFiniteTerm)):
        with pytest.raises(error):
            step(case)
    ctx, g, *_ = _FALLBACKS["image_head_0"]
    assert 1.0 not in apply_inverse(ctx, g).exponents.tolist()
    assert 1.0 in step("image_head_0").exponents.tolist()
    assert step("assembled_head_0").terms == ((1.5, 2.0),)
    ctx, g, *_ = _FALLBACKS["image_terms_merge"]
    assert len(g) == 2 and len(apply_inverse(ctx, g)) == 2  # x^(1-alpha) and one merged tail
    y = step("y'_overflows")
    assert len(y) == 2
    with pytest.raises(NonFiniteTerm):
        differentiate(y)
    y = step("y_exponent_within_the_tolerance_of_0")
    assert y.exponents[0] <= EXPONENT_MERGE_TOL and len(differentiate(y)) == len(y) - 1
    # and a step of A_k = 0
    ctx = OperatorContext(0.5, 0.0)
    assert_same(lambda: ordered_step(ctx, GPSeries.zero(), 1.0, 1.0, 0.5),
                lambda: kernel_step(ctx, GPSeries.zero(), 1.0, 1.0, 0.5))


def test_a_y_prime_that_overflows_fails_the_next_component_and_the_last_is_never_formed():
    # A_0 is the example's (y_0' = 0): y_1 is its step, and y_1' overflows only when A_1 needs it
    ctx, g, alpha1, D, c = _FALLBACKS["y'_overflows"]
    problem = Problem(alpha=ctx.alpha, sigma=ctx.sigma,
                      f=parse("8.640178512962757e307 * x^-0.5193741164492736 + yp"),
                      eta1=0.0, alpha1=alpha1, beta1=1.0, gamma1=0.0)  # D = 1e-300 + 1.0
    assert Tape(problem.f).extend(GPSeries.constant(problem.eta1)) == g
    report = solve(problem, 2)
    assert_same(lambda: report.components[1], lambda: _next(ctx, h_series(ctx), g, alpha1, D, c))
    with pytest.raises(NonFiniteTerm,
                       match=r"^component 2: term \(inf, 0\.48062588355072644\) is not finite$"):
        solve(problem, 3)


def test_a_y_exponent_within_the_tolerance_of_0_is_refused_in_a_problem():
    # at alpha = 1 - 1e-13, y_1's x^(1-alpha) would merge with y_0.  Problem refuses it; the
    # y' of such a y_1 stays covered by the step's fallback case above and by
    # test_differentiate_skips_its_mask_only_past_the_tolerance.
    alpha = _FALLBACKS["y_exponent_within_the_tolerance_of_0"][0].alpha
    with pytest.raises(InvalidProblem,
                       match=r"^1 - alpha = 1\.00031e-13 <= merge tolerance 1e-12$"):
        Problem(alpha=alpha, sigma=0.0, f=parse("1 + yp"), eta1=0.0, alpha1=1.0, beta1=1.0,
                gamma1=0.5)


@settings(max_examples=500)
@given(a=_MERGED, b=_MERGED, p=st.one_of(st.floats(-3.0, 3.0), st.just(-0.0)), c=_COEFFS)
@example(a=_TWO_TERMS, b=_TWO_TERMS, p=0.5, c=2.0)
@example(a=_SIGNED_TWO_TERMS, b=_SIGNED_TWO_TERMS, p=0.5, c=2.0)
def test_shift_is_mul_by_the_monomial_and_differentiate_its_kernel_form(a, b, p, c):
    # a product by one term c*x^p shifts the other factor in order; any other goes to the kernel
    for one in (GPSeries.monomial(1.0, p), GPSeries.monomial(c, p), b):
        assert_same(lambda: mul(one, a), lambda: kernel_product(one, a))
        assert_same(lambda: mul(a, one), lambda: kernel_product(a, one))
    assert_same(lambda: differentiate(a), lambda: kernel_derivative(a))


@settings(max_examples=500)
@given(a=_MERGED, b=_MERGED, p=_EXPONENTS, c=_COEFFS,
       w=st.sampled_from([1.0, -2.0, 0.5, 1e300]))
def test_a_lone_product_through_combine_is_the_kernel_of_its_raw_product(a, b, p, c, w):
    # weight 1 keeps a product by one term in order; any other weight stays on the kernel
    for one in (GPSeries.monomial(c, p), b):
        assert_same(lambda: combine((), ((w, one, a),)), lambda: kernel_product(one, a, w))
        assert_same(lambda: combine((), ((w, a, one),)), lambda: kernel_product(a, one, w))


_JUST_PAST = float(np.nextafter(EXPONENT_MERGE_TOL, 1.0))


@pytest.mark.parametrize("exponents, drops", [
    ((0.5 * EXPONENT_MERGE_TOL, 0.5, 2.0), 1),  # a first exponent below the tolerance
    ((EXPONENT_MERGE_TOL, 0.5, 2.0), 1),  # at it
    ((_JUST_PAST, 0.5, 2.0), 0),  # just past it: no term is constant, and no mask is made
    ((-1.5, -0.5, 3.0), 0),  # negative exponents
    ((-EXPONENT_MERGE_TOL, 0.25), 1),  # a negative first exponent within the tolerance of 0
    ((2e-12, 2.5e-12, 4.0), 1),  # two exponents within the tolerance: their derivatives merge
    ((0.3, 0.300000000001), 1),  # 1.00003e-12 apart, 9.9998e-13 once 1 is subtracted
])
def test_differentiate_skips_its_mask_only_past_the_tolerance(exponents, drops):
    a = GPSeries(zip((1.5, -2.0, 3.0), exponents))
    assert_same(lambda: differentiate(a), lambda: masked_derivative(a))
    assert_same(lambda: differentiate(a), lambda: kernel_derivative(a))
    assert len(differentiate(a)) == len(a) - drops


# --- where an ordered path hands its terms to the kernel -----------------------------


def test_exponents_rounded_within_the_tolerance_merge_as_in_the_kernel():
    # the exponents of g are 1.36e-12 apart; their tails, rounded at 4096, 9.1e-13
    ctx, g = OperatorContext(0.5, 0.7), from_arrays(np.array([1.0, 2.0]),
                                                    np.array([4093.5, 4093.5000000000014]))
    assert len(g) == 2
    image = apply_inverse(ctx, g)
    assert len(image) == 2  # x^(1-alpha) and one merged tail
    assert_same(lambda: image, lambda: kernel_image(ctx, g))
    # 1.00003e-12 apart, 9.9998e-13 once 1 is subtracted or 0.3 added
    a = from_arrays(np.array([1.0, 2.0]), np.array([0.3, 0.300000000001]))
    assert len(a) == 2 and len(differentiate(a)) == 1
    assert_same(lambda: differentiate(a), lambda: kernel_derivative(a))
    x_03 = GPSeries.monomial(1.0, 0.3)
    assert len(mul(x_03, a)) == 1
    assert_same(lambda: mul(x_03, a), lambda: kernel_product(x_03, a))
    assert_same(lambda: mul(a, x_03), lambda: kernel_product(a, x_03))


def test_an_x_1_alpha_sum_of_0_is_dropped_and_the_assembly_puts_one_back():
    ctx, H = OperatorContext(0.0, 0.0), h_series(OperatorContext(0.0, 0.0))
    image = apply_inverse(ctx, _ORDER_MATTERS)
    assert 1.0 not in image.exponents.tolist()
    assert_same(lambda: image, lambda: kernel_image(ctx, _ORDER_MATTERS))
    y = _next(ctx, H, _ORDER_MATTERS, 1.0, 2.0, 0.5)
    w = at_one(image) / 2.0
    assert y.terms[0] == ((0.0 + w) + 0.5, 1.0)
    assert_same(lambda: y, lambda: kernel_assembly(H, image, w, 0.5))
    # and a sum of exactly 0 in the assembly drops the image's x^(1-alpha) term
    y = _next(ctx, H, GPSeries.constant(3.0), 2.0, 1.0, 0.0)  # h = 1: (0.0 + 3*1) - 3 = 0
    assert 1.0 not in y.exponents.tolist()
    image = apply_inverse(ctx, GPSeries.constant(3.0))
    assert_same(lambda: y, lambda: kernel_assembly(H, image, 2.0 * at_one(image), 0.0))


def test_an_underflowing_coefficient_is_dropped_as_the_kernel_drops_it():
    ctx, g = OperatorContext(0.5, 0.0), GPSeries([(1.0, 0.0), (5e-324, 3.0)])
    assert len(apply_inverse(ctx, g)) == 2  # the tiny term's head and tail are 0
    assert_same(lambda: apply_inverse(ctx, g), lambda: kernel_image(ctx, g))
    a = GPSeries([(5e-324, 0.5), (1.0, 2.0)])
    assert differentiate(a).terms == ((2.0, 1.0),)
    assert_same(lambda: differentiate(a), lambda: kernel_derivative(a))
    tiny = GPSeries.monomial(1e-300, 0.25)
    assert mul(tiny, GPSeries([(1e-300, 0.0), (1.0, 1.0)])).terms == ((1e-300, 1.25),)
    assert_same(lambda: mul(tiny, tiny), lambda: kernel_product(tiny, tiny))


def test_an_overflow_names_the_first_term_that_the_kernel_is_given():
    # raw: (h0, 0.5), (t0, 0.05), (-inf, 0.5), (inf, 0.1); the kernel is given the image in
    # exponent order, (t0, 0.05), (inf, 0.1), (-inf, 0.5), where 0.1 is 0.10000000000000009
    ctx, g = OperatorContext(0.5, 0.0), GPSeries([(1.0, -1.45), (1e308, -1.4)])
    with pytest.raises(AdmError, match=r"^term \(inf, 0\.10000000000000009\) is not finite$"):
        apply_inverse(ctx, g)
    assert_same(lambda: apply_inverse(ctx, g), lambda: kernel_image(ctx, g))
    # x^(1-alpha) terms that overflow only once summed make one term, which the kernel names
    ctx_0, g = OperatorContext(0.0, 0.0), GPSeries([(1.5e308, 0.0), (1.5e308, 1.0)])
    with pytest.raises(AdmError, match=r"^term \(inf, 1\.0\) is not finite$"):
        apply_inverse(ctx_0, g)
    assert_same(lambda: apply_inverse(ctx_0, g), lambda: kernel_image(ctx_0, g))
    big = GPSeries.monomial(1e200, 0.5)
    with pytest.raises(AdmError, match=r"^term \(inf, 1\.0\) is not finite$"):
        mul(big, big)
    assert_same(lambda: mul(big, big), lambda: kernel_product(big, big))
    # the raw exponent -0.0 + -0.0 is -0.0, shifted to +0.0 before the kernel sees it
    signed = GPSeries.monomial(1e200, -0.0)
    with pytest.raises(AdmError, match=r"^term \(inf, 0\.0\) is not finite$"):
        mul(signed, signed)
    assert_same(lambda: mul(signed, signed), lambda: kernel_product(signed, signed))
    steep = GPSeries.monomial(1e308, 10.0)
    with pytest.raises(AdmError, match=r"^term \(inf, 9\.0\) is not finite$"):
        differentiate(steep)
    H, image = h_series(ctx), apply_inverse(ctx, GPSeries.constant(1.0))
    with pytest.raises(AdmError, match=r"^term \(inf, 0\.5\) is not finite$"):
        _next(ctx, H, GPSeries.constant(1.0), 1e308, 1e-300, 0.0)  # w = inf
    assert_same(lambda: _next(ctx, H, GPSeries.constant(1.0), 1e308, 1e-300, 0.0),
                lambda: kernel_assembly(H, image, math.inf, 0.0))


@pytest.mark.filterwarnings("error")
def test_an_exponent_span_past_the_largest_float_warns_of_nothing():
    # the derivative's gap and the kernel's gaps overflow; neither check may warn
    assert differentiate(GPSeries([(1.0, -1e308), (1.0, 1e308)])).terms == (
        (-1e308, -1e308), (1e308, 1e308))
    # ... nor the kernel's test of joined gaps, with one gap past the largest float
    exponents = np.array([-1e308, 1e308, 1e308])
    assert from_arrays(np.array([1.0, 2.0, 3.0]), exponents).terms == ((1.0, -1e308), (5.0, 1e308))


@pytest.mark.parametrize("family, alpha, beta, calls", [
    (1, 0.5, 3.5, 10), (2, 0.5, 1.0, 10), (3, 0.5, 2.5, 11), (1, 0.3719, 2.1234, 10)])
def test_a_solve_reaches_the_kernel_only_for_the_sums_that_merge(
        monkeypatch, family, alpha, beta, calls):
    # A_k's Cauchy sums and psi's sum: the step from A_k to y_(k+1), and y', sort nothing.
    # Families 1 and 2 have one Cauchy sum per step, exp(y)'s: their Euler node sorts nothing.
    merged, count = series._merged, []

    def counting(coeffs, exponents):
        count.append(len(coeffs))
        return merged(coeffs, exponents)

    monkeypatch.setattr(series, "_merged", counting)
    solve(benchmark_problem(family, alpha, beta), 12)
    assert len(count) == calls


def test_a_shift_past_the_term_cap_is_the_term_blowup_of_mul():
    huge = from_arrays(np.ones(DEFAULT_TERM_CAP + 1), np.arange(DEFAULT_TERM_CAP + 1.0))
    x = GPSeries.monomial(1.0, 1.0)
    for a, b, sizes in ((x, huge, f"1 x {len(huge)}"), (huge, x, f"{len(huge)} x 1")):
        with pytest.raises(AdmError, match=f"^product of {sizes} terms exceeds cap "):
            mul(a, b)
    at_cap = from_arrays(np.ones(DEFAULT_TERM_CAP), np.arange(float(DEFAULT_TERM_CAP)))
    assert_same(lambda: mul(x, at_cap), lambda: kernel_product(x, at_cap))
    assert_same(lambda: mul(at_cap, x), lambda: kernel_product(at_cap, x))
    assert mul(GPSeries.zero(), huge).is_zero


def test_a_weighted_lone_product_stays_on_the_kernel_and_names_the_weighted_term():
    # x^0.5 times two terms, weighted -2, has the bits of -2 times its raw product ...
    x_05 = GPSeries.monomial(1.0, 0.5)
    assert combine((), ((-2.0, x_05, _TWO_TERMS),)).terms == ((-2.0, 0.5), (-6.0, 0.75))
    # ... and an overflow names the weighted term (-inf, 1.0) that the kernel is given
    big, wide = GPSeries.monomial(1e200, 0.5), GPSeries([(1.0, 0.0), (1e200, 0.5)])
    for a, b in ((big, big), (big, wide), (wide, big)):
        with pytest.raises(AdmError, match=r"^term \(-inf, 1\.0\) is not finite$"):
            combine((), ((-2.0, a, b),))
        assert_same(lambda: combine((), ((-2.0, a, b),)), lambda: kernel_product(a, b, -2.0))
    # ... with its exponent as the raw product has it, -0.0 + -0.0 = -0.0
    signed = GPSeries.monomial(1e200, -0.0)
    with pytest.raises(AdmError, match=r"^term \(-inf, -0\.0\) is not finite$"):
        combine((), ((-2.0, signed, signed),))
