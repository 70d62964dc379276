"""The residual identity: an end-to-end oracle of the solve for any f.

Write L u = (x^alpha u')'.  Each component solves L y_(k+1) = x^sigma A_k, and
L h = 0, so every partial sum solves a linear problem that it determines:

    L psi_m = x^sigma (A_0 + ... + A_(m-2)),   psi_m(0) = eta1,
    alpha1 psi_m(1) + beta1 psi_m'(1) = gamma1   (m >= 2),

with the A_k recomputed here from the components by a fresh tape.  The series
side holds whatever the A_k are, so it checks the inverse, the assembly and
the partial sums, not the tape; L is blind to multiples of h, which the
boundary conditions pin.  When f is affine in (y, yp), f(psi_n) is
A_0 + ... + A_(n-1), so on a grid residual(psi_n) = -x^sigma A_(n-1): that
checks the tape too.
"""

from dataclasses import replace

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from support import adomian_polynomials

from adomian_bvp import series as gps
from adomian_bvp.benchmarks import benchmark_problem
from adomian_bvp.diagnostics import residual
from adomian_bvp.errors import AdmError
from adomian_bvp.expressions import Add, Constant, Div, Mul, Neg, Sub, eval_real, parse
from adomian_bvp.series import (
    EXPONENT_MERGE_TOL,
    PRUNE_REL_THRESHOLD,
    GPSeries,
    differentiate,
    evaluate,
)
from adomian_bvp.singular_operator import OperatorContext, apply_forward, apply_inverse
from adomian_bvp.solver import Problem, solve

EPS = np.finfo(float).eps
DRIFT = 1e3 * EXPONENT_MERGE_TOL
GRID = 64

ALPHAS = st.one_of(st.sampled_from([0.0, 0.1234, 0.25, 0.3719, 0.5, 0.75]), st.floats(0.0, 0.9))
FAMILIES = st.builds(benchmark_problem, st.sampled_from([1, 2, 3]), ALPHAS,
                     st.sampled_from([1.0, 2.5, 3.5]))
ETA1 = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([1e-20, -1e-300]))


def _robin(problems):
    """The problems with Robin data at x = 1."""
    return st.builds(lambda p, a1, b1, g1: replace(p, alpha1=a1, beta1=b1, gamma1=g1),
                     problems, st.floats(0.1, 2.0), st.floats(0.0, 2.0), st.floats(-1.0, 1.0))


def _problems(f_sources):
    return st.builds(Problem, alpha=ALPHAS, sigma=st.floats(-0.3, 1.0), f=f_sources.map(parse),
                     eta1=ETA1, alpha1=st.floats(0.1, 2.0), beta1=st.floats(0.0, 2.0),
                     gamma1=st.floats(-1.0, 1.0))


def _sum_of(terms):
    """One to three terms joined by + and -."""
    return st.builds(lambda first, rest: first + "".join(f" {op} {t}" for op, t in rest),
                     terms, st.lists(st.tuples(st.sampled_from("+-"), terms), max_size=2))


COEFF = st.floats(-3.0, 3.0).map("{:.3f}".format)
X_POWER = st.sampled_from(["", "x^0.5*", "x^0.7*", "x*", "x^1.5*"])
# Every term mentions y or yp, through every recurrence, at a constant base point.
Y_TERMS = st.builds("{}*{}{}".format, COEFF, X_POWER, st.sampled_from(
    ["y", "yp", "y*yp", "y^2", "y^3", "exp(-1*y)", "exp(0.5*y)", "ln(2 + y*y)", "1/(2 + y*y)"]))
AFFINE_TERMS = st.builds("{}*{}{}".format, COEFF, X_POWER,
                         st.sampled_from(["1", "y", "yp", "y/4", "(y - yp)", "-yp"]))

IDENTITY_PROBLEMS = st.one_of(FAMILIES, _robin(FAMILIES), _problems(_sum_of(Y_TERMS)))
AFFINE_PROBLEMS = st.one_of(
    st.builds(benchmark_problem, st.just(3), ALPHAS, st.sampled_from([1.0, 2.0, 2.5, 3.0])),
    _robin(st.builds(benchmark_problem, st.just(3), ALPHAS, st.sampled_from([2.0, 2.5, 3.0]))),
    _problems(_sum_of(AFFINE_TERMS)),
)


def _largest(s: GPSeries) -> float:
    return float(np.max(np.abs(s.coeffs), initial=0.0))


def _l1(s: GPSeries) -> float:
    """Σ|c| of s, once the terms within DRIFT of the exponent before them are summed.

    Two routes to one exponent can land about EXPONENT_MERGE_TOL apart, on
    either side of the merge; such a pair is one monomial to within DRIFT |ln x|.
    """
    if s.is_zero:
        return 0.0
    starts = np.flatnonzero(np.diff(s.exponents, prepend=-np.inf) > DRIFT)
    return float(np.sum(np.abs(np.add.reduceat(s.coeffs, starts))))


def _absolute(s: GPSeries, xs: np.ndarray) -> np.ndarray:
    """sum |c| x^e over the terms of s: the size of what cancels in s(x)."""
    return gps.evaluate_many(GPSeries(zip(np.abs(s.coeffs).tolist(), s.exponents.tolist())), xs)


def _solved(problem, n):
    """The solve and the A_k of its components, or None when it raises."""
    try:
        report = solve(problem, n)
        return report, adomian_polynomials(problem.f, report.components)
    except AdmError as err:
        event(f"solve raises {err.code}")
        return None


def _mismatch(problem, psi, polynomials):
    """L psi - x^sigma (A_0 + ...), each A_k weighted on its own: a sum of the A_k
    first would prune it relative to its largest, hiding what the identity misses."""
    weight = GPSeries.monomial(-1.0, problem.sigma)
    return gps.combine([(1.0, apply_forward(problem.alpha, psi))]
                       + [(1.0, gps.mul(weight, a)) for a in polynomials])


def _series_identity_bound(problem, report, polynomials, images, m):
    """What pruning and rounding may leave of L psi_m - x^sigma (A_0 + ... + A_(m-2)), in Σ|c|.

    Every prune on the way (of the images, the components, the partial sums,
    x^sigma A_k and inside L) drops terms below PRUNE_REL_THRESHOLD
    times the largest coefficient of its result, at most M, the components'
    scale.  L multiplies c x^e, 0 <= e <= E, by e (e + alpha - 1), less than
    (E + 1)^2 in size; T bounds the raw terms pruned.  Rounding adds a few
    eps per term and per partial sum, relative to M: near a resonance r = -1
    the image carries 1/(r + 1), and M with it.
    """
    used = polynomials[: m - 1]
    exponents = [1.0 - problem.alpha] + [
        float(a.exponents[-1]) + problem.sigma + 2.0 - problem.alpha for a in used if len(a)
    ]
    series = images[: m - 1] + list(report.components[:m]) + list(report.partial_sums[:m])
    scale = max(_largest(s) for s in series + used)
    raw = 5 * (sum(len(s) for s in series + used) + m)
    return (PRUNE_REL_THRESHOLD + 8 * m * EPS) * (max(exponents) + 1.0) ** 2 * scale * raw


def _boundary_scale(problem):
    return max(1.0, abs(problem.eta1), abs(problem.gamma1))


@settings(max_examples=80, deadline=None)
@given(problem=IDENTITY_PROBLEMS, n=st.integers(2, 12))
def test_every_partial_sum_solves_its_linear_problem(problem, n):
    solved = _solved(problem, n)
    if solved is None:
        return
    report, polynomials = solved
    ctx = OperatorContext(problem.alpha, problem.sigma)
    images = [apply_inverse(ctx, a) for a in polynomials]
    for m, psi in enumerate(report.partial_sums, 1):
        mismatch = _l1(_mismatch(problem, psi, polynomials[: m - 1]))
        bound = _series_identity_bound(problem, report, polynomials, images, m)
        assert mismatch <= bound, (problem, n, m, mismatch, bound)
        assert evaluate(psi, 0.0) == problem.eta1, (problem, m)
        if m >= 2:
            combo = problem.alpha1 * evaluate(psi, 1.0) + problem.beta1 * evaluate(
                differentiate(psi), 1.0)
            assert abs(combo - problem.gamma1) <= 1e-10 * _boundary_scale(problem), (problem, m)
    assert report.psi == report.partial_sums[-1] and report.n == n
    event("compared")


def _affine_parts(f, xs):
    """g1 and g2 on the grid, where f = g0 + g1 y + g2 yp."""
    g0 = eval_real(f, xs, 0.0, 0.0)
    return eval_real(f, xs, 1.0, 0.0) - g0, eval_real(f, xs, 0.0, 1.0) - g0


def _magnitude(e):
    """e with every sign made positive: at |y| and |yp| it bounds each value that e sums."""
    if isinstance(e, Constant):
        return Constant(abs(e.value))
    if isinstance(e, Neg):
        return _magnitude(e.arg)
    if isinstance(e, (Add, Sub, Mul, Div)):
        node = Add if isinstance(e, Sub) else type(e)
        return node(_magnitude(e.left), _magnitude(e.right))
    return e  # x, y, yp and x^p; affine f have no other nodes


def _grid_gap(problem, report, polynomials):
    """|residual(psi_n) + x^sigma A_(n-1)| on the grid, and what pruning and rounding allow.

    Not zero, but the series identity's remainder at x; f's image of the terms
    the prunes dropped from psi; inside each of the n polynomials, a prune below
    PRUNE_REL_THRESHOLD of f's terms and merges that move an exponent by up to
    EXPONENT_MERGE_TOL, so a term by |ln x| EXPONENT_MERGE_TOL of its size; and
    the rounding of the terms that cancel.
    """
    points = residual(report.psi, problem, GRID)
    xs = np.array([x for x, _ in points])
    weight = xs ** problem.sigma
    gap = np.abs([r for _, r in points] + weight * gps.evaluate_many(polynomials[-1], xs))
    g1, g2 = _affine_parts(problem.f, xs)
    lhs = apply_forward(problem.alpha, report.psi)
    dropped = gps.combine([(1.0, y) for y in report.components] + [(-1.0, report.psi)])
    remainder = _absolute(_mismatch(problem, report.psi, polynomials[:-1]), xs) + weight * (
        np.abs(g1) * _absolute(dropped, xs) + np.abs(g2) * _absolute(differentiate(dropped), xs))
    f_size = eval_real(_magnitude(problem.f), xs, _absolute(report.psi, xs),
                       _absolute(differentiate(report.psi), xs))
    size = _absolute(lhs, xs) + weight * (f_size + _absolute(polynomials[-1], xs))
    per_polynomial = PRUNE_REL_THRESHOLD + np.abs(np.log(xs)) * EXPONENT_MERGE_TOL
    # Subnormal values carry no relative precision.
    return gap, remainder + (64 * EPS + report.n * per_polynomial) * size + np.finfo(float).tiny


@settings(max_examples=60, deadline=None)
@given(problem=AFFINE_PROBLEMS, n=st.integers(2, 14))
def test_residual_of_an_affine_f_is_its_next_polynomial(problem, n):
    solved = _solved(problem, n)
    if solved is None:
        return
    gap, slack = _grid_gap(problem, *solved)
    assert np.all(gap <= slack), (problem, n, np.max(gap / slack))
    event("compared")
