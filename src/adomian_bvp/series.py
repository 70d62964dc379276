"""Arithmetic on finite sums of real powers of x.

A series here is a sparse sum of ``coeff * x**exponent`` terms with real (not
necessarily integer) exponents, stored as two float64 arrays sorted by
strictly increasing exponent.  Solution components, their derivatives and
partial sums are all values of this one type, so the whole solver reduces to
a handful of exact term-wise operations on it.

Every operation builds its raw terms as arrays (a product an outer product,
a weighted sum a concatenation) and hands them to one kernel,
:func:`from_arrays`: a stable sort, a merge of exponents within
``EXPONENT_MERGE_TOL`` of the first exponent of their group, and a relative
prune.  :func:`combine` is every weighted sum, of series and of products of
two series, such as one Cauchy sum of a recurrence; ``mul`` is its
one-product call.  The kernel reproduces the term-by-term definition bit for
bit: equal exponents keep their input order, a group sums its coefficients in
that order, and the first non-finite input term is the one an error names.

Values are immutable (their arrays are read-only) and every operation is a
pure function; series can be shared freely between threads.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, InvalidProblem, NonFiniteTerm, TermBlowup

# Exponents arise from repeated addition of a handful of real increments;
# floating drift must not split one mathematical monomial into two.
EXPONENT_MERGE_TOL = 1e-12

# Coefficients this small relative to the largest one are numerical debris.
PRUNE_REL_THRESHOLD = 1e-14

# Products in the truncated-ring machinery grow combinatorially; fail loudly
# rather than thrash.
DEFAULT_TERM_CAP = 10_000


class Term(NamedTuple):
    """One monomial ``coeff * x**exponent``; equal to the plain pair (coeff, exponent)."""

    coeff: float
    exponent: float


def _frozen(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


def _columns(terms: Iterable[Sequence[float]]) -> np.ndarray:
    """(coeff, exponent) pairs, :class:`Term` or plain, as rows of coefficients and exponents."""
    return np.array(tuple(terms), dtype=float).reshape(-1, 2).T.copy()


class GPSeries:
    """A finite sum of real powers of x, sorted by strictly increasing exponent.

    ``coeffs`` and ``exponents`` are read-only float64 arrays of equal length;
    empty arrays represent the zero series.  Build instances through
    :func:`normalize`, :func:`from_arrays` or the constructors below; raw
    construction from (coeff, exponent) pairs skips the merge/prune pass,
    and the operations below rely on their operands being sorted and merged.

    Raises:
        NonFiniteTerm: a raw pair is not finite (naming the first such pair).
        InvalidProblem: the raw exponents do not strictly increase.
    """

    __slots__ = ("coeffs", "exponents")

    def __init__(self, terms: Iterable[Sequence[float]] = ()):
        coeffs, exponents = _columns(terms)
        if not (np.isfinite(coeffs).all() and np.isfinite(exponents).all()):
            _raise_non_finite(coeffs, exponents)
        unsorted = exponents[1:] <= exponents[:-1]
        if unsorted.any():
            e = exponents[unsorted.argmax():][:2].tolist()
            raise InvalidProblem(f"exponents must strictly increase, got {e[0]!r} then {e[1]!r}")
        self.coeffs, self.exponents = _frozen(coeffs), _frozen(exponents)

    @staticmethod
    def _of(coeffs: np.ndarray, exponents: np.ndarray) -> "GPSeries":
        s = object.__new__(GPSeries)
        s.coeffs, s.exponents = _frozen(coeffs), _frozen(exponents)
        return s

    @staticmethod
    def zero() -> "GPSeries":
        return _ZERO

    @staticmethod
    def constant(value: float) -> "GPSeries":
        return GPSeries.monomial(value, 0.0)

    @staticmethod
    def monomial(coeff: float, exponent: float) -> "GPSeries":
        coeff, exponent = float(coeff), float(exponent)
        if not (math.isfinite(coeff) and math.isfinite(exponent)):
            raise NonFiniteTerm(f"term ({coeff!r}, {exponent!r}) is not finite")
        if coeff == 0.0:
            return _ZERO
        return GPSeries._of(np.array([coeff]), np.array([exponent]))

    @property
    def terms(self) -> tuple[Term, ...]:
        """The terms in increasing exponent order, with Python float fields."""
        return tuple(map(Term, self.coeffs.tolist(), self.exponents.tolist()))

    @property
    def is_zero(self) -> bool:
        return not len(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GPSeries):
            return NotImplemented
        return np.array_equal(self.coeffs, other.coeffs) and np.array_equal(
            self.exponents, other.exponents
        )

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        return f"GPSeries(terms={self.terms!r})"


_EMPTY = np.empty(0)
_ZERO = GPSeries._of(_EMPTY, _EMPTY)


def _raise_non_finite(coeffs: np.ndarray, exponents: np.ndarray) -> None:
    """Raise NonFiniteTerm naming the first non-finite input term."""
    bad = ~(np.isfinite(coeffs) & np.isfinite(exponents))
    if bad.any():
        i = int(bad.argmax())
        c, e = float(coeffs[i]), float(exponents[i])
        raise NonFiniteTerm(f"term ({c!r}, {e!r}) is not finite")
    raise NonFiniteTerm("a merged coefficient overflows")


def _anchored_groups(exponents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group ids (from 1) and anchors, each group anchored at its first exponent."""
    group = np.empty(len(exponents), dtype=np.intp)
    anchors: list[float] = []
    for i, e in enumerate(exponents.tolist()):
        if not anchors or e - anchors[-1] > EXPONENT_MERGE_TOL:
            anchors.append(e)
        group[i] = len(anchors)
    return group, np.array(anchors)


def _pruned(
    coeffs: np.ndarray, exponents: np.ndarray, raw: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Drop exact zeros and coefficients below the relative threshold.

    ``raw`` is the kernel's input, searched for the term to name when a
    coefficient is not finite.
    """
    magnitude = np.abs(coeffs)
    # Ufunc reductions, as ndarray.max/min add a Python-level call to each.
    largest = np.maximum.reduce(magnitude)
    if not math.isfinite(largest):
        _raise_non_finite(*raw)
    threshold = PRUNE_REL_THRESHOLD * largest
    if threshold > 0.0 and np.minimum.reduce(magnitude) >= threshold:
        return coeffs, exponents
    keep = magnitude >= threshold if threshold > 0.0 else magnitude > 0.0
    return coeffs[keep], exponents[keep]


def from_arrays(coeffs: np.ndarray, exponents: np.ndarray) -> GPSeries:
    """Sort terms, merge near-equal exponents, drop negligible coefficients.

    The kernel under every operation of this module.  Terms are sorted stably
    by exponent.  A term whose exponent lies within ``EXPONENT_MERGE_TOL`` of
    the first exponent of the current group joins it, and each group sums
    its coefficients in input order.  Exact zeros and coefficients below
    ``PRUNE_REL_THRESHOLD`` times the largest are dropped.  Idempotent.  The
    input arrays are not modified.

    Raises:
        NonFiniteTerm: if any coefficient or exponent is NaN or infinite
            (naming the first such term), or a merged coefficient overflows.
    """
    return GPSeries._of(*_merged(coeffs, exponents)) if len(coeffs) else _ZERO


def _merged(coeffs: np.ndarray, exponents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`from_arrays` on at least one term, as arrays."""
    order = exponents.argsort(kind="stable")
    c, e = coeffs[order], exponents[order]
    if not (math.isfinite(e[0]) and math.isfinite(e[-1])):  # NaN sorts last
        _raise_non_finite(coeffs, exponents)
    gaps = e[1:] - e[:-1]
    joins = gaps <= EXPONENT_MERGE_TOL
    if np.count_nonzero(joins):
        head = np.empty(len(e), dtype=bool)
        head[0] = True
        np.logical_not(joins, out=head[1:])
        # The group ids of head.cumsum(); an integer accumulate is cheaper.
        group, anchors = np.add.accumulate(head, dtype=np.intp), e[head]
        # These groups chain consecutive gaps, but a group is anchored at its
        # first exponent.  The two differ only where the joined gaps of one
        # group add up past the tolerance; unless the total of all joined
        # gaps comes near it, that cannot happen.
        if gaps @ joins > 0.5 * EXPONENT_MERGE_TOL:
            group, anchors = _anchored_groups(e)
        c, e = np.bincount(group, weights=c)[1:], anchors
    return _pruned(c, e, (coeffs, exponents))


def normalize(raw_terms: Iterable[Sequence[float]]) -> GPSeries:
    """:func:`from_arrays` over (coeff, exponent) pairs, :class:`Term` or plain.

    Raises:
        NonFiniteTerm: if any coefficient or exponent is NaN or infinite.
    """
    return from_arrays(*_columns(raw_terms))


def combine(
    parts: Iterable[tuple[float, GPSeries]],
    products: Iterable[tuple[float, GPSeries, GPSeries]] = (),
) -> GPSeries:
    """The weighted sum of the (weight, series) parts and (weight, a, b) products.

    Equal to the sum of ``parts`` followed by ``(w, mul(a, b))`` for each
    product, bit for bit: each product is formed and normalized on its own,
    in order (only pruned when a factor is the constant series, whose zero
    exponent moves none of the other's), and then the sum is normalized once.
    Products with a zero factor, and parts of weight 0 or of a zero series,
    are skipped.  A single remaining part is scaled and pruned only, as its
    exponents are sorted and merged already, and returned as it is if its
    weight is 1; otherwise all weighted terms go through :func:`from_arrays`.

    Raises:
        TermBlowup: a raw product would exceed ``DEFAULT_TERM_CAP`` terms.
        NonFiniteTerm: a product, weighted or merged coefficient is not finite.
    """
    live = [(w, s.coeffs, s.exponents) for w, s in parts if w != 0.0 and len(s.coeffs)]
    products = [(w, a, b) for w, a, b in products if len(a.coeffs) and len(b.coeffs)]
    if not products and len(live) < 2 and (not live or live[0][0] == 1.0):
        return GPSeries._of(*live[0][1:]) if live else _ZERO
    with np.errstate(over="ignore", invalid="ignore"):
        for w, a, b in products:
            if len(a.coeffs) * len(b.coeffs) > DEFAULT_TERM_CAP:
                raise TermBlowup(
                    f"product of {len(a)} x {len(b)} terms exceeds cap {DEFAULT_TERM_CAP}"
                )
            c = np.multiply.outer(a.coeffs, b.coeffs).ravel()
            e = np.add.outer(a.exponents, b.exponents).ravel()
            c, e = _pruned(c, e, (c, e)) if _is_constant(a) or _is_constant(b) else _merged(c, e)
            if w != 0.0 and len(c):
                live.append((w, c, e))
        coeffs = [c if w == 1.0 else w * c for w, c, _ in live]
    if len(live) > 1:
        return from_arrays(np.concatenate(coeffs), np.concatenate([e for *_, e in live]))
    if not live:
        return _ZERO
    ((w, _, e),) = live
    if w == 1.0:
        return GPSeries._of(coeffs[0], e)
    return GPSeries._of(*_pruned(coeffs[0], e, (coeffs[0], e)))


def add(a: GPSeries, b: GPSeries) -> GPSeries:
    """Term-wise sum of two series."""
    return combine(((1.0, a), (1.0, b)))


def scale(a: GPSeries, k: float) -> GPSeries:
    """Multiply every coefficient by the scalar k."""
    return combine(((k, a),))


def _is_constant(a: GPSeries) -> bool:
    return len(a.coeffs) == 1 and a.exponents[0] == 0.0


def mul(a: GPSeries, b: GPSeries) -> GPSeries:
    """Product of two series, exponents adding pairwise: :func:`combine` of one product.

    Raises:
        TermBlowup: if the raw pairwise product would exceed ``DEFAULT_TERM_CAP`` terms.
    """
    return combine((), ((1.0, a, b),))


def differentiate(a: GPSeries) -> GPSeries:
    """Power-rule derivative; constant terms vanish."""
    live = np.abs(a.exponents) > EXPONENT_MERGE_TOL
    exponents = a.exponents[live]
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = a.coeffs[live] * exponents
    return from_arrays(coeffs, exponents - 1.0)


def evaluate(a: GPSeries, x: float) -> float:
    """:func:`evaluate_many` on the one-point grid [x], so it is the grid's value at x.

    Raises:
        DomainError: x < 0 or nan, or a negative exponent at x = 0.
    """
    return float(evaluate_many(a, np.array([x], dtype=float))[0])


def evaluate_many(a: GPSeries, xs: np.ndarray) -> np.ndarray:
    """Sum c * xs**e over all terms, left to right, at every point of a grid.

    Problems live on (0, 1], so x < 0 is outside the domain.  At x = 0 a term
    with |e| <= ``EXPONENT_MERGE_TOL`` counts as its coefficient (0**0 := 1),
    a positive power vanishes, and a negative one is singular.

    Raises:
        DomainError: some x < 0 or nan, or a negative exponent at x = 0.
    """
    xs = np.asarray(xs, dtype=float)
    outside = ~(xs >= 0.0)
    if outside.any():
        raise DomainError(f"series are evaluated at x >= 0, got x = {xs[outside][0]:g}")
    has_zero = not xs.all()
    if has_zero and len(a) and a.exponents[0] < -EXPONENT_MERGE_TOL:  # exponents ascend
        raise DomainError(f"x^{a.exponents[0]:g} is singular at x = 0")
    out = np.zeros_like(xs)
    for c, e in zip(a.coeffs.tolist(), a.exponents.tolist()):
        if has_zero and 0.0 < abs(e) <= EXPONENT_MERGE_TOL:  # 0**e := 1, as 0**0
            out += c * np.power(xs, e, out=np.ones_like(xs), where=xs > 0.0)
        else:
            out += c * xs ** e
    return out


def format_series(a: GPSeries) -> str:
    """Render a series as ``{coeff:.10e}*x^{exponent:.6g}`` terms joined by ' + '."""
    if a.is_zero:
        return "0"
    return " + ".join(
        f"{c:.10e}*x^{e:.6g}" for c, e in zip(a.coeffs.tolist(), a.exponents.tolist())
    )
