"""Arithmetic on finite sums of real powers of x.

A series here is a sparse sum of ``coeff * x**exponent`` terms with real (not
necessarily integer) exponents, stored as two float64 arrays sorted by
strictly increasing exponent.  Solution components, their derivatives and
partial sums are all values of this one type, so the whole solver reduces to
a handful of exact term-wise operations on it.

Every operation builds its raw terms as arrays (a product by broadcasting, a
weighted sum a concatenation) and hands them to one kernel, :func:`from_arrays`:
a sort of the exponents, a merge of near-equal ones and the drop of exact zeros.
No other coefficient is dropped, however small next to the others: a partial sum
keeps every term of its closed-form components.  The kernel reproduces the
term-by-term definition bit for bit, whatever order the sort gives equal
exponents, and its scan is every NonFiniteTerm here: the first non-finite term
of the arrays it is given, else a merged overflow.  A map that keeps exponents in
order (:func:`differentiate`, a product by one term, the inverse image) skips the
sort through :func:`from_ordered`, with the same bits: terms that would merge, or
are zero or not finite, send its arrays to the kernel.  :func:`combine` is every
weighted sum, of series and of products of two series, such as one Cauchy sum of
a recurrence, in one loop over its pieces; raw products join the sum unmerged, so
the sum is normalized once.

Values are immutable (their arrays are read-only) and every operation is a
pure function; series can be shared freely between threads.  :func:`check_real` is
the one rule for a number a caller gives: a ``numbers.Real`` with a finite float, read as that.
"""

from __future__ import annotations

import math
from numbers import Real
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, InvalidProblem, NonFiniteTerm, TermBlowup

# Exponents arise from repeated addition of a handful of real increments;
# floating drift must not split one mathematical monomial into two.
EXPONENT_MERGE_TOL = 1e-12

# The most raw terms of one pairwise product, checked before it is formed.  Not a bound on
# a Cauchy sum of many products (195,287 raw terms at n = 37) or on memory: ROADMAP 14.
DEFAULT_TERM_CAP = 10_000


def check_real(value: object, name: str,
               error: Callable[[str], Exception] = InvalidProblem) -> float:
    """``value`` as a float if it is a ``numbers.Real`` whose float is finite, else ``error``
    naming ``name``; an int or Fraction past the largest float is not finite, and not repr'd.
    A finite value of type exactly ``float`` is returned at once; a subclass such as
    ``np.float64`` is read by ``float()`` as any other number."""
    if type(value) is float and math.isfinite(value):
        return value
    if not isinstance(value, Real):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        if math.isfinite(number := float(value)):
            return number
    except OverflowError:  # past the largest float, where the repr of an int may itself fail
        raise error(f"{name} must be finite, got a number past the largest float") from None
    raise error(f"{name} must be finite, got {value!r}")


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
    construction from (coeff, exponent) pairs skips the merge and the drop of
    zeros, and the operations below rely on their operands being sorted and
    merged.

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
    """Group ids (from 1) and anchors of sorted exponents, each group anchored at its first."""
    group = np.empty(len(exponents), dtype=np.intp)
    anchors: list[float] = []
    for i, e in enumerate(exponents.tolist()):
        if not anchors or e - anchors[-1] > EXPONENT_MERGE_TOL:
            anchors.append(e)
        group[i] = len(anchors)
    return group, np.array(anchors)


def _nonzero(coeffs: np.ndarray, exponents: np.ndarray,
             raw: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Drop exact zeros once every coefficient is known finite; one that is not raises the
    NonFiniteTerm of the kernel's input ``raw``: its first non-finite term, or a merged overflow."""
    magnitude = np.abs(coeffs)
    # A ufunc reduction, as ndarray.max adds a Python-level call; counting is cheaper still.
    if not math.isfinite(np.maximum.reduce(magnitude)):
        _raise_non_finite(*raw)
    if np.count_nonzero(coeffs) == len(coeffs):
        return coeffs, exponents
    keep = magnitude > 0.0
    return coeffs[keep], exponents[keep]


def from_arrays(coeffs: np.ndarray, exponents: np.ndarray) -> GPSeries:
    """Sort terms, merge near-equal exponents, drop exact zeros.

    The kernel under every operation of this module.  A term whose exponent
    lies within ``EXPONENT_MERGE_TOL`` of the smallest exponent of its group,
    in sorted order, joins it.  A group sums its coefficients in input order,
    from 0.0, and takes that smallest exponent, a zero one as +0.0.  Groups
    whose sum is exactly zero are dropped, and every other one is kept.
    Idempotent.  The inputs are not modified.

    Raises:
        NonFiniteTerm: if any coefficient or exponent is NaN or infinite
            (naming the first such term), or a merged coefficient overflows.
    """
    return GPSeries._of(*_merged(coeffs, exponents)) if len(coeffs) else _ZERO


def _merged(coeffs: np.ndarray, exponents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`from_arrays` on at least one term, as arrays."""
    order = exponents.argsort()
    e = exponents[order]
    if math.isfinite(e.item(-1) - e.item(0)):  # Python floats: no warning, NaN sorts last
        gaps = e[1:] - e[:-1]
    elif math.isfinite(e[0]) and math.isfinite(e[-1]):
        with np.errstate(over="ignore"):  # a gap past the largest float joins nothing
            gaps = np.minimum(e[1:] - e[:-1], 1.0)
    else:
        _raise_non_finite(coeffs, exponents)
    head = np.empty(len(e), dtype=bool)
    head[0] = True
    np.greater(gaps, EXPONENT_MERGE_TOL, out=head[1:])
    # The group ids of head.cumsum(); an integer accumulate is cheaper.
    group, anchors = np.add.accumulate(head, dtype=np.intp), e[head]
    # These groups chain gaps, but a group is anchored at its smallest exponent.  They differ only
    # where some group spans past the tolerance, so where its joined gaps, and all joined gaps,
    # sum to near it.  That sum is a cheap filter; the anchored loop runs only where some group's
    # span, its last exponent minus its first, does pass the tolerance.
    if len(anchors) < len(e) and gaps @ ~head[1:] > 0.5 * EXPONENT_MERGE_TOL:
        last = np.append(np.flatnonzero(head)[1:], len(e)) - 1
        if np.maximum.reduce(e[last] - anchors) > EXPONENT_MERGE_TOL:
            group, anchors = _anchored_groups(e)
    # Each group adds its coefficients in input order: no coefficient is permuted.
    at_input = np.empty_like(group)
    at_input[order] = group
    anchors += 0.0  # -0.0 to +0.0, so no zero exponent depends on the sort's order of ties
    return _nonzero(np.bincount(at_input, weights=coeffs)[1:], anchors, (coeffs, exponents))


def from_ordered(coeffs: np.ndarray, exponents: np.ndarray) -> GPSeries:
    """:func:`from_arrays` of terms in increasing exponent order, no exponent -0.0, without a sort:
    the arrays as they stand if their span is finite, every gap exceeds ``EXPONENT_MERGE_TOL``
    and every coefficient is finite and nonzero, else the kernel of these arrays."""
    if (len(coeffs)
            and math.isfinite(exponents.item(-1) - exponents.item(0))  # Python floats: no warning
            and np.minimum.reduce(exponents[1:] - exponents[:-1], initial=math.inf)
            > EXPONENT_MERGE_TOL and np.count_nonzero(coeffs) == len(coeffs)
            and math.isfinite(np.maximum.reduce(np.abs(coeffs)))):
        return GPSeries._of(coeffs, exponents)
    return from_arrays(coeffs, exponents)


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

    One loop appends the weighted arrays of each piece, the parts and then the raw products
    in order; a piece of weight 0, with a zero series or a zero factor, is skipped, and such
    a product never formed.  Several pieces are normalized once, as one sum.  A lone part is
    only scaled, and the zeros of an underflow dropped; a lone product of weight 1 by one term
    c*x^p keeps the other factor's order (:func:`from_ordered`), and any other is normalized.

    Raises:
        TermBlowup: a raw product would have over ``DEFAULT_TERM_CAP`` terms (before it is formed).
        NonFiniteTerm: a weighted or merged coefficient is not finite, named
            as the kernel names it in the arrays it is given.
    """
    coeffs, exponents = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for w, s in parts:
            if w != 0.0 and len(s.coeffs):
                coeffs.append(s.coeffs if w == 1.0 else w * s.coeffs)
                exponents.append(s.exponents)
                weight = w
        alone = len(coeffs)  # 1: the sum is one part, unless a product joins it
        for w, a, b in products:
            if w != 0.0 and len(a.coeffs) and len(b.coeffs):
                if len(a.coeffs) * len(b.coeffs) > DEFAULT_TERM_CAP:
                    raise TermBlowup(f"product of {len(a)} x {len(b)} terms exceeds cap "
                                     f"{DEFAULT_TERM_CAP}")
                c = a.coeffs[:, None] * b.coeffs
                if w != 1.0:
                    np.multiply(c, w, out=c)
                coeffs.append(c.ravel())
                exponents.append((a.exponents[:, None] + b.exponents).ravel())
                weight, product = w, c
    if len(coeffs) != 1:
        return from_arrays(np.concatenate(coeffs), np.concatenate(exponents)) if coeffs else _ZERO
    ((c,), (e,)) = coeffs, exponents
    if alone:  # sorted and merged already: only the zeros of an underflow go
        return GPSeries._of(c, e) if weight == 1.0 else GPSeries._of(*_nonzero(c, e, (c, e)))
    shift = weight == 1.0 and 1 in product.shape  # c*x^p keeps the other factor's order
    return from_ordered(c, e + 0.0) if shift else from_arrays(c, e)  # + 0.0: no exponent -0.0


def add(a: GPSeries, b: GPSeries) -> GPSeries:
    """Term-wise sum of two series."""
    return combine(((1.0, a), (1.0, b)))


def scale(a: GPSeries, k: float) -> GPSeries:
    """Multiply every coefficient by the scalar k."""
    return combine(((k, a),))


def mul(a: GPSeries, b: GPSeries) -> GPSeries:
    """Product of two series, exponents adding pairwise: :func:`combine` of one product.

    Raises:
        TermBlowup: if the raw pairwise product would exceed ``DEFAULT_TERM_CAP`` terms.
    """
    return combine((), ((1.0, a, b),))


def differentiate(a: GPSeries) -> GPSeries:
    """Power-rule derivative; constant terms vanish."""
    coeffs, exponents = a.coeffs, a.exponents
    # The exponents ascend: if the first lies past the tolerance, no term is constant.
    if not len(exponents) or exponents.item(0) <= EXPONENT_MERGE_TOL:
        live = np.abs(exponents) > EXPONENT_MERGE_TOL
        coeffs, exponents = coeffs[live], exponents[live]
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = coeffs * exponents
    return from_ordered(coeffs, exponents - 1.0)


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
    return evaluate_each((a,), xs)[0]


def evaluate_each(many: Iterable[GPSeries], xs: np.ndarray) -> list[np.ndarray]:
    """:func:`evaluate_many` of each series on one grid, forming each power of x once.

    The terms of all the series are walked in one sorted pass: a stable
    argsort of their concatenated exponents, so equal exponents keep series
    order.  xs**e is formed once per distinct exponent, and c * xs**e is added
    into the output of each series that holds e.  So each output is summed
    from 0.0 in its own term order, bit for bit its :func:`evaluate_many`, and
    one power array is alive at a time.

    Raises:
        DomainError: some x < 0 or nan, or a negative exponent at x = 0 in
            the first series, in order, that has one.
    """
    many, xs = tuple(many), np.asarray(xs, dtype=float)
    low = np.minimum.reduce(xs, axis=None) if xs.size else 1.0  # nan propagates
    if not low >= 0.0:
        raise DomainError(f"series are evaluated at x >= 0, got x = {xs[~(xs >= 0.0)][0]:g}")
    has_zero = low == 0.0
    for a in many:
        if has_zero and len(a) and a.exponents[0] < -EXPONENT_MERGE_TOL:  # exponents ascend
            raise DomainError(f"x^{a.exponents[0]:g} is singular at x = 0")
    outs = [np.zeros_like(xs) for _ in many]
    exponents = np.concatenate([a.exponents for a in many] or [_EMPTY])
    order = exponents.argsort(kind="stable")
    owner = np.repeat(np.arange(len(many)), [len(a) for a in many])[order]
    coeffs = np.concatenate([a.coeffs for a in many] or [_EMPTY])[order]
    # Local names: the loop runs once per term, and a lookup per term costs about 1%.
    term, last, multiply, power_of = np.empty_like(xs), None, np.multiply, _power
    for e, i, c in zip(exponents[order].tolist(), owner.tolist(), coeffs.tolist()):
        if e != last:
            power, last = power_of(xs, e, has_zero), e
        outs[i] += multiply(c, power, term)  # c * power, into one reused buffer
    return outs


def _power(xs: np.ndarray, e: float, has_zero: bool) -> np.ndarray:
    """xs**e, one scalar power; a grid with 0 takes 0**e := 1 for 0 < |e| <= the merge tolerance."""
    if has_zero and 0.0 < abs(e) <= EXPONENT_MERGE_TOL:
        return np.power(xs, e, out=np.ones_like(xs), where=xs > 0.0)
    return xs ** e


def at_one(a: GPSeries) -> float:
    """The value at x = 1, where every power is 1: the coefficients added left to right from 0.0.

    This is the sum :func:`evaluate_many` forms at x = 1, on every Python
    version; the builtin ``sum`` of floats is compensated from Python 3.12 on.
    """
    total = 0.0
    for c in a.coeffs.tolist():
        total += c
    return total


def format_series(a: GPSeries) -> str:
    """Render a series as ``{coeff:.10e}*x^{exponent:.6g}`` terms joined by ' + '."""
    if a.is_zero:
        return "0"
    return " + ".join(
        f"{c:.10e}*x^{e:.6g}" for c, e in zip(a.coeffs.tolist(), a.exponents.tolist())
    )
