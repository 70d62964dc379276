"""psi pinned bit for bit against a recorded fixture, and near an older one.

``golden_psi.json`` holds the repr-exact (coeff, exponent) pairs of psi for
each case below, recorded when the kernel stopped pruning small coefficients:
only exact zeros are dropped, every raw product joins its Cauchy sum unmerged
and each merged group adds its coefficients in input order.  Any change to the
order of floating-point operations in normalize, mul, the inverse or the
recurrences shows up here as a failure.  Re-record only when a change of the
numbers is intended, and judge it by ``test_truth_errors.py``:

    PYTHONPATH=src python tests/test_golden_psi.py --write

``golden_psi_non_dyadic.json`` holds psi at n = 25 on two non-dyadic points,
the first generic family-1 and family-2 points of the benchmark's pool.  Their
exponents drift, so the kernel makes joins there that are within the merge
tolerance but not bit-equal; the fixture pins how it groups them.  It was
recorded before the kernel's span test went in (``--write-non-dyadic``).

``golden_psi_per_product.json`` holds the same cases with every product of a
Cauchy sum normalized on its own before the sum (the term-by-term definition):
``--write-per-product`` records them with ``series.combine`` wrapped so.  It is
re-derived only when the kernel's definition changes, and psi must stay within
a stated bound of it on a 1001-point grid.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from adomian_bvp import series
from adomian_bvp.benchmarks import benchmark_problem
from adomian_bvp.expressions import parse, to_source
from adomian_bvp.series import GPSeries, evaluate_many
from adomian_bvp.solver import solve

FIXTURE = Path(__file__).with_name("golden_psi.json")
NON_DYADIC_FIXTURE = Path(__file__).with_name("golden_psi_non_dyadic.json")
PER_PRODUCT = Path(__file__).with_name("golden_psi_per_product.json")
GRID = np.linspace(0.0, 1.0, 1001)
# Relative to sup |psi| on the grid (1.1 to 1158 over these cases).  Joining
# every product to its sum unmerged, with each group summed in input order,
# moves psi by at most 4.4e-16 absolute, 1.82 eps relative (f2-0.1234-powi at
# n = 10); 19 of the 48 entries are bit-identical: all 12 of family 3, whose f
# is linear, and 7 at n = 5.
DRIFT_ULPS = 4
NS = (5, 10, 16)
SPELLINGS = {
    "recip": "1/exp(-1*y)",
    "lnexp": "exp(ln(exp(y)))",
    "powi": "exp(0.5*y)^2",
}

# label -> (family, alpha, beta, spelling, Robin (alpha1, beta1, gamma1) or None)
CASES = {
    "f1-0.5-1": (1, 0.5, 1.0, None, None),
    "f1-0.25-3.5": (1, 0.25, 3.5, None, None),
    "f1-0.3719-2.1234": (1, 0.3719, 2.1234, None, None),
    "f2-0.5": (2, 0.5, 1.0, None, None),
    "f2-0.1234": (2, 0.1234, 1.0, None, None),
    "f3-0.5-1": (3, 0.5, 1.0, None, None),
    "f3-0.5-2.5": (3, 0.5, 2.5, None, None),
    "f3-0.6-1.7": (3, 0.6, 1.7, None, None),
    "f1-0.25-3.5-recip": (1, 0.25, 3.5, "recip", None),
    "f1-0.25-3.5-lnexp": (1, 0.25, 3.5, "lnexp", None),
    "f1-0.25-3.5-powi": (1, 0.25, 3.5, "powi", None),
    "f2-0.1234-recip": (2, 0.1234, 1.0, "recip", None),
    "f2-0.1234-lnexp": (2, 0.1234, 1.0, "lnexp", None),
    "f2-0.1234-powi": (2, 0.1234, 1.0, "powi", None),
    "f1-0.3719-2.1234-robin": (1, 0.3719, 2.1234, None, (1.3, 0.7, -2.1)),
    "f3-0.6-1.7-robin": (3, 0.6, 1.7, None, (0.8, 1.9, 7.5)),
}
# Non-dyadic alphas at a depth where the exponents drift: pinned at NON_DYADIC_N only.
NON_DYADIC = {
    "f1-0.6056-1.771": (1, 0.6056, 1.771, None, None),
    "f2-0.8136": (2, 0.8136, 1.0, None, None),
}
NON_DYADIC_N = 25


@functools.lru_cache(maxsize=None)
def case_psi(label: str, n: int) -> list[list[float]]:
    family, alpha, beta, spelling, robin = (CASES | NON_DYADIC)[label]
    problem = benchmark_problem(family, alpha, beta)
    if spelling is not None:
        source = to_source(problem.f).replace("exp(y)", SPELLINGS[spelling])
        problem = replace(problem, f=parse(source))
    if robin is not None:
        alpha1, beta1, gamma1 = robin
        problem = replace(problem, alpha1=alpha1, beta1=beta1, gamma1=gamma1)
    return [[t.coeff, t.exponent] for t in solve(problem, n).psi.terms]


def _key(label: str, n: int) -> str:
    return f"{label}|n={n}"


@pytest.fixture(scope="module")
def golden() -> dict[str, list[list[float]]]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def per_product() -> dict[str, list[list[float]]]:
    return json.loads(PER_PRODUCT.read_text(encoding="utf-8"))


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("label", list(CASES))
def test_psi_bit_identical_to_fixture(golden, label, n):
    want = golden[_key(label, n)]
    got = case_psi(label, n)
    assert len(got) == len(want)
    for (gc, ge), (wc, we) in zip(got, want):
        assert (gc, ge) == (wc, we), f"got ({gc!r}, {ge!r}), recorded ({wc!r}, {we!r})"


@pytest.mark.parametrize("label", list(NON_DYADIC))
def test_non_dyadic_psi_bit_identical_to_fixture(label):
    golden = json.loads(NON_DYADIC_FIXTURE.read_text(encoding="utf-8"))
    assert case_psi(label, NON_DYADIC_N) == golden[_key(label, NON_DYADIC_N)]


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("label", list(CASES))
def test_psi_within_a_few_ulps_of_the_per_product_kernel(per_product, label, n):
    before = evaluate_many(GPSeries(per_product[_key(label, n)]), GRID)
    now = evaluate_many(GPSeries(case_psi(label, n)), GRID)
    bound = DRIFT_ULPS * np.finfo(float).eps * np.max(np.abs(before))
    assert np.max(np.abs(now - before)) <= bound


def _per_product(combine):
    """``combine`` with each product normalized on its own, then summed with the parts."""
    def nested(parts, products=()):
        normalized = [(w, combine((), ((1.0, a, b),))) for w, a, b in products if w != 0.0]
        return combine([*parts, *normalized])
    return nested


if __name__ == "__main__":
    cases, ns = CASES, NS
    if sys.argv[1:] == ["--write"]:
        target = FIXTURE
    elif sys.argv[1:] == ["--write-non-dyadic"]:
        target, cases, ns = NON_DYADIC_FIXTURE, NON_DYADIC, (NON_DYADIC_N,)
    elif sys.argv[1:] == ["--write-per-product"]:
        target = PER_PRODUCT
        series.combine = _per_product(series.combine)
    else:
        raise SystemExit(__doc__)
    data = {_key(label, n): case_psi(label, n) for label in cases for n in ns}
    rows = [f"{json.dumps(key)}: {json.dumps(pairs)}" for key, pairs in data.items()]
    target.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(data)} cases to {target}")
