"""psi pinned bit for bit against a recorded fixture.

``golden_psi.json`` holds the repr-exact (coeff, exponent) pairs of psi for
each case below.  It was recorded before the series algebra moved onto
arrays, so any change to the order of floating-point operations in
normalize, mul, the inverse or the recurrences shows up here as a failure.
Re-record only when a change of the numbers is intended:

    PYTHONPATH=src python tests/test_golden_psi.py --write
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from adomian_bvp.benchmarks import benchmark_problem
from adomian_bvp.expressions import parse, to_source
from adomian_bvp.solver import solve

FIXTURE = Path(__file__).with_name("golden_psi.json")
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


def case_psi(label: str, n: int) -> list[list[float]]:
    family, alpha, beta, spelling, robin = CASES[label]
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


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("label", list(CASES))
def test_psi_bit_identical_to_fixture(golden, label, n):
    want = golden[_key(label, n)]
    got = case_psi(label, n)
    assert len(got) == len(want)
    for (gc, ge), (wc, we) in zip(got, want):
        assert (gc, ge) == (wc, we), f"got ({gc!r}, {ge!r}), recorded ({wc!r}, {we!r})"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    data = {_key(label, n): case_psi(label, n) for label in CASES for n in NS}
    rows = [f"{json.dumps(key)}: {json.dumps(pairs)}" for key, pairs in data.items()]
    FIXTURE.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(data)} cases to {FIXTURE}")
