"""psi judged against the solution itself, below the float floor of ``max_error``.

``truth_errors.json`` holds the truth error of psi_N for each case below: psi's
float terms and the reference solution, both in 30-digit mpmath, on 64 points
of [0, 1] (``support.truth_error``).  A case passes while its error stays at or
below the larger of twice its recorded value and 4 eps sup |psi| on those
points.  So a change of the numbers that moves a case away from the solution
fails here, whatever the golden files say; one that moves it toward the
solution re-records the file:

    PYTHONPATH=src python tests/test_truth_errors.py --write

Every benchmark case is past its truncation error at N = 28.  The last case
sits 1e-8 from the resonance r = -1 of the inverse (f = 1, sigma = -1 + 1e-8),
where psi's coefficients of about 2e8 cancel and its error is about
eps * 2e8; its reference is written so that the mpmath evaluation cancels
exactly, the exponent sigma + 2 - alpha included.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from support import truth_error, truth_grid

from adomian_bvp.benchmarks import benchmark_problem
from adomian_bvp.expressions import parse
from adomian_bvp.series import evaluate_many
from adomian_bvp.solver import Problem, solve

FIXTURE = Path(__file__).with_name("truth_errors.json")
EPS = np.finfo(float).eps
N = 28
POINTS = 64
NEAR = -1.0 + 1e-8  # sigma

# y = (x^(sigma + 2 - alpha) - x^(1 - alpha)) / ((sigma + 1)(sigma + 2 - alpha)) at alpha = 0.5
NEAR_RESONANCE = Problem(
    alpha=0.5, sigma=NEAR, f=parse("1"), eta1=0.0, alpha1=1.0, beta1=0.0, gamma1=0.0,
    exact=parse(f"(exp(({NEAR!r} + 1.5)*ln(x)) - x^0.5) / (({NEAR!r} + 1.0)*({NEAR!r} + 1.5))"),
)

# label -> the problem
CASES = {
    "f1-0.5-1": benchmark_problem(1, 0.5, 1.0),
    "f1-0.5-3.5": benchmark_problem(1, 0.5, 3.5),
    "f1-0.25-3.5": benchmark_problem(1, 0.25, 3.5),
    "f1-0.3719-2.1234": benchmark_problem(1, 0.3719, 2.1234),
    "f2-0.5": benchmark_problem(2, 0.5),
    "f2-0.1234": benchmark_problem(2, 0.1234),
    "f3-0.5-1": benchmark_problem(3, 0.5, 1.0),
    "f3-0.5-2.5": benchmark_problem(3, 0.5, 2.5),
    "f3-0.6-1.7": benchmark_problem(3, 0.6, 1.7),
    "near-resonance-1e-8": NEAR_RESONANCE,
}


def case_error(label: str) -> tuple[float, float]:
    """The truth error of psi_N and sup |psi_N| on the same points."""
    problem = CASES[label]
    psi = solve(problem, N).psi
    sup = float(np.max(np.abs(evaluate_many(psi, truth_grid(POINTS)))))
    return truth_error(psi, problem.exact, POINTS), sup


@pytest.mark.parametrize("label", list(CASES))
def test_psi_is_no_further_from_the_solution_than_recorded(label):
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))[label]
    error, sup = case_error(label)
    assert error <= max(2.0 * recorded, 4.0 * EPS * sup), (error, recorded, sup)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    rows = [f"{json.dumps(label)}: {case_error(label)[0]!r}" for label in CASES]
    FIXTURE.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(rows)} cases to {FIXTURE}")
