"""Incremental Taylor-coefficient tape: respellings, integer powers, step cost."""

from dataclasses import replace

import numpy as np
import pytest

import adomian_bvp.series as series_module
from adomian_bvp.benchmarks import benchmark_problem
from adomian_bvp.expressions import eval_lambda, eval_real, parse, to_source
from adomian_bvp.lambda_ring import lift_solution
from adomian_bvp.series import differentiate, evaluate, evaluate_many
from adomian_bvp.solver import Problem, solve

GRID = np.arange(1, 1001) / 1000.0


# --- equivalent spellings take other recurrences to the same psi ------------------


@pytest.mark.parametrize(
    "spelling",
    ["1/exp(-1*y)", "exp(ln(exp(y)))", "exp(0.5*y)^2"],
    ids=["recip", "lnexp", "powi"],
)
@pytest.mark.parametrize("example,beta", [(1, 1.0), (1, 3.5), (2, 1.0)])
def test_respelled_exponential_matches_plain(example, beta, spelling):
    plain = benchmark_problem(example, 0.5, beta)
    source = to_source(plain.f)
    assert "exp(y)" in source
    respelled = replace(plain, f=parse(source.replace("exp(y)", spelling)))
    want = evaluate_many(solve(plain, 12).psi, GRID)
    got = evaluate_many(solve(respelled, 12).psi, GRID)
    assert np.max(np.abs(got - want)) <= 1e-13


# --- integer powers: zero and non-constant base points ----------------------------


@pytest.mark.parametrize(
    "source,eta1",
    [("y^2", 0.0), ("(x + y)^2", 0.2), ("y^-2", 1.0), ("(1 + y)^3", 0.1)],
    ids=["square-zero-base", "square-nonconstant-base", "inverse-square", "cube"],
)
def test_integer_powers_solve_and_track_the_nonlinearity(source, eta1):
    problem = Problem(
        alpha=0.5, sigma=0.0, f=parse(source), eta1=eta1,
        alpha1=1.0, beta1=0.0, gamma1=eta1 + 0.5,
    )
    order = 7
    report = solve(problem, order + 1)
    composed = eval_lambda(problem.f, *lift_solution(list(report.components), order))
    for x_star in (0.3, 0.7):
        for lam in (0.1, 0.5):
            series_val = sum(
                evaluate(composed.coeffs[k], x_star) * lam**k for k in range(order + 1)
            )
            y_val = sum(
                evaluate(c, x_star) * lam**k for k, c in enumerate(report.components)
            )
            yp_val = sum(
                evaluate(differentiate(c), x_star) * lam**k
                for k, c in enumerate(report.components)
            )
            direct = eval_real(problem.f, x_star, y_val, yp_val)
            assert abs(series_val - direct) <= 10.0 * lam ** (order + 1)


# --- cost: one new coefficient per node and step -----------------------------------


def test_series_products_grow_quadratically_in_n(monkeypatch):
    # Recomposing f at every step costs O(n^4) products (224 -> 2830 here);
    # the tape's recurrences cost O(n^2) (about 4x from n = 8 to n = 16).
    calls = []
    original = series_module.mul

    def counting(a, b, *args, **kwargs):
        calls.append(1)
        return original(a, b, *args, **kwargs)

    monkeypatch.setattr(series_module, "mul", counting)
    problem = benchmark_problem(1, 0.5, 1.0)
    solve(problem, 8)
    at_8 = len(calls)
    calls.clear()
    solve(problem, 16)
    at_16 = len(calls)
    assert at_8 > 0
    assert at_16 / at_8 < 6.0
