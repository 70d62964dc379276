"""Incremental Taylor-coefficient tape: respellings, integer powers, step cost."""

from dataclasses import replace

import numpy as np
import pytest

from support import adomian_polynomials, taylor_gap

import adomian_bvp.series as series_module
from adomian_bvp.benchmarks import benchmark_problem
from adomian_bvp.expressions import Add, Tape, Var, parse, to_source
from adomian_bvp.series import GPSeries, differentiate, evaluate_many
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
    components = solve(problem, order + 1).components
    polynomials = adomian_polynomials(problem.f, components)
    for x_star in (0.3, 0.7):
        for lam in (0.1, 0.5):
            gap = taylor_gap(problem.f, components, polynomials, x_star, lam)
            assert gap <= 10.0 * lam ** (order + 1)


# --- cost: one new coefficient per node and step -----------------------------------


def _counting(monkeypatch, name, count):
    """Replace series.<name> by a wrapper that appends count(*args) per call.

    Iterable arguments, such as the products a recurrence passes to
    ``combine`` as a generator, are read into lists first."""
    calls = []
    original = getattr(series_module, name)

    def counting(*args):
        args = [a if isinstance(a, GPSeries) else list(a) for a in args]
        calls.append(count(*args))
        return original(*args)

    monkeypatch.setattr(series_module, name, counting)
    return calls


def test_series_products_grow_quadratically_in_n(monkeypatch):
    # Recomposing f at every step costs O(n^4) products (224 -> 2830 here);
    # the tape's recurrences cost O(n^2) (about 4x from n = 8 to n = 16).
    products = _counting(monkeypatch, "combine", lambda parts, products=(): len(products))
    problem = benchmark_problem(1, 0.5, 1.0)
    solve(problem, 8)
    at_8 = sum(products)
    products.clear()
    solve(problem, 16)
    at_16 = sum(products)
    assert at_8 > 0
    assert at_16 / at_8 < 6.0


def test_each_rule_node_makes_one_combine_call_per_step(monkeypatch):
    problem = benchmark_problem(1, 0.5, 1.0)
    components = solve(problem, 10).components
    tape = Tape(problem.f)
    # Nodes without operands are seeds (constants, x): a fixed value, no sum.
    rule_nodes = sum(1 for _, operands, _ in tape._program if operands)
    combines = _counting(monkeypatch, "combine", lambda *args: 1)
    muls = _counting(monkeypatch, "mul", lambda *args: 1)
    per_step = []
    for y in components:
        combines.clear()
        tape.extend(y, differentiate(y))
        per_step.append(len(combines))
    assert not muls
    assert rule_nodes > 0
    assert per_step[1:] == [rule_nodes] * (len(components) - 1)


# --- layout: one node per distinct subtree, in time linear in the AST ----------------


def test_layout_touches_no_subtree_hash_or_equality(monkeypatch):
    # a 100-term sum nests 100 deep; hashing each subtree to look it up would
    # cost time quadratic in that depth
    e = parse("+".join(["y"] * 100))
    ast_nodes = 199  # 100 leaves, 99 sums
    calls = []
    for cls in (Add, Var):
        for name in ("__hash__", "__eq__"):
            real = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda *a, real=real: calls.append(1) or real(*a))
    tape = Tape(e)
    assert len(calls) <= ast_nodes
    assert len(tape._program) == 99  # y is an input; each partial sum is one node


@pytest.mark.parametrize("source,nodes", [
    ("exp(y)*exp(y) + exp(y)", 3),  # exp, mul, add
    ("(y + 1)*(y + 1) - (y + 1)", 4),  # constant, add, mul, sub
    ("1 + y^-2 + x*x^1.0", 8),  # 1 (also the 1 of 1/y), 1/y, its square, sum, x, x^1.0, product, sum
])
def test_equal_subtrees_share_one_node(source, nodes):
    assert len(Tape(parse(source))._program) == nodes
