"""Acceptance gate: one test (group) per criterion, each printing PASS when green.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 2 is split: the benchmark-1 tables reproduce within the
stated 50% band, but several published cells of the benchmark-2/3 tables are
irreproducible under the stated partial-sum convention (they embed shifted
truncations; tests/test_published_tables.py pins the exactly-recovered
cells).  That slice is asserted as stated and is expected to fail.
"""

import contextlib
import io
import time
from dataclasses import replace

import numpy as np
import pytest

from support import (
    ADMISSIBLE_TEMPLATES,
    FIRST_COMPONENT,
    PRINTED_COMPONENTS,
    PUBLISHED_TABLES,
    TABLE_ALPHAS,
    TABLE_NS,
    assert_series_matches_printed,
    quadrature_oracle,
)

from adomian_bvp.benchmarks import benchmark_problem
from adomian_bvp.cli import main
from adomian_bvp.expressions import eval_lambda, eval_real, parse
from adomian_bvp.lambda_ring import lift_solution
from adomian_bvp.series import GPSeries, differentiate, evaluate
from adomian_bvp.singular_operator import OperatorContext, apply_forward, apply_inverse
from adomian_bvp.solver import Problem, partial_sum, solve


# --- criterion 1: component regression ---------------------------------------------


def test_criterion_1_component_regression():
    """y_1..y_4 match the printed expansions coefficient by coefficient, < 1 s each."""
    for (example, alpha, beta), printed in sorted(PRINTED_COMPONENTS.items()):
        started = time.perf_counter()
        report = solve(benchmark_problem(example, alpha, beta), 5)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, (example, alpha, beta, elapsed)
        assert evaluate(report.components[0], 1.0) == pytest.approx(
            FIRST_COMPONENT[example], rel=1e-14
        )
        for k, expected in printed.items():
            assert_series_matches_printed(report.components[k], expected)
    print("criterion 1 (component regression): PASS")


# --- criterion 2: table reproduction -------------------------------------------------


@pytest.fixture(scope="module")
def computed_tables():
    """All five benchmark tables through the table command, grid 1000, timed."""
    started = time.perf_counter()
    cells = {}
    for (example, beta) in sorted(PUBLISHED_TABLES):
        argv = [
            "table",
            "--example",
            str(example),
            "--betas",
            str(beta),
            "--ns",
            ",".join(str(n) for n in TABLE_NS),
            "--grid",
            "1000",
        ]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(argv) == 0
        ns = None
        for line in buffer.getvalue().splitlines():
            parts = line.split()
            if not parts or line.startswith("#"):
                continue
            if parts[0] == "alpha":
                ns = [int(p[2:]) for p in parts[1:]]
                continue
            alpha = float(parts[0])
            for n, value in zip(ns, parts[1:]):
                cells[(example, beta, alpha, n)] = float(value)
    elapsed = time.perf_counter() - started
    return cells, elapsed


def _deviations(cells, keys):
    out = []
    for example, beta, alpha, n in keys:
        ref = PUBLISHED_TABLES[(example, beta)][alpha][TABLE_NS.index(n)]
        got = cells[(example, beta, alpha, n)]
        out.append(((example, beta, alpha, n), got, ref, abs(got - ref) / ref))
    return out


def test_criterion_2_runtime_and_monotonicity(computed_tables):
    """All 45 cells computed in < 60 s; E^5 > E^8 > E^10 in every cell."""
    cells, elapsed = computed_tables
    assert elapsed < 60.0, elapsed
    assert len(cells) == 45
    for (example, beta), rows in PUBLISHED_TABLES.items():
        for alpha in rows:
            e5, e8, e10 = (cells[(example, beta, alpha, n)] for n in TABLE_NS)
            assert e5 > e8 > e10, (example, beta, alpha, e5, e8, e10)
    print(f"criterion 2 (runtime {elapsed:.1f}s, monotonicity all 45 cells): PASS")


def test_criterion_2_reproduction_benchmark_1(computed_tables):
    """The 18 benchmark-1 cells reproduce the published values within 50%."""
    cells, _ = computed_tables
    keys = [
        (1, beta, alpha, n)
        for beta in (1.0, 3.5)
        for alpha in TABLE_ALPHAS
        for n in TABLE_NS
    ]
    bad = [d for d in _deviations(cells, keys) if d[3] > 0.5]
    assert not bad, bad
    print("criterion 2 (benchmark-1 tables within 50%): PASS")


def test_criterion_2_reproduction_benchmarks_2_3(computed_tables):
    """EXPECTED RED: published benchmark-2/3 tables embed shifted truncations.

    The stated convention (partial sum of n components, any evaluation grid)
    cannot reproduce these cells: the same pipeline recovers several of them
    to all six published digits only at n+1 / n+2 components, and reproduces
    every printed component expansion exactly.  The recovered cells are
    pinned in tests/test_published_tables.py.  Asserted as stated, honestly
    failing.
    """
    cells, _ = computed_tables
    keys = [
        (example, beta, alpha, n)
        for (example, beta) in ((2, 1.0), (3, 1.0), (3, 2.5))
        for alpha in TABLE_ALPHAS
        for n in TABLE_NS
    ]
    deviations = _deviations(cells, keys)
    bad = [d for d in deviations if d[3] > 0.5]
    if not bad:
        print("criterion 2 (benchmark-2/3 tables within 50%): PASS")
    assert not bad, (
        f"{len(bad)}/27 cells deviate beyond 50% from the published tables "
        "(known source-data inconsistency, see tests/test_published_tables.py): "
        + "; ".join(
            f"ex{e} beta={b} alpha={a} n={n}: got {got:.5e} ref {ref:.5e} "
            f"({dev:.1%})"
            for (e, b, a, n), got, ref, dev in bad
        )
    )


# --- criterion 3: operator identity ---------------------------------------------------


def test_criterion_3_forward_inverse_identity():
    """L(L^-1(g)) = -x^sigma*g to 1e-12 relative, 100 random terms per alpha."""
    rng = np.random.default_rng(100)
    sigmas = (-0.5, 0.0, 1.5)
    for alpha in (0.25, 0.5, 0.75):
        checked = 0
        while checked < 100:
            sigma = sigmas[checked % len(sigmas)]
            ctx = OperatorContext(alpha, sigma)
            r = float(rng.uniform(alpha - 2.0 + 0.05, 6.0))
            if abs(r + 1.0) < 0.05:
                continue
            c = float(rng.uniform(-3.0, 3.0))
            if c == 0.0:
                continue
            image = apply_forward(alpha, apply_inverse(ctx, GPSeries.monomial(c, r - sigma)))
            assert len(image) == 1
            term = image.terms[0]
            assert abs(term.exponent - r) <= 1e-9
            assert abs(term.coeff + c) / abs(c) <= 1e-12
            checked += 1
    print("criterion 3 (operator identity, 300 random terms): PASS")


# --- criterion 4: quadrature oracle ---------------------------------------------------


def test_criterion_4_quadrature_agreement():
    """Closed form and adaptive quadrature agree to 1e-8 at x in {0.1, 0.5, 1}."""
    rng = np.random.default_rng(101)
    for alpha in (0.25, 0.5, 0.75):
        for sigma in (-0.5, 0.0, 1.0):
            ctx = OperatorContext(alpha, sigma)
            checked = 0
            while checked < 20:
                r = float(rng.uniform(alpha - 2.0 + 0.05, 6.0))
                if abs(r + 1.0) < 0.05:
                    continue
                g = GPSeries.monomial(float(rng.uniform(-2.0, 2.0)) or 1.0, r - sigma)
                u = apply_inverse(ctx, g)
                for x in (0.1, 0.5, 1.0):
                    assert abs(quadrature_oracle(ctx, g, x) - evaluate(u, x)) <= 1e-8
                checked += 1
    print("criterion 4 (quadrature oracle, 180 random terms): PASS")


# --- criterion 5: boundary exactness ---------------------------------------------------


def _random_problem(rng, template):
    return Problem(
        alpha=float(rng.uniform(0.0, 0.95)),
        sigma=float(rng.uniform(0.0, 1.0)),
        f=parse(template),
        eta1=float(rng.uniform(-1.0, 1.0)),
        alpha1=float(rng.uniform(0.05, 2.0)),
        beta1=float(rng.uniform(0.0, 2.0)),
        gamma1=float(rng.uniform(-1.0, 1.0)),
    )


def _check_boundary_exactness(problem, n_max=6):
    report = solve(problem, n_max)
    for m in range(1, n_max + 1):
        psi = partial_sum(report, m)
        assert evaluate(psi, 0.0) == problem.eta1  # bit-exact left value
        if m >= 2:  # the boundary gap is assigned to the second component
            combo = problem.alpha1 * evaluate(psi, 1.0) + problem.beta1 * evaluate(
                differentiate(psi), 1.0
            )
            assert abs(combo - problem.gamma1) <= 1e-10, (problem, m, combo)


def test_criterion_5_boundary_exactness():
    """50 random Robin problems: psi_n(0) exact, right combination to 1e-10."""
    rng = np.random.default_rng(102)
    for trial in range(50):
        problem = _random_problem(rng, ADMISSIBLE_TEMPLATES[trial % 5])
        _check_boundary_exactness(problem)
    print("criterion 5 (boundary exactness, 50 random problems): PASS")


# --- criterion 6: decomposition-polynomial oracle ----------------------------------------


def test_criterion_6_generator_oracle():
    """Composed polynomials track the nonlinearity to 10*lambda^7 at order 6."""
    order = 6
    for example in (1, 2, 3):
        problem = benchmark_problem(example, 0.5, 1.0)
        report = solve(problem, order + 1)
        lifted = lift_solution(list(report.components), order)
        composed = eval_lambda(problem.f, *lifted)
        for x_star in (0.3, 0.7):
            for lam in (0.1, 0.5):
                series_val = sum(
                    evaluate(composed.coeffs[k], x_star) * lam**k
                    for k in range(order + 1)
                )
                y_val = sum(
                    evaluate(c, x_star) * lam**k
                    for k, c in enumerate(report.components)
                )
                yp_val = sum(
                    evaluate(differentiate(c), x_star) * lam**k
                    for k, c in enumerate(report.components)
                )
                direct = eval_real(problem.f, x_star, y_val, yp_val)
                assert abs(series_val - direct) <= 10.0 * lam ** (order + 1), (
                    example,
                    x_star,
                    lam,
                )
    print("criterion 6 (decomposition generator oracle): PASS")


# --- criterion 7: Robin variants of the linear benchmark ----------------------------------


def test_criterion_7_robin_case():
    """Criteria 3-5 hold on the linear benchmark equation with beta1 > 0."""
    rng = np.random.default_rng(103)
    base = benchmark_problem(3, 0.5, 1.0)
    for alpha in (0.25, 0.5, 0.75):
        sigma = alpha - 1.0  # the family's weight exponent at beta = 1
        ctx = OperatorContext(alpha, sigma)
        # operator identity and quadrature agreement on this context
        checked = 0
        while checked < 25:
            r = float(rng.uniform(alpha - 2.0 + 0.05, 6.0))
            if abs(r + 1.0) < 0.05:
                continue
            c = float(rng.uniform(-2.0, 2.0)) or 1.0
            g = GPSeries.monomial(c, r - sigma)
            u = apply_inverse(ctx, g)
            image = apply_forward(alpha, u)
            assert len(image) == 1
            assert abs(image.terms[0].coeff + c) / abs(c) <= 1e-12
            if checked % 5 == 0:
                for x in (0.1, 0.5, 1.0):
                    assert abs(quadrature_oracle(ctx, g, x) - evaluate(u, x)) <= 1e-8
            checked += 1
        # boundary exactness with genuinely mixed data
        family = benchmark_problem(3, alpha, 1.0)
        for _ in range(10):
            problem = replace(
                family,
                eta1=float(rng.uniform(-1.0, 1.0)),
                alpha1=float(rng.uniform(0.05, 2.0)),
                beta1=float(rng.uniform(0.1, 2.0)),
                gamma1=float(rng.uniform(-1.0, 1.0)),
                exact=None,
            )
            _check_boundary_exactness(problem)
    print("criterion 7 (Robin case on the linear benchmark): PASS")
