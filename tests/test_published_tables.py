"""Forensic regression against the published maximum-error tables.

The published tables were evaluated on the 10-point grid x = 0.1, ..., 1.0:
with that grid and the stated partial-sum convention (n components), every
benchmark-1 cell reproduces to all printed digits.  For benchmarks 2 and 3
several published cells are recovered to all printed digits only at shifted
truncations (n+1 components for the E^5/E^8 columns, n+2 for E^10), which
pins down an inconsistency in the source tables rather than in this solver:
the printed component expansions themselves match exactly (see
test_solver.py).  One whole published row belongs to another (alpha, beta):
the row printed for benchmark 3 at beta = 2.5, alpha = 0.75 is benchmark 3 at
beta = 1, alpha = 0.5 with 6, 9 and 12 components, so the source swapped rows
as well as counts.  Those 3 cells and the 7 shifted ones explain 10 of the 27
family-2/3 cells.  This module freezes these findings so any regression in the
pipeline surfaces as a digit change here.
"""

import pytest

from support import PUBLISHED_TABLES, TABLE_ALPHAS, TABLE_NS

from adomian_bvp.benchmarks import benchmark_problem
from adomian_bvp.diagnostics import max_error
from adomian_bvp.solver import partial_sum, solve

COARSE_GRID = 10  # x = 0.1, 0.2, ..., 1.0


def _coarse_error(example, alpha, beta, m):
    problem = benchmark_problem(example, alpha, beta)
    report = solve(problem, m)
    return max_error(partial_sum(report, m), problem.exact, COARSE_GRID).max_error


@pytest.mark.parametrize("beta", [1.0, 3.5])
def test_benchmark_1_tables_reproduce_to_printed_digits(beta):
    for alpha in TABLE_ALPHAS:
        for n, ref in zip(TABLE_NS, PUBLISHED_TABLES[(1, beta)][alpha]):
            got = _coarse_error(1, alpha, beta, n)
            assert got == pytest.approx(ref, rel=1e-4), (alpha, n, got, ref)


# Published cells recovered exactly at shifted truncation counts.
SHIFTED_MATCHES = [
    # (example, beta, alpha, published value, components actually summed)
    (2, 1.0, 0.75, 8.27238e-6, 8),     # the one benchmark-2 cell at m = n
    (3, 1.0, 0.25, 9.45679e-7, 9),     # E^8 column, m = n+1
    (3, 2.5, 0.25, 8.48845e-4, 6),     # E^5 column, m = n+1
    (3, 2.5, 0.25, 5.11258e-6, 9),     # E^8 column, m = n+1
    (3, 2.5, 0.25, 3.01254e-8, 12),    # E^10 column, m = n+2
    (3, 2.5, 0.5, 5.94699e-6, 9),      # E^8 column, m = n+1
    (3, 2.5, 0.5, 3.44033e-8, 12),     # E^10 column, m = n+2
]


@pytest.mark.parametrize("case", SHIFTED_MATCHES)
def test_shifted_truncations_recover_published_cells(case):
    example, beta, alpha, ref, m = case
    got = _coarse_error(example, alpha, beta, m)
    assert got == pytest.approx(ref, rel=1e-4), (got, ref)


# A published row recovered whole at another (alpha, beta) and shifted counts.
ROW_SWAP = [
    # (example, published beta, published alpha, published value, beta, alpha, components)
    (3, 2.5, 0.75, 2.97716e-4, 1.0, 0.5, 6),    # E^5 column
    (3, 2.5, 0.75, 1.53819e-6, 1.0, 0.5, 9),    # E^8 column
    (3, 2.5, 0.75, 1.19534e-8, 1.0, 0.5, 12),   # E^10 column
]


@pytest.mark.parametrize("case", ROW_SWAP)
def test_a_published_row_is_recovered_at_another_alpha_and_beta(case):
    example, printed_beta, printed_alpha, ref, beta, alpha, m = case
    assert ref in PUBLISHED_TABLES[(example, printed_beta)][printed_alpha]
    got = _coarse_error(example, alpha, beta, m)
    assert got == pytest.approx(ref, rel=1e-4), (got, ref)
