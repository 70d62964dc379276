"""Maximum-error tables for the three built-in benchmark families.

One row per singularity exponent alpha, one column per component count n;
every cell decreases as n grows.  The same tables are produced on the
command line by ``adomian-bvp table --example N``.
"""

from adomian_bvp.benchmarks import BETA_FAMILIES, benchmark_problem
from adomian_bvp.diagnostics import format_error_table, max_error
from adomian_bvp.solver import partial_sum, solve

ALPHAS = [0.25, 0.5, 0.75]
NS = [5, 8, 10]

for example, beta in [(1, 1.0), (1, 3.5), (2, 1.0), (3, 1.0), (3, 2.5)]:
    cells = {}
    for alpha in ALPHAS:
        problem = benchmark_problem(example, alpha, beta)
        report = solve(problem, max(NS))
        for n in NS:
            err = max_error(partial_sum(report, n), problem.exact, 1000)
            cells[(alpha, n)] = err.max_error
    label = f"family {example}" + (f", beta = {beta:g}" if example in BETA_FAMILIES else "")
    print(f"# {label}")
    print(format_error_table(ALPHAS, NS, cells))
    print()
