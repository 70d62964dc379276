"""End-to-end solve of a doubly singular boundary value problem.

The equation (x^0.5 y')' = x^-0.5 e^y (-x y' - 1/2), y(0) = ln(1/4),
y(1) = ln(1/5) has the closed-form solution ln(1/(4+x)).  Ten components of
the decomposition series reproduce it to about 6e-10 uniformly on (0, 1].
"""

from adomian_bvp.benchmarks import benchmark_problem
from adomian_bvp.diagnostics import max_error, residual
from adomian_bvp.series import evaluate, format_series
from adomian_bvp.solver import partial_sum, solve

problem = benchmark_problem(1, 0.5, 1.0)
report = solve(problem, n=10)

print("first components:")
for k in range(3):
    print(f"  y_{k}:", format_series(report.components[k]))

print("\nconvergence of the partial sums (uniform grid of 1000 points):")
for m in (2, 4, 6, 8, 10):
    err = max_error(partial_sum(report, m), problem.exact, 1000)
    print(f"  {m:2d} components: max error {err.max_error:.3e} at x = {err.max_point:.3f}")

print("\nboundary values of the ten-component sum:")
print("  psi(0)  =", evaluate(report.psi, 0.0), " (target", problem.eta1, ")")
print("  psi(1)  =", evaluate(report.psi, 1.0), " (target", problem.gamma1, ")")

pairs = residual(report.psi, problem, 100)
worst_x, worst_r = max(pairs, key=lambda p: abs(p[1]))
print(f"\nequation residual on the grid: max {abs(worst_r):.3e} at x = {worst_x}")

print("\nper-step series growth:")
for info in report.diagnostics:
    print(f"  step {info.step:2d}: {info.terms:3d} terms in {1e3 * info.seconds:6.2f} ms")
