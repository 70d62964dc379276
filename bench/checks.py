"""Output checks that share no code with the package under test.

A partial sum psi arrives as (coefficient, exponent) pairs.  Boundary values
are summed with ``math.fsum`` so that the checks judge the coefficients, not
the checker's own rounding; accuracy is measured against the closed-form
solution of each benchmark family, evaluated here with numpy.
"""

from __future__ import annotations

import math
import sys

import numpy as np

BOUNDARY_TOL = 1e-12
# When psi's coefficients are large and cancel at x = 1 (Robin data with a
# large gamma1), rounding alone exceeds 1e-12; the right-boundary tolerance is
# then this many ulps of the summed term magnitudes.
CANCELLATION_ULPS = 16
EXPONENT_TOL = 1e-12  # exponents this close to 0 are the constant term
# max_error may exceed the value recorded at the baseline commit by this much:
# a relative slack for reordered sums, an absolute one for errors that are
# already at rounding level (about 1e-14 at n = 16).
ACCURACY_RTOL = 1e-3
ACCURACY_ATOL = 1e-13
# The CLI's own max_error must agree with the independent one this closely.
AGREEMENT_TOL = 1e-12

_XS = np.arange(1, 1001, dtype=float) / 1000.0


def exact_on_grid(spec: dict) -> np.ndarray:
    family, beta, xs = spec["family"], spec["beta"], _XS
    if family == 1:
        return -np.log(4.0 + xs ** beta)
    if family == 2:
        return -np.log(2.0 + xs)
    return np.exp(xs ** beta)


def grid_max_error(pairs, spec: dict) -> float:
    """Largest |psi - exact| on the grid x_i = i/1000, i = 1..1000."""
    approx = np.zeros_like(_XS)
    for c, e in pairs:
        approx += c * _XS ** e
    return float(np.max(np.abs(approx - exact_on_grid(spec))))


def boundary_failures(pairs, spec: dict) -> list[str]:
    """psi(0) = eta1 and alpha1*psi(1) + beta1*psi'(1) = gamma1, to 1e-12.

    The right-boundary tolerance grows to ``CANCELLATION_ULPS`` ulps of
    sum(alpha1*|c| + beta1*|c*e|) when that is larger.
    """
    if any(e < -EXPONENT_TOL for _, e in pairs):
        return ["psi has a negative exponent"]
    at0 = math.fsum(c for c, e in pairs if abs(e) <= EXPONENT_TOL)
    at1 = math.fsum(c for c, _ in pairs)
    slope1 = math.fsum(c * e for c, e in pairs)
    left = abs(at0 - spec["eta1"])
    right = abs(spec["alpha1"] * at1 + spec["beta1"] * slope1 - spec["gamma1"])
    scale = math.fsum(spec["alpha1"] * abs(c) + spec["beta1"] * abs(c * e) for c, e in pairs)
    right_tol = max(BOUNDARY_TOL, CANCELLATION_ULPS * sys.float_info.epsilon * scale)
    out = []
    if not left <= BOUNDARY_TOL:
        out.append(f"left boundary off by {left:.3e}")
    if not right <= right_tol:
        out.append(f"right boundary off by {right:.3e} (tolerance {right_tol:.3e})")
    return out


def accuracy_failure(measured: float, recorded: float | None) -> str | None:
    if recorded is None:
        return "no recorded max_error for this instance"
    if not measured <= recorded * (1.0 + ACCURACY_RTOL) + ACCURACY_ATOL:
        return f"max_error {measured:.6e} exceeds recorded {recorded:.6e}"
    return None


def parse_table(text: str) -> dict[tuple[float, int], float]:
    """Cells {(alpha, n): E^n} from the text of one ``table`` command."""
    cells, ns = {}, None
    for line in text.splitlines():
        parts = line.split()
        if not parts or line.startswith("#"):
            continue
        if parts[0] == "alpha":
            ns = [int(p[2:]) for p in parts[1:]]
            continue
        if ns is None:
            raise ValueError(f"table row before header: {line!r}")
        for n, value in zip(ns, parts[1:], strict=True):
            cells[(float(parts[0]), n)] = float(value)
    return cells


def table_failures(cells, alphas, ns, recorded: list[list[float]] | None) -> list[str]:
    """Every cell present, E^5 > E^8 > E^10 per row, no cell above the record."""
    out = []
    expected = {(a, n) for a in alphas for n in ns}
    if set(cells) != expected:
        return [f"table cells {sorted(cells)} != {sorted(expected)}"]
    for i, a in enumerate(alphas):
        row = [cells[(a, n)] for n in ns]
        if not all(x > y for x, y in zip(row, row[1:])):
            out.append(f"alpha {a}: errors {row} not decreasing in n")
        for n, value, ref in zip(ns, row, recorded[i] if recorded else [None] * len(ns)):
            bad = accuracy_failure(value, ref)
            if bad:
                out.append(f"alpha {a}, E^{n}: {bad}")
    return out


def residual_failures(text: str, grid: int) -> list[str]:
    """The residual command printed one finite value per grid point and a summary."""
    lines = text.splitlines()
    if len(lines) != grid + 1 or not lines[-1].startswith("max |residual|:"):
        return [f"residual output has {len(lines)} lines, expected {grid + 1}"]
    values = [float(line.split()[1]) for line in lines[:-1]]
    if not all(math.isfinite(v) for v in values):
        return ["residual has non-finite values"]
    return []
