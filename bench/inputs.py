"""Seeded inputs for the benchmark workloads.

Standard library only: nothing here imports the package under test, so the
inputs a seed produces cannot depend on the code being measured.

Every workload runs in *passes* and a run executes whole passes, at least
``--seconds`` long.  A pass has a fixed composition (strata); the seed decides
which candidate fills each stratum and the order of the ops.  That keeps the
mix of cheap and costly ops nearly the same from seed to seed, so the per-run
medians compare across seeds.

Candidates come from a fixed pool (``POOL_SEED``) because the accuracy check
compares each instance's max_error with the value recorded for exactly that
instance in ``reference.json``.
"""

from __future__ import annotations

import json
import math
import random

WORKLOADS = ("deep_nonlinear", "published_tables", "cli_robin_files")

POOL_SEED = 171108187
PUBLISHED_ALPHAS = (0.25, 0.5, 0.75)
GENERIC_POINTS = 6  # generic (alpha, beta) points per family in the pool
ROBIN_CANDIDATES = 6  # problem files per cli_robin_files stratum in the pool
ROBIN_FILES_PER_STRATUM = 3  # of which one run writes this many

# The published family-1 betas; family 3's published tables use 1 and 2.5.
F1_PUBLISHED_BETAS = (1.0, 3.5)
F3_PUBLISHED_BETAS = (1.0, 2.5)

DEEP_NS = (12, 13, 14, 15, 16)
DEEP_KINDS = ("f1pub", "f1gen", "f2pub", "f2gen")

# Equivalent spellings of exp(y); each routes A_k through other ring paths
# (reciprocal, logarithm, integer power) than the published families use.
SPELLINGS = {
    "plain": "exp(y)",
    "recip": "1/exp(-1*y)",
    "lnexp": "exp(ln(exp(y)))",
    "powi": "exp(0.5*y)^2",
}
RESPELLINGS = ("recip", "lnexp", "powi")

TABLES = ((1, 1.0), (1, 3.5), (2, 1.0), (3, 1.0), (3, 2.5))
TABLE_NS = (5, 8, 10)
GRID = 1000

# cli_robin_files: mostly linear family 3, a minority of nonlinear files.
CLI_STRATA = tuple(
    [(kind, n) for n in (6, 7, 8, 9, 10) for kind in ("f3pub", "f3gen")]
    + [("f1pub", 8), ("f1gen", 8), ("f2gen", 10)]
)


def _r4(value: float) -> float:
    return round(value, 4)


def published_points(family: int) -> list[tuple[float, float]]:
    if family == 1:
        return [(a, b) for a in PUBLISHED_ALPHAS for b in F1_PUBLISHED_BETAS]
    if family == 2:
        return [(a, 1.0) for a in PUBLISHED_ALPHAS]
    return [(a, b) for a in PUBLISHED_ALPHAS for b in F3_PUBLISHED_BETAS]


def generic_points(family: int) -> list[tuple[float, float]]:
    """Seeded non-commensurate points: alpha in [0, 0.9], beta in [1, 3.5]."""
    rng = random.Random(f"{POOL_SEED}-generic-{family}")
    points = []
    for _ in range(GENERIC_POINTS):
        alpha = _r4(rng.uniform(0.0, 0.9))
        beta = _r4(rng.uniform(1.0, 3.5))
        points.append((alpha, 1.0 if family == 2 else beta))
    return points


def kind_points(kind: str) -> list[tuple[float, float]]:
    family = int(kind[1])
    return published_points(family) if kind.endswith("pub") else generic_points(family)


# --- problem specifications --------------------------------------------------
#
# The three families of the package's ``benchmarks`` module, written out here
# as problem data with the exact solution's value and slope at x = 1, so that
# Robin data can be derived and the checks need nothing from the package.


def problem_spec(
    family: int,
    alpha: float,
    beta: float,
    alpha1: float = 1.0,
    beta1: float = 0.0,
    spelling: str = "plain",
) -> dict:
    """Problem data for one benchmark family with Robin data at x = 1."""
    e = SPELLINGS[spelling]
    if family == 1:
        sigma = alpha + beta - 2.0
        f = f"-{beta!r}*{e}*(x*yp + {alpha + beta - 1.0!r})"
        eta1, y1, yp1 = -math.log(4.0), -math.log(5.0), -beta / 5.0
        exact = f"ln(1/(4 + x^{beta!r}))"
    elif family == 2:
        sigma = alpha - 1.0
        f = f"-1.0*{e}*(x*yp + {alpha!r})"
        eta1, y1, yp1 = -math.log(2.0), -math.log(3.0), -1.0 / 3.0
        exact = "ln(1/(2 + x))"
    elif family == 3:
        if spelling != "plain":
            raise ValueError("family 3 has no exp(y) to respell")
        sigma = alpha + beta - 2.0
        f = f"{beta!r}*(x*yp + {alpha + beta - 1.0!r}*y)"
        eta1, y1, yp1 = 1.0, math.e, beta * math.e
        exact = f"exp(x^{beta!r})"
    else:
        raise ValueError(f"unknown family {family!r}")
    return {
        "family": family,
        "alpha": alpha,
        "beta": beta,
        "spelling": spelling,
        "p_exponent": alpha,
        "q_exponent": sigma,
        "f": f,
        "eta1": eta1,
        "alpha1": alpha1,
        "beta1": beta1,
        "gamma1": alpha1 * y1 + beta1 * yp1,
        "exact": exact,
    }


def problem_file_text(spec: dict) -> str:
    keys = ("p_exponent", "q_exponent", "eta1", "alpha1", "beta1", "gamma1")
    lines = [f'f = "{spec["f"]}"', f'exact = "{spec["exact"]}"']
    lines += [f"{k} = {spec[k]!r}" for k in keys]
    return "\n".join(lines) + "\n"


def robin_candidates(kind: str, n: int) -> list[dict]:
    """The pool of problem files for one cli_robin_files stratum."""
    rng = random.Random(f"{POOL_SEED}-robin-{kind}-{n}")
    points = kind_points(kind)
    out = []
    for i in range(ROBIN_CANDIDATES):
        alpha, beta = points[i % len(points)]
        spec = problem_spec(
            int(kind[1]), alpha, beta,
            alpha1=_r4(rng.uniform(0.5, 2.0)), beta1=_r4(rng.uniform(0.1, 2.0)),
        )
        spec["n"] = n
        out.append(spec)
    return out


# --- per-run draws ------------------------------------------------------------


def _rng(seed: int, workload: str, pass_index: int | None = None) -> random.Random:
    return random.Random(f"{seed}-{workload}-{pass_index}")


def deep_pass(seed: int, pass_index: int) -> list[dict]:
    """One pass of deep_nonlinear: every pool point of every kind at every n,
    with one op per (kind, n) respelled.

    Every pass holds the same (kind, point, n) triples, so a run's mix of
    cheap and costly ops does not depend on the seed.  The seed picks which
    point of each (kind, n) is respelled, rotates the respelling so that each
    n gets all three across the kinds, and fixes the order of the ops.
    """
    rng = _rng(seed, "deep_nonlinear", pass_index)
    spelling_offset = rng.randrange(len(RESPELLINGS))
    ops = []
    for k, kind in enumerate(DEEP_KINDS):
        points = kind_points(kind)
        for j, n in enumerate(DEEP_NS):
            respelled = rng.randrange(len(points))
            for i, (alpha, beta) in enumerate(points):
                spelling = "plain"
                if i == respelled:
                    spelling = RESPELLINGS[(spelling_offset + k + j) % len(RESPELLINGS)]
                spec = problem_spec(int(kind[1]), alpha, beta, spelling=spelling)
                spec["n"] = n
                ops.append(spec)
    rng.shuffle(ops)
    return ops


def table_pass(seed: int, pass_index: int) -> list[list[str]]:
    """One pass of published_tables: the five table commands in seeded order."""
    rng = _rng(seed, "published_tables", pass_index)
    ops = [table_argv(example, beta) for example, beta in TABLES]
    rng.shuffle(ops)
    return ops


def table_argv(example: int, beta: float) -> list[str]:
    return [
        "table", "--example", str(example), "--betas", repr(beta),
        "--alphas", ",".join(repr(a) for a in PUBLISHED_ALPHAS),
        "--ns", ",".join(str(n) for n in TABLE_NS), "--grid", str(GRID),
    ]


def robin_files(seed: int) -> list[dict]:
    """The problem files one cli_robin_files run writes, a few per stratum."""
    rng = _rng(seed, "cli_robin_files")
    return [spec for kind, n in CLI_STRATA
            for spec in rng.sample(robin_candidates(kind, n), ROBIN_FILES_PER_STRATUM)]


def robin_pass(seed: int, pass_index: int, count: int) -> list[int]:
    """Order in which one pass visits the run's files (solve, then residual)."""
    order = list(range(count))
    _rng(seed, "cli_robin_files", pass_index).shuffle(order)
    return order


def dump(workload: str, seed: int, passes: int = 3) -> bytes:
    """Canonical bytes of the first ``passes`` passes a seed generates."""
    if workload == "deep_nonlinear":
        data = [deep_pass(seed, i) for i in range(passes)]
    elif workload == "published_tables":
        data = [table_pass(seed, i) for i in range(passes)]
    elif workload == "cli_robin_files":
        files = robin_files(seed)
        data = {
            "files": [problem_file_text(s) for s in files],
            "n": [s["n"] for s in files],
            "passes": [robin_pass(seed, i, len(files)) for i in range(passes)],
        }
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return json.dumps(data, sort_keys=True).encode()
