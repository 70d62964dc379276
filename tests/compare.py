"""Outcomes of the working tree against a parent version of the package, on seeded inputs.

    python tests/compare.py PARENT --sweep [--sources N]

PARENT is a git revision, whose ``src/adomian_bvp`` is extracted with ``git archive``, or a
directory that holds ``adomian_bvp``.  The parent package is loaded beside the working tree's
as ``adomian_bvp_parent``, and both run the same cases in one process:

* psi of every deep-pool point of ``bench/inputs.py`` at n = 12 and 16, in all four spellings
  of exp(y) and as the tree ``benchmark_problem`` builds;
* stdout, stderr and exit code of ``solve --emit json``, ``residual`` and
  ``solve --dump-config -`` on each problem file of the ``cli_robin_files`` pool;
* ``cli table`` of families 1-3, negative betas included;
* N seeded random sources through ``parse``, ``to_source``, ``eval_real`` and ``solve``.

Each difference is printed with its class: ``value`` (numbers or printed results differ),
``error`` (one side fails where the other does not, or fails with another error) or ``text``
(the same outcome, with another text: an expression's source or an error's message).  The
exit status is 1 if there is any difference.  pytest does not collect this file;
``tests/test_compare.py`` runs a small sweep of the working tree against itself.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import random
import re
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DEEP_NS = (12, 16)
# (example, betas): the published betas of each family, then negative ones
TABLES = ((1, "1,3.5"), (1, "-0.5"), (1, "-1e-300,-0.0"), (2, "1"), (2, "-0.5"), (2, "-2.5"),
          (3, "1,2.5"), (3, "-0.5"), (3, "-1e-300,-0.0"))
GRID_X = np.linspace(0.0, 1.0, 9)
GRID_Y, GRID_YP = 0.5 - GRID_X, 2.0 * GRID_X - 1.0


class Outcome(NamedTuple):
    kind: str  # "value" or "error"
    key: object  # the value's bytes, or the error's type name
    text: str  # the printed result or the error's message


class Difference(NamedTuple):
    kind: str  # "value", "error" or "text"
    pool: str
    case: str
    parent: Outcome
    child: Outcome


def _load(name: str, path: Path):
    """The module of file ``path``, or the package of directory ``path``, imported as ``name``."""
    if path.is_dir():
        spec = importlib.util.spec_from_file_location(
            name, path / "__init__.py", submodule_search_locations=[str(path)])
    else:
        spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_parent(parent: str, scratch: Path):
    """``adomian_bvp_parent``: the package of directory ``parent``, or of git revision ``parent``
    extracted into ``scratch``."""
    if (Path(parent) / "adomian_bvp").is_dir():
        return _load("adomian_bvp_parent", Path(parent) / "adomian_bvp")
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", parent, "src/adomian_bvp"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(scratch, filter="data")
    return _load("adomian_bvp_parent", scratch / "src" / "adomian_bvp")


def _bits(value) -> bytes:
    if hasattr(value, "coeffs"):  # a series
        return value.coeffs.tobytes() + b"|" + value.exponents.tobytes()
    return np.asarray(value, dtype=float).tobytes()


def _outcome(run: Callable[[], Outcome | tuple[object, str]], api) -> Outcome:
    """run's Outcome, or the value Outcome of the (key, text) it returns, or its AdmError's."""
    try:
        with np.errstate(all="ignore"):
            result = run()
    except api.errors.AdmError as err:
        return Outcome("error", type(err).__name__, str(err))
    return result if isinstance(result, Outcome) else Outcome("value", *result)


def _cli(api, argv: list[str]) -> Outcome:
    """``cli.main`` in process: an error if it exits other than 0, keyed by the exit code and
    the error's name, with stdout and stderr as its text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = api.cli.main(argv)
        except SystemExit as exit_:  # a usage error
            code = exit_.code
    return Outcome("error" if code else "value", (code, err.getvalue().partition("(")[0]),
                   out.getvalue() + err.getvalue())


def _classify(parent: Outcome, child: Outcome, printed: bool) -> str | None:
    """The class of a difference, or None; ``printed`` if the text is an expression's source."""
    if parent == child:
        return None
    if parent.kind != child.kind or parent.key != child.key:
        return "value" if parent.kind == child.kind == "value" else "error"
    return "text" if printed or parent.kind == "error" else "value"


def _deep(api, inputs, limit) -> Iterator[tuple[str, Callable]]:
    cases = []
    for kind in inputs.DEEP_KINDS:
        for alpha, beta in inputs.kind_points(kind):
            cases += [(kind, alpha, beta, spelling, n)
                      for spelling in [*inputs.SPELLINGS, "built"] for n in DEEP_NS]
    for kind, alpha, beta, spelling, n in cases[:limit]:
        def run(kind=kind, alpha=alpha, beta=beta, spelling=spelling, n=n):
            if spelling == "built":
                problem = api.benchmarks.benchmark_problem(int(kind[1]), alpha, beta)
            else:
                spec = inputs.problem_spec(int(kind[1]), alpha, beta, spelling=spelling)
                problem = api.problem_file.parse_problem_text(inputs.problem_file_text(spec))
            psi = api.solver.solve(problem, n).psi
            return _bits(psi), ""
        yield f"{kind} alpha={alpha!r} beta={beta!r} {spelling} n={n}", run


def _robin(api, inputs, limit, folder: Path) -> Iterator[tuple[str, Callable]]:
    specs = [spec for kind, n in inputs.CLI_STRATA for spec in inputs.robin_candidates(kind, n)]
    for i, spec in enumerate(specs[:limit]):
        path = folder / f"robin_{i}.prob"
        if not path.exists():
            path.write_text(inputs.problem_file_text(spec), encoding="utf-8")
        for argv in (["solve", str(path), "--n", str(spec["n"]), "--emit", "json"],
                     ["residual", str(path), "--n", str(spec["n"])],
                     ["solve", str(path), "--dump-config", "-"]):
            yield " ".join([path.name, *argv[2:]]), lambda argv=argv: _cli(api, argv)


def _tables(api, inputs, limit) -> Iterator[tuple[str, Callable]]:
    for example, betas in TABLES[:limit]:
        argv = ["table", "--example", str(example), f"--betas={betas}",
                "--alphas", ",".join(map(repr, inputs.PUBLISHED_ALPHAS)),
                "--ns", ",".join(map(str, inputs.TABLE_NS)), "--grid", str(inputs.GRID)]
        yield " ".join(argv[1:4]), lambda argv=argv: _cli(api, argv)


def random_source(rng: random.Random, depth: int = 0) -> str:
    """A seeded expression text: literals of any sign, spelled several ways, under every
    operator; some of it outside the grammar."""
    if depth >= 3 or rng.random() < 0.35:
        leaf = rng.choice(["x", "y", "yp", "x", "y", "yp", "0", "1", "2", "0.5", ".25", "1e-3",
                           "3.", "1e308", "0.0", repr(round(rng.uniform(0.0, 4.0), 3))])
        if leaf[0].isdigit() or leaf[0] == ".":
            leaf = "-" * rng.choice([0, 0, 1, 1, 2, 3]) + leaf
            leaf = rng.choice([leaf, f"({leaf})", f"-({leaf})", f"-(-{leaf})"])
        return leaf
    a, b = random_source(rng, depth + 1), random_source(rng, depth + 1)
    return rng.choice([
        f"exp({a})", f"ln({a})", f"-{a}", f"-({a})", f"({a})^{rng.randint(-2, 3)}",
        f"x^{rng.choice(['-', ''])}{rng.choice(['0.5', '2', '1.5', '3'])}",
        f"{a} {rng.choice('+-*/')} {b}", f"({a}) {rng.choice('+-*/')} ({b})", f"{a}*{b}",
    ])


def _sources(api, count: int, seed: int) -> Iterator[tuple[str, Callable]]:
    rng = random.Random(seed)
    for source in [random_source(rng) for _ in range(count)]:
        def tree(source=source):
            return api.expressions.parse(source)

        def printed(source=source):
            return None, api.expressions.to_source(tree(source))

        def values(source=source):
            return _bits(api.expressions.eval_real(tree(source), GRID_X, GRID_Y, GRID_YP)), ""

        def solved(source=source):
            problem = api.solver.Problem(alpha=0.5, sigma=0.0, f=tree(source), eta1=0.5,
                                         alpha1=1.0, beta1=0.0, gamma1=1.0)
            return _bits(api.solver.solve(problem, 4).psi), ""

        yield f"{source!r} to_source", printed
        yield f"{source!r} eval_real", values
        yield f"{source!r} solve", solved


def sweep(parent, child, sources: int = 4000, limit: int | None = None,
          seed: int = 20171108) -> tuple[int, list[Difference]]:
    """The number of cases and the differences of the parent's and the child's outcomes.
    ``limit`` keeps the first so many cases of each pool but the random sources."""
    inputs = _load("bench_inputs", ROOT / "bench" / "inputs.py")
    for api in (parent, child):
        for name in ("benchmarks", "cli", "errors", "expressions", "problem_file", "solver"):
            importlib.import_module(f"{api.__name__}.{name}")
    cases, differences = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        pools = {
            "deep": lambda api: _deep(api, inputs, limit),
            "robin": lambda api: _robin(api, inputs, limit, Path(tmp)),
            "table": lambda api: _tables(api, inputs, limit),
            "sources": lambda api: _sources(api, sources, seed),
        }
        for pool, build in pools.items():
            for (case, run_parent), (_, run_child) in zip(build(parent), build(child)):
                cases += 1
                pair = _outcome(run_parent, parent), _outcome(run_child, child)
                kind = _classify(*pair, printed=case.endswith("to_source")
                                 or "--dump-config" in case)
                if kind:
                    differences.append(Difference(kind, pool, case, *pair))
    return cases, differences


def _one_minus_per_literal(text: str) -> str:
    """text with each run of minus signs right before a number cut to its parity: how a
    literal negated more than once prints when the parser folds it into one literal."""
    return re.sub(r"-+(?=[0-9.])", lambda m: "-" * (len(m[0]) % 2), text)


def _short(outcome: Outcome) -> str:
    text = outcome.text if len(outcome.text) <= 160 else outcome.text[:157] + "..."
    return f"{outcome.kind} {outcome.key if outcome.kind == 'error' else ''}{text!r}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="a git revision, or a directory that holds adomian_bvp")
    parser.add_argument("--sweep", action="store_true", required=True,
                        help="compare outcomes on the seeded inputs")
    parser.add_argument("--sources", type=int, default=4000, help="random sources to compare")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import adomian_bvp as child

    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        parent = load_parent(args.parent, Path(scratch))
        cases, differences = sweep(parent, child, args.sources)
    for d in differences:
        print(f"{d.kind:5}  {d.pool}  {d.case}\n       parent: {_short(d.parent)}\n"
              f"       child:  {_short(d.child)}")
    counts = {kind: sum(d.kind == kind for d in differences) for kind in ("value", "error", "text")}
    folded = sum(d.kind == "text" and _one_minus_per_literal(d.parent.text) == d.child.text
                 for d in differences)
    print(f"{cases} cases in {time.perf_counter() - started:.1f} s; differences: "
          + ", ".join(f"{kind} {count}" for kind, count in counts.items())
          + f"; text differences that are only literals negated more than once: {folded}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
