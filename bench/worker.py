"""One benchmark process: set up one workload, run it, check every output.

Started by ``run.py`` in a fresh interpreter so that imports and input
generation count towards set-up time.  It prints one JSON object, the raw
samples, as the only line of its standard output; ``run.py`` turns the
samples into metrics.  The package is imported from ``src/`` of the same
checkout and is called only through its public functions, looked up at call
time so that the tracer's wrappers see every call.

Also hosts the two maintenance modes: ``--record`` writes ``reference.json``
(the per-instance accuracy record) and ``--roadmap`` times the ROADMAP's
baseline rows.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORK = HERE / ".work"
HARD_STOP_FACTOR = 5.0
HARD_STOP_S = 80.0

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import inputs  # noqa: E402
import speed  # noqa: E402
from spans import Tracer  # noqa: E402


def import_package():
    """Import ``adomian_bvp`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import adomian_bvp
    import adomian_bvp.cli

    if not Path(adomian_bvp.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"adomian_bvp imported from {adomian_bvp.__file__}, not {SRC}")
    return adomian_bvp


def instance_key(spec: dict) -> str:
    return "|".join(
        f"{k}={spec[k]!r}"
        for k in ("family", "alpha", "beta", "alpha1", "beta1", "spelling", "n"))


def table_key(example: int, beta: float) -> str:
    return f"example={example}|beta={beta!r}"


def psi_pairs(series) -> list[tuple[float, float]]:
    return [(t.coeff, t.exponent) for t in series.terms]


def make_problem(api, spec: dict):
    """The library ``Problem`` for a spec from ``inputs.problem_spec``."""
    return api.Problem(
        alpha=spec["p_exponent"], sigma=spec["q_exponent"], f=api.parse(spec["f"]),
        eta1=spec["eta1"], alpha1=spec["alpha1"], beta1=spec["beta1"], gamma1=spec["gamma1"],
    )


def run_cli(api, argv: list[str]) -> tuple[int, str, str]:
    """``cli.main`` in process with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = api.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    # output -> (failures, max_error or None)
    check: Callable[[object], tuple[list[str], float | None]]


# --- workloads ---------------------------------------------------------------


class DeepNonlinear:
    """Library ``solve`` on families 1 and 2 at n = 12..16."""

    def __init__(self, api, seed: int, reference: dict):
        self.api, self.seed, self.recorded = api, seed, reference["max_error"]
        self.problems = {}
        for kind in inputs.DEEP_KINDS:
            for alpha, beta in inputs.kind_points(kind):
                for spelling in inputs.SPELLINGS:
                    spec = inputs.problem_spec(int(kind[1]), alpha, beta, spelling=spelling)
                    self.problems[self._problem_key(spec)] = make_problem(api, spec)

    @staticmethod
    def _problem_key(spec: dict) -> tuple:
        return spec["family"], spec["alpha"], spec["beta"], spec["spelling"]

    def pass_ops(self, index: int) -> list[Op]:
        return [self.op(spec) for spec in inputs.deep_pass(self.seed, index)]

    def op(self, spec: dict) -> Op:
        problem = self.problems[self._problem_key(spec)]
        n, api = spec["n"], self.api

        def check(report):
            pairs = psi_pairs(report.psi)
            err = checks.grid_max_error(pairs, spec)
            bad = checks.boundary_failures(pairs, spec)
            acc = checks.accuracy_failure(err, self.recorded.get(instance_key(spec)))
            return bad + ([acc] if acc else []), err

        return Op(instance_key(spec), lambda: api.solve(problem, n), check)


class PublishedTables:
    """``cli.main(["table", ...])`` for the paper's five tables."""

    def __init__(self, api, seed: int, reference: dict):
        self.api, self.seed, self.recorded = api, seed, reference["tables"]

    def pass_ops(self, index: int) -> list[Op]:
        return [self.op(argv) for argv in inputs.table_pass(self.seed, index)]

    def op(self, argv: list[str]) -> Op:
        key = table_key(int(argv[2]), float(argv[4]))

        def check(output):
            code, out, err = output
            if code != 0:
                return [f"exit {code}: {err.strip()}"], None
            try:
                cells = checks.parse_table(out)
            except ValueError as exc:
                return [f"unparseable table: {exc}"], None
            bad = checks.table_failures(
                cells, inputs.PUBLISHED_ALPHAS, inputs.TABLE_NS, self.recorded.get(key))
            return bad, max(cells.values(), default=None)

        return Op(key, lambda: run_cli(self.api, argv), check)


class CliRobinFiles:
    """``cli.main`` solve (JSON) and residual on seeded Robin problem files."""

    def __init__(self, api, seed: int, reference: dict, workdir: Path):
        self.api, self.seed, self.recorded = api, seed, reference["max_error"]
        self.specs = inputs.robin_files(seed)
        self.paths = []
        for i, spec in enumerate(self.specs):
            path = workdir / f"robin_{i:02d}.prob"
            path.write_text(inputs.problem_file_text(spec), encoding="utf-8")
            self.paths.append(str(path))

    def pass_ops(self, index: int) -> list[Op]:
        ops = []
        for i in inputs.robin_pass(self.seed, index, len(self.specs)):
            ops += [self.solve_op(i), self.residual_op(i)]
        return ops

    def solve_op(self, i: int) -> Op:
        spec = self.specs[i]
        argv = ["solve", self.paths[i], "--n", str(spec["n"]), "--emit", "json"]

        def check(output):
            code, out, err = output
            if code != 0:
                return [f"exit {code}: {err.strip()}"], None
            try:
                payload = json.loads(out)
                pairs = [(float(c), float(e)) for c, e in payload["psi"]]
                reported = float(payload["max_error"])
            except (ValueError, KeyError, TypeError) as exc:
                return [f"unparseable JSON: {exc}"], None
            measured = checks.grid_max_error(pairs, spec)
            bad = checks.boundary_failures(pairs, spec)
            acc = checks.accuracy_failure(measured, self.recorded.get(instance_key(spec)))
            if acc:
                bad.append(acc)
            if not abs(reported - measured) <= checks.AGREEMENT_TOL:
                bad.append(f"reported max_error {reported:.6e} != checked {measured:.6e}")
            return bad, measured

        return Op("solve " + instance_key(spec), lambda: run_cli(self.api, argv), check)

    def residual_op(self, i: int) -> Op:
        spec = self.specs[i]
        argv = ["residual", self.paths[i], "--n", str(spec["n"]),
                "--grid", str(inputs.GRID)]

        def check(output):
            code, out, err = output
            if code != 0:
                return [f"exit {code}: {err.strip()}"], None
            return checks.residual_failures(out, inputs.GRID), None

        return Op("residual " + instance_key(spec), lambda: run_cli(self.api, argv), check)


# --- the measurement loop ----------------------------------------------------


@dataclass
class Sample:
    op: Op
    start: float  # perf_counter at the start of the op
    seconds: float
    probes: tuple[float, float]  # speed probes right before and right after it
    failures: list[str]
    max_error: float | None


def run_op(op: Op) -> Sample:
    """Time one op between two speed probes, then check its output."""
    before = speed.probe()
    start = time.perf_counter()
    try:
        output = op.call()
        failures = None
    except (Exception, SystemExit) as exc:  # a traceback or usage exit is a failed op
        failures = [f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    probes = (before, speed.probe())
    if failures:
        return Sample(op, start, elapsed, probes, failures, None)
    failures, err = op.check(output)
    return Sample(op, start, elapsed, probes, failures, err)


def scaled_seconds(samples: list[Sample]) -> list[float]:
    """Each sample's time at the reference speed of ``speed.py``."""
    probes = sorted(pair for s in samples
                    for pair in ((s.start, s.probes[0]), (s.start + s.seconds, s.probes[1])))
    return speed.scaled_all([(s.start, s.seconds) for s in samples], probes)


def run_passes(workload, seconds: float, max_ops: int | None) -> list[Sample]:
    """Whole passes until ``seconds`` have gone by.

    A pass in progress is cut only at ``HARD_STOP_FACTOR`` times ``seconds``
    (at most ``HARD_STOP_S``), so that the process always ends in time.
    """
    samples: list[Sample] = []
    start = time.perf_counter()
    index = 0
    while True:
        for op in workload.pass_ops(index):
            samples.append(run_op(op))
            if max_ops and len(samples) >= max_ops:
                return samples
            if time.perf_counter() - start >= min(HARD_STOP_FACTOR * seconds, HARD_STOP_S):
                return samples
        index += 1
        if time.perf_counter() - start >= seconds:
            return samples


def make_workload(name: str, api, seed: int, workdir: Path):
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if name == "deep_nonlinear":
        return DeepNonlinear(api, seed, reference)
    if name == "published_tables":
        return PublishedTables(api, seed, reference)
    if name == "cli_robin_files":
        return CliRobinFiles(api, seed, reference, workdir)
    raise SystemExit(f"unknown workload {name!r}")


def sample_summary(samples: list[Sample]) -> dict:
    failures = [f"{s.op.label}: {'; '.join(s.failures)}" for s in samples if s.failures]
    return {
        "latencies_s": [s.seconds for s in samples],
        "scaled_latencies_s": scaled_seconds(samples),
        "failed": len(failures),
        "failures": failures[:5],
        "max_errors": [s.max_error for s in samples if s.max_error is not None],
    }


def measure(args) -> dict:
    api = import_package()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        workload = make_workload(args.workload, api, args.seed, Path(tmp))
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
        if args.setup_only:
            return {"ready": ready}
        if not args.trace:
            result = sample_summary(run_passes(workload, args.seconds, args.max_ops))
        else:
            # Untraced passes for half the time, then the same ops again traced.
            plain = run_passes(workload, args.seconds / 2, args.max_ops)
            tracer = Tracer()
            with tracer:
                traced = [run_op(s.op) for s in plain]
            ratio = sum(scaled_seconds(traced)) / sum(scaled_seconds(plain))
            result = sample_summary(plain + traced)
            result["per_layer"] = tracer.metrics(ratio)
            result["census"] = tracer.census.rows()
    result["ready"] = ready
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


# --- maintenance modes -------------------------------------------------------


def record() -> dict:
    """Max_error of every pool instance and every table cell at this commit."""
    api = import_package()
    max_error, tables = {}, {}
    specs = []
    for kind in inputs.DEEP_KINDS:
        for alpha, beta in inputs.kind_points(kind):
            for spelling in inputs.SPELLINGS:
                for n in inputs.DEEP_NS:
                    spec = inputs.problem_spec(int(kind[1]), alpha, beta, spelling=spelling)
                    spec["n"] = n
                    specs.append(spec)
    for kind, n in inputs.CLI_STRATA:
        specs += inputs.robin_candidates(kind, n)
    for spec in specs:
        report = api.solve(make_problem(api, spec), spec["n"])
        pairs = psi_pairs(report.psi)
        bad = checks.boundary_failures(pairs, spec)
        if bad:
            print(f"{instance_key(spec)}: {bad}", file=sys.stderr)
        max_error[instance_key(spec)] = checks.grid_max_error(pairs, spec)
    for example, beta in inputs.TABLES:
        code, out, err = run_cli(api, inputs.table_argv(example, beta))
        if code != 0:
            raise SystemExit(f"table {example}/{beta} failed: {err}")
        cells = checks.parse_table(out)
        tables[table_key(example, beta)] = [
            [cells[(a, n)] for n in inputs.TABLE_NS] for a in inputs.PUBLISHED_ALPHAS]
    return {"max_error": max_error, "tables": tables}


# Indicative single-run milliseconds from ROADMAP.md (alpha = 0.5).
ROADMAP_ROWS = (
    ("family 1, beta = 1", 1, 1.0, (34, 222, 1041)),
    ("family 1, beta = 3.5", 1, 3.5, (30, 338, 2727)),
    ("family 2", 2, 1.0, (19, 194, 1449)),
    ("family 3, beta = 2.5", 3, 2.5, (4, 13, 27)),
)
ROADMAP_NS = (10, 15, 20)
ROADMAP_REPEATS = {10: 5, 15: 3, 20: 1}


def roadmap() -> list[dict]:
    api = import_package()
    rows = []
    for label, example, beta, indicative in ROADMAP_ROWS:
        problem = api.benchmarks.benchmark_problem(example, 0.5, beta)
        for n, ref in zip(ROADMAP_NS, indicative):
            times = []
            for _ in range(ROADMAP_REPEATS[n]):
                start = time.perf_counter()
                api.solve(problem, n)
                times.append(time.perf_counter() - start)
            rows.append({"row": label, "n": n, "median_ms": statistics.median(times) * 1e3,
                         "min_ms": min(times) * 1e3, "repeats": len(times),
                         "roadmap_ms": ref})
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--roadmap", action="store_true")
    args = parser.parse_args(argv)
    if args.record:
        REFERENCE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
        return 0
    if args.roadmap:
        result = {"roadmap": roadmap()}
    elif args.workload:
        result = measure(args)
    else:
        parser.error("one of --workload, --record, --roadmap is required")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
