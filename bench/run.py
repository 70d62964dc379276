"""Benchmark of the adomian_bvp solve pipeline, end to end and per layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload deep_nonlinear --seed 1 --seconds 14 --trace 0
    python3 bench/run.py                 # every workload, untraced then traced
    python3 bench/run.py --roadmap       # quick ROADMAP baseline table, not gated
    python3 bench/run.py --record        # re-record reference.json at this commit

Each workload runs in a fresh, single-threaded Python process (``worker.py``)
as a closed loop with one caller: the next op starts when the previous one has
returned and been checked.  Every op's output is checked; a failed check, an
exception or a nonzero exit counts as a failed op.  The last line of output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics from a
separate traced run with ``--trace 1``.

The gated times are wall times scaled to a fixed reference speed by a probe
timed right before and after each op and each set-up (``speed.py``): on a
host shared with other tenants one process's speed can swing by 1.5x with
their load.  The raw wall times are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import inputs  # noqa: E402
import speed  # noqa: E402
from spans import PER_LAYER  # noqa: E402

SETUP_RUNS = 7  # fresh processes that only set up, for the setup_s median
SETUP_PROBE_REPEATS = 10  # speed probes before and after each of them
DEADLINE_S = 170.0  # a run must end within 180 s
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile

# name, unit, better: the gated end-to-end metrics, in output order.
END_TO_END = (
    ("latency_ms_p50", "ms", "lower"),
    ("latency_ms_tail", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def run_worker(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run ``worker.py`` in a fresh process; return its JSON and its set-up time.

    Set-up time runs from just before the process is started to the moment
    the worker is ready for its first op.  CLOCK_MONOTONIC is system-wide on
    Linux, so the two stamps come from the same clock.
    """
    env = dict(os.environ, **WORKER_ENV)
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed nothing")
    result = json.loads(lines[-1])
    return result, result.get("ready", started) - started


def tail(latencies_ms: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the highest ladder percentile with
    at least ten samples beyond it, by nearest rank; the maximum if none has."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0


def time_metrics(latencies_s: list[float], failed: int, setups: list[float]) -> dict:
    latencies_ms = [s * 1e3 for s in latencies_s]
    return {
        "latency_ms_p50": statistics.median(latencies_ms),
        "latency_ms_tail": tail(latencies_ms)[1],
        # Successful ops per second spent in ops; the untimed checks and
        # probes between ops are left out.
        "ops_per_s": (len(latencies_s) - failed) / sum(latencies_s),
        "setup_s": statistics.median(setups),
    }


def end_to_end(result: dict, setups: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    """The gated metrics, from times scaled to the reference speed, and the
    lines that print them beside the raw wall times."""
    attempted, failed = len(result["latencies_s"]), result["failed"]
    values = time_metrics(result["scaled_latencies_s"], failed, [s for _, s in setups])
    values["peak_rss_mb"] = result["peak_rss_mb"]
    raw = time_metrics(result["latencies_s"], failed, [r for r, _ in setups])
    p, _, beyond = tail(result["latencies_s"])
    worst = max(result["max_errors"], default=float("nan"))
    notes = {
        "latency_ms_tail": f"(p{p:g}, {attempted} samples, {beyond} beyond)",
        "setup_s": f"(median of {len(setups)} fresh processes)",
    }
    lines = [f"  {'':<18} reference speed (gated); raw wall time in brackets"]
    for name, unit, _ in END_TO_END:
        shown = f"{values[name]:.6g} {unit}"
        if name in raw:
            shown += f" [{raw[name]:.6g}]"
        lines.append(f"  {name:<18} {shown} {notes.get(name, '')}".rstrip())
        if name == "ops_per_s":
            lines.append(f"  {'max_error_worst':<18} {worst:.6g} abs "
                         f"(grid {inputs.GRID}, {len(result['max_errors'])} outputs checked)")
            lines.append(f"  {'fail_ratio':<18} {failed / attempted:.6g} ratio "
                         f"({failed}/{attempted})")
    return values, lines


def per_layer(result: dict) -> list[str]:
    metrics = result["per_layer"]
    lines = [f"  {name:<40} {metrics[name]:.6g} {unit}" for name, unit, _ in PER_LAYER]
    lines.append("  size census (means per solve; raw = pairwise product terms):")
    lines.append("    step  solves  A_k terms  y_(k+1) terms  raw terms  raw peak")
    for k, solves, a, y, raw, peak in result["census"]:
        lines.append(f"    {k:>4}  {solves:>6}  {a:>9.1f}  {y:>13.1f}  {raw:>9.0f}  {peak:>8}")
    return lines


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 max_ops: int | None, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []  # (raw, scaled) seconds
    for _ in range(0 if trace else SETUP_RUNS):
        before = speed.probe(SETUP_PROBE_REPEATS)
        setup = run_worker(common + ["--setup-only"], deadline)[1]
        after = speed.probe(SETUP_PROBE_REPEATS)
        setups.append((setup, speed.scaled(setup, before, after)))
    extra = ["--seconds", repr(seconds), "--trace", str(trace)]
    if max_ops:
        extra += ["--max-ops", str(max_ops)]
    result, _ = run_worker(common + extra, deadline)

    attempted = len(result["latencies_s"])
    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {trace}  "
          f"closed loop, 1 caller")
    if trace:
        metrics = result["per_layer"]
        lines = per_layer(result)
    else:
        metrics, lines = end_to_end(result, setups)
    print("\n".join(lines))
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    units = {name: unit for name, unit, _ in (PER_LAYER if trace else END_TO_END)}
    return {
        "correct": result["failed"] == 0,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, help="stop after this many ops (smoke runs)")
    parser.add_argument("--roadmap", action="store_true",
                        help="time the ROADMAP baseline rows (not gated)")
    parser.add_argument("--record", action="store_true",
                        help="re-record reference.json from the code in this checkout")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "adomian_bvp" / "__init__.py").is_file():
        print(f"error: no adomian_bvp package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.record:
            run_worker(["--record"], time.monotonic() + 3600.0)
            print(f"wrote {HERE / 'reference.json'}")
            return 0
        if args.roadmap:
            result, _ = run_worker(["--roadmap"], deadline)
            print(f"{'solve (alpha = 0.5)':<24} {'n':>3} {'median ms':>10} "
                  f"{'min ms':>9} {'repeats':>7} {'ROADMAP ms':>10}")
            for row in result["roadmap"]:
                print(f"{row['row']:<24} {row['n']:>3} {row['median_ms']:>10.1f} "
                      f"{row['min_ms']:>9.1f} {row['repeats']:>7} {row['roadmap_ms']:>10}")
            return 0
        if args.workload != "all":
            out = run_workload(args.workload, args.seed, args.seconds, args.trace,
                               args.max_ops, deadline)
            print(json.dumps(out))
            return 0
        correct = True
        for workload in inputs.WORKLOADS:
            for trace in (0, 1):
                out = run_workload(workload, args.seed, args.seconds, trace, args.max_ops,
                                   time.monotonic() + DEADLINE_S)
                correct &= out["correct"]
        print(json.dumps({"correct": correct}))
        return 0
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
