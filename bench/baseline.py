"""Run every workload on several seeds and record the spread of each metric.

    python3 bench/baseline.py --seeds 10            # print the summary
    python3 bench/baseline.py --seeds 10 --write    # also write baseline.json
    python3 bench/baseline.py --seeds 10 --first-seed 11   # a second set

For each end-to-end metric it reports the median of the per-run values and
the spread, (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``; a change is comparable with the
baseline only when both were measured with the same ``--seconds``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import inputs  # noqa: E402
import speed  # noqa: E402
from run import END_TO_END  # noqa: E402

# Which end-to-end metrics each layer's metrics should move, and on which
# workload that layer does most (mostly_on) and least (little_on) work.
LAYER_MAP = {
    "expressions": {"moves": ["latency_ms_p50", "ops_per_s"],
                    "mostly_on": ["deep_nonlinear"], "little_on": ["cli_robin_files"]},
    "lambda_ring": {"moves": ["latency_ms_p50", "latency_ms_tail", "ops_per_s"],
                    "mostly_on": ["deep_nonlinear"], "little_on": ["cli_robin_files"]},
    "series": {"moves": ["latency_ms_p50"],
               "mostly_on": ["deep_nonlinear", "cli_robin_files"], "little_on": [],
               "note": "raw-term volume matters on the large series of deep_nonlinear, "
                       "per-call cost on the small series of cli_robin_files"},
    "singular_operator": {"moves": ["latency_ms_p50"],
                          "mostly_on": ["cli_robin_files", "published_tables"],
                          "little_on": ["deep_nonlinear"]},
    "solver": {"moves": ["ops_per_s"],
               "mostly_on": ["published_tables"], "little_on": ["deep_nonlinear"],
               "note": "solver.self_s and solver.partial_sum.s move ops_per_s"},
    "diagnostics": {"moves": ["latency_ms_p50", "ops_per_s"],
                    "mostly_on": ["published_tables", "cli_robin_files"],
                    "little_on": ["deep_nonlinear"],
                    "note": "max_error on published_tables, residual on cli_robin_files; "
                            "deep_nonlinear checks accuracy untimed"},
    "problem_file": {"moves": ["latency_ms_p50"],
                     "mostly_on": ["cli_robin_files"],
                     "little_on": ["deep_nonlinear", "published_tables"]},
    "cli": {"moves": ["latency_ms_p50"],
            "mostly_on": ["cli_robin_files", "published_tables"],
            "little_on": ["deep_nonlinear"]},
    "trace": {"moves": [], "mostly_on": inputs.WORKLOADS, "little_on": [],
              "note": "trace.overhead_ratio qualifies the per-layer numbers"},
}


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "platform": platform.platform()}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "runs": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--workload", choices=inputs.WORKLOADS, action="append")
    parser.add_argument("--write", action="store_true", help="write baseline.json")
    args = parser.parse_args()

    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    results = {}
    for workload in args.workload or inputs.WORKLOADS:
        runs = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", repr(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=True)
            out = json.loads(proc.stdout.splitlines()[-1])
            if not out["correct"]:
                print(proc.stdout, file=sys.stderr)
            runs.append(out)
        results[workload] = {
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": {name: summary([r["metrics"][name]["value"] for r in runs])
                        for name, _, _ in END_TO_END},
        }
        for name, unit, _ in END_TO_END:
            s = results[workload]["metrics"][name]
            print(f"{workload:<18} {name:<16} median {s['median']:<10.5g} {unit:<4} "
                  f"spread {s['spread']:.3f}  runs "
                  + " ".join(f"{v:.4g}" for v in s["runs"]))
        print(f"{workload:<18} failed {results[workload]['failed']}"
              f"/{results[workload]['attempted']}")
    if args.write:
        doc = {"machine": machine(), "seconds": args.seconds, "seeds": seeds,
               "speed_reference_s": speed.REFERENCE_S,
               "layer_map": LAYER_MAP, "workloads": results}
        (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n",
                                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
