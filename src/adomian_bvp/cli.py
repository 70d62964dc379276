"""Command-line front end.

Subcommands:

* ``solve FILE``      run the recursion on a problem file, print components
* ``table``           maximum-error tables for the built-in benchmarks
* ``residual FILE``   pointwise equation residual of the partial sum

Exit codes: 0 success, 2 usage error, 3 input error (file or expression),
4 computation error (resonance, blow-up, quadrature).  Errors are printed to
stderr as ``error: Code(detail)``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .benchmarks import BENCHMARK_IDS, benchmark_problem
from .diagnostics import format_error_table, max_error, residual
from .errors import AdmError, InputError
from .problem_file import dump_problem, load_problem
from .series import GPSeries, format_series
from .solver import SolveReport, partial_sum, solve

USAGE_ERROR, INPUT_ERROR, COMPUTE_ERROR = 2, 3, 4


def _series_pairs(s: GPSeries) -> list[list[float]]:
    return [[t.coeff, t.exponent] for t in s.terms]


def _print_solve_text(report: SolveReport, err) -> None:
    for k, comp in enumerate(report.components):
        print(f"y_{k}: {format_series(comp)}")
    print(f"psi_{report.n}: {format_series(report.psi)}")
    if err is not None:
        print(f"E^{report.n}: {err.max_error:.5e} at x = {err.max_point:g}")


def _print_solve_json(report: SolveReport, err) -> None:
    payload = {
        "n": report.n,
        "components": [_series_pairs(c) for c in report.components],
        "psi": _series_pairs(report.psi),
    }
    if err is not None:
        payload["max_error"] = err.max_error
        payload["max_point"] = err.max_point
    print(json.dumps(payload, indent=2))


def _cmd_solve(args) -> int:
    problem = load_problem(args.file)
    if args.dump_config is not None:
        text = dump_problem(problem)
        if args.dump_config == "-":
            sys.stdout.write(text)
        else:
            with open(args.dump_config, "w", encoding="utf-8") as fh:
                fh.write(text)
        return 0
    report = solve(problem, args.n)
    err = None
    if problem.exact is not None:
        err = max_error(report.psi, problem.exact, args.grid, n=report.n)
    if args.emit == "json":
        _print_solve_json(report, err)
    else:
        _print_solve_text(report, err)
    return 0


def _cmd_table(args) -> int:
    if args.example not in BENCHMARK_IDS:
        raise InputError(f"example must be one of {BENCHMARK_IDS}")
    ns = sorted(args.ns)
    for beta in args.betas:
        cells = {}
        for alpha in args.alphas:
            problem = benchmark_problem(args.example, alpha, beta)
            report = solve(problem, max(ns))
            for n in ns:
                err = max_error(partial_sum(report, n), problem.exact, args.grid, n=n)
                cells[(alpha, n)] = err.max_error
        if args.example != 2:
            print(f"# example {args.example}, beta = {beta:g}, grid = {args.grid}")
        else:
            print(f"# example 2, grid = {args.grid}")
        print(format_error_table(args.alphas, ns, cells))
        if args.example == 2:
            break  # family 2 has no beta parameter
    return 0


def _cmd_residual(args) -> int:
    problem = load_problem(args.file)
    report = solve(problem, args.n)
    pairs = residual(report.psi, problem, args.grid)
    for x, r in pairs:
        print(f"{x:.6f}  {r: .10e}")
    worst = max(pairs, key=lambda p: abs(p[1]))
    print(f"max |residual|: {abs(worst[1]):.5e} at x = {worst[0]:g}")
    return 0


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adomian-bvp",
        description="Series solutions of doubly singular two-point boundary value problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("file", help="problem file path")
    p_solve.add_argument("--n", type=int, default=10, help="number of components")
    p_solve.add_argument("--grid", type=int, default=1000, help="error grid size")
    p_solve.add_argument("--emit", choices=("text", "json"), default="text")
    p_solve.add_argument(
        "--dump-config",
        metavar="PATH",
        help="write the canonical problem file ('-' for stdout) and exit",
    )
    p_solve.set_defaults(handler=_cmd_solve)

    p_table = sub.add_parser("table", help="benchmark maximum-error table")
    p_table.add_argument("--example", type=int, required=True, choices=BENCHMARK_IDS)
    p_table.add_argument("--alphas", type=_float_list, default=[0.25, 0.5, 0.75])
    p_table.add_argument("--betas", type=_float_list, default=[1.0])
    p_table.add_argument("--ns", type=_int_list, default=[5, 8, 10])
    p_table.add_argument("--grid", type=int, default=1000)
    p_table.set_defaults(handler=_cmd_table)

    p_res = sub.add_parser("residual", help="pointwise equation residual")
    p_res.add_argument("file", help="problem file path")
    p_res.add_argument("--n", type=int, default=10)
    p_res.add_argument("--grid", type=int, default=1000)
    p_res.set_defaults(handler=_cmd_residual)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FileNotFoundError as err:
        print(f"error: FileNotFound({err.filename})", file=sys.stderr)
        return INPUT_ERROR
    except InputError as err:
        print(f"error: {err.code}({err})", file=sys.stderr)
        return INPUT_ERROR
    except AdmError as err:
        print(f"error: {err.code}({err})", file=sys.stderr)
        return COMPUTE_ERROR


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
