"""Command-line front end.

Subcommands:

* ``solve FILE``      run the recursion on a problem file, print components
* ``table``           maximum-error tables for the built-in benchmarks
* ``residual FILE``   pointwise equation residual of the partial sum

Exit codes: 0 success, 1 stdout cannot be written, 2 usage error, 3 input
error (file or expression), 4 computation error (resonance, blow-up).
Errors are printed to stderr as ``error: Code(detail)``; a closed pipe on
stdout exits 1 silently.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

from .benchmarks import BENCHMARK_IDS, BETA_FAMILIES, benchmark_problem
from .diagnostics import format_error_table, max_error, residual
from .errors import AdmError, InputError, InvalidValue
from .problem_file import dump_problem, load_problem
from .series import format_series
from .solver import SolveReport, partial_sum, solve

OUTPUT_ERROR, USAGE_ERROR, INPUT_ERROR, COMPUTE_ERROR = 1, 2, 3, 4


def _print_solve_text(report: SolveReport, err) -> None:
    for k, comp in enumerate(report.components):
        print(f"y_{k}: {format_series(comp)}")
    print(f"psi_{report.n}: {format_series(report.psi)}")
    if err is not None:
        print(f"E^{report.n}: {err.max_error:.5e} at x = {err.max_point:g}")


def _print_solve_json(report: SolveReport, err) -> None:
    payload = {
        "n": report.n,
        "components": [c.terms for c in report.components],
        "psi": report.psi.terms,
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
            try:
                with open(args.dump_config, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as err:
                raise InvalidValue(f"{args.dump_config}: cannot write ({err.strerror})") from None
        return 0
    report = solve(problem, args.n)
    err = None
    if problem.exact is not None:
        err = max_error(report.psi, problem.exact, args.grid)
    if args.emit == "json":
        _print_solve_json(report, err)
    else:
        _print_solve_text(report, err)
    return 0


def _cmd_table(args) -> int:
    ns, alphas = sorted(set(args.ns)), list(dict.fromkeys(args.alphas))
    takes_beta = args.example in BETA_FAMILIES
    for beta in dict.fromkeys(args.betas if takes_beta else args.betas[:1]):
        cells = {}
        for alpha in alphas:
            problem = benchmark_problem(args.example, alpha, beta)
            report = solve(problem, max(ns))
            for n in ns:
                err = max_error(partial_sum(report, n), problem.exact, args.grid)
                cells[(alpha, n)] = err.max_error
        label = f", beta = {beta:g}" if takes_beta else ""
        print(f"# example {args.example}{label}, grid = {args.grid}")
        print(format_error_table(alphas, ns, cells))
    return 0


def _residual_listing(pairs: list[tuple[float, float]]) -> str:
    """One ``x  r`` line per pair, then the largest |r| and the first x where it occurs."""
    sizes = [abs(r) for _, r in pairs]
    worst = sizes.index(max(sizes))
    return (("%.6f  % .10e\n" * len(pairs)) % tuple(itertools.chain.from_iterable(pairs))
            + f"max |residual|: {sizes[worst]:.5e} at x = {pairs[worst][0]:g}\n")


def _cmd_residual(args) -> int:
    problem = load_problem(args.file)
    report = solve(problem, args.n)
    sys.stdout.write(_residual_listing(residual(report.psi, problem, args.grid)))
    return 0


def _nonempty(values: list) -> list:
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list of at least one value")
    return values


def _float_list(text: str) -> list[float]:
    return _nonempty([float(part) for part in text.split(",") if part.strip()])


def _int_list(text: str) -> list[int]:
    return _nonempty([int(part) for part in text.split(",") if part.strip()])


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose ``--help`` fails like any other output.

    argparse drops the OSError of its own writes, which would let ``--help``
    to a full or closed stdout exit 0.  Usage errors on stderr keep that.
    """

    def print_help(self, file=None) -> None:
        (file or sys.stdout).write(self.format_help())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use; do not mutate it."""
    parser = _Parser(
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


def _dispatch(args) -> int:
    """Run the chosen command; a structured error becomes its exit status."""
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


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            return _dispatch(build_parser().parse_args(argv))
        finally:
            sys.stdout.flush()  # a write failure surfaces here, not at interpreter exit
    except BrokenPipeError:
        return OUTPUT_ERROR  # the reader has gone: nothing left to tell
    except OSError as err:  # inputs turn their own OSErrors into InputError
        print(f"error: OutputError({err.strerror})", file=sys.stderr)
        return OUTPUT_ERROR


def entry_point() -> None:
    status = main()
    if status == OUTPUT_ERROR:
        # stdout is gone: let the interpreter's exit-time flush of what is
        # still buffered go to devnull instead of failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(status)


if __name__ == "__main__":
    entry_point()
