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
import os
import sys
from typing import Iterator

import numpy as np

from .benchmarks import BENCHMARK_IDS, BETA_FAMILIES, benchmark_problem
from .diagnostics import MAX_GRID_SIZE, _label, format_error_table, max_error
from .diagnostics import max_errors, residual_grid
from .diagnostics import residual  # noqa: F401 -- bench/spans.py WRAPPED looks it up here
from .errors import AdmError, InputError, InvalidValue
from .problem_file import dump_problem, load_problem, read_number
from .series import GPSeries, format_series
from .solver import SolveReport, check_count, partial_sum, solve

OUTPUT_ERROR, USAGE_ERROR, INPUT_ERROR, COMPUTE_ERROR = 1, 2, 3, 4


def _print_solve_text(report: SolveReport, err) -> None:
    for k, comp in enumerate(report.components):
        print(f"y_{k}: {format_series(comp)}")
    print(f"psi_{report.n}: {format_series(report.psi)}")
    if err is not None:
        print(f"E^{report.n}: {err.max_error:.5e} at x = {err.max_point:g}")


def _json_list(items: list[str], pad: str) -> str:
    """JSON texts as ``json.dumps(indent=2)`` writes their list at the indent ``pad``."""
    return (f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]") if items else "[]"


def _solve_json(report: SolveReport, err) -> str:
    """``json.dumps(payload, indent=2)`` of {n, components, psi[, max_error, max_point]}, each
    series a list of [coeff, exponent] lists; every float is finite, written as its ``repr``."""
    def series(s: GPSeries, pad: str) -> str:
        return _json_list([f"[\n{pad}    {c!r},\n{pad}    {e!r}\n{pad}  ]"
                           for c, e in zip(s.coeffs.tolist(), s.exponents.tolist())], pad)

    components = _json_list([series(c, "    ") for c in report.components], "  ")
    psi = series(report.psi, "  ")
    fields = [f'"n": {report.n}', f'"components": {components}', f'"psi": {psi}']
    if err is not None:
        fields += [f'"max_error": {err.max_error!r}', f'"max_point": {err.max_point!r}']
    return "{\n  " + ",\n  ".join(fields) + "\n}"


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
        print(_solve_json(report, err))
    else:
        _print_solve_text(report, err)
    return 0


def _cmd_table(args) -> int:
    """One max-error table per beta.  ``--grid`` is checked before the first solve; then
    each ``max_errors`` call measures the rows solved for it, as many as keep sums times grid
    within ``MAX_GRID_SIZE`` and at least one, against its last row's reference: every
    family's exact solution depends on beta only."""
    ns, alphas = sorted(set(args.ns)), list(dict.fromkeys(args.alphas))
    grid = check_count(args.grid, "grid_size", 1, MAX_GRID_SIZE)
    rows = max(1, MAX_GRID_SIZE // (len(ns) * grid))
    takes_beta = args.example in BETA_FAMILIES
    for beta in dict.fromkeys(args.betas if takes_beta else args.betas[:1]):
        errors = []
        for start in range(0, len(alphas), rows):
            sums = []
            for alpha in alphas[start:start + rows]:
                problem = benchmark_problem(args.example, alpha, beta)
                report = solve(problem, max(ns))
                sums += [partial_sum(report, n) for n in ns]
            errors += [err.max_error for err in max_errors(sums, problem.exact, grid)]
        cells = dict(zip(itertools.product(alphas, ns), errors))
        label = f", beta = {_label(beta)}" if takes_beta else ""
        print(f"# example {args.example}{label}, grid = {args.grid}")
        print(format_error_table(alphas, ns, cells))
    return 0


# A residual line.  Where x rounds into [0, 10) with its sign bit clear and r is a normal float
# of a two-digit exponent, it is the 28 bytes "d.dddddd  sd.dddddddddde+dd\n" of _TEMPLATE.
_LINE, _WIDTH = "%.6f  % .10e\n", 28
_TEMPLATE = b"0.000000   0.0000000000e+00\n"
# Four ASCII bytes each, read as one uint32: the digits of k = 0..9999, the digits of
# k = 0..999 as "d.dd", and "+dd\n" or "-dd\n" at e + 99 for each exponent e = -99..99.
_DIGITS = np.stack(np.meshgrid(*[np.frombuffer(b"0123456789", np.uint8)] * 4, indexing="ij"),
                   axis=-1).reshape(-1, 4)
_LEAD = np.column_stack((_DIGITS[:1000, 1], np.full(1000, ord("."), np.uint8), _DIGITS[:1000, 2:]))
_DIGITS, _LEAD = _DIGITS.view(np.uint32).ravel(), _LEAD.view(np.uint32).ravel()
_EXPONENT = np.frombuffer("".join(f"{e:+03d}\n" for e in range(-99, 100)).encode(), np.uint32)
_SCALE = np.array([float(f"1e{10 - e}") for e in range(-99, 100)])  # 10^(10 - e), rounded once
_PIECE_LINES = 10_000  # the most lines of one piece of the listing


def _fixed_rows(xs: np.ndarray, values: np.ndarray) -> tuple[str, np.ndarray]:
    """The lines of xs and values as one text of ``_WIDTH``-character rows, and a mask of the rows
    it settled, each ``_LINE % (x, r)``; an unsettled row holds some other 28 characters.

    x is read as rint(x*1e6), and r as E = floor(log10|r|) and M = rint(|r|*10^(10-E)), an M of
    10^11 carrying to 10^10 and E + 1.  A row is unsettled where its line is not 28 bytes: x
    does not round into [0, 10) or has its sign bit set, or r is zero, subnormal, not finite or
    of a three-digit exponent.  It is unsettled too where an estimate may round otherwise than
    its exact decimal.  x*1e6 is one rounding, and a tie (a half-integer) is a float, so the
    estimate lies on the exact value's side of a tie or on it.  M's estimate is two roundings,
    within 2.2e-5 of exact, so it must lie more than 1e-3 from a tie.  floor(log10) can be one
    off only within about 1e-13 of a power of ten, where M rounds to 10^10 or carries from
    10^11, to the same digits.
    """
    with np.errstate(all="ignore"):  # an unsettled row may hold any number, its gathers clipped
        u, a = xs * 1e6, np.abs(values)
        e = np.floor(np.log10(a))  # -inf at 0, -3xx for a subnormal, nan or inf if not finite
        m = a * _SCALE.take(e.astype(np.intp) + 99, mode="clip")
        n, mantissa = np.rint(u), np.rint(m)
        carry = mantissa == 1e11
        e += carry
        settled = (~np.signbit(xs) & (n < 1e7) & (np.abs(e) <= 99)
                   & (np.abs(u - n) < 0.5) & (np.abs(m - mantissa) < 0.5 - 1e-3))
        n, e = n.astype(np.int64), e.astype(np.intp)
        mantissa = np.where(carry, 1e10, mantissa).astype(np.int64)
    text = bytearray(_TEMPLATE * len(xs))
    for offset, table, k in ((0, _LEAD, n // 10**4), (4, _DIGITS, n % 10**4),
                             (11, _LEAD, mantissa // 10**8),
                             (15, _DIGITS, mantissa // 10**4 % 10**4),
                             (19, _DIGITS, mantissa % 10**4), (24, _EXPONENT, e + 99)):
        # the four characters at this offset of each row, as one uint32
        np.ndarray(len(xs), np.uint32, text, offset, _WIDTH)[:] = table.take(k, mode="clip")
    np.ndarray(len(xs), np.uint8, text, 10, _WIDTH)[:] = np.where(values < 0.0, ord("-"), ord(" "))
    return text.decode("ascii"), settled


def _residual_listing(xs: np.ndarray, values: np.ndarray) -> Iterator[str]:
    """``x  r`` lines, at most ``_PIECE_LINES`` to a piece, then the largest |r| and its first x.

    Each line is ``_LINE % (x, r)``.  A piece is built as fixed-width rows (:func:`_fixed_rows`),
    and each row they leave unsettled is formatted by ``%`` and spliced in."""
    for start in range(0, len(xs), _PIECE_LINES):
        x, r = xs[start:start + _PIECE_LINES], values[start:start + _PIECE_LINES]
        text, settled = _fixed_rows(x, r)
        pieces, done = [], 0
        for i in np.flatnonzero(~settled).tolist():
            pieces += (text[done * _WIDTH:i * _WIDTH], _LINE % (x[i].item(), r[i].item()))
            done = i + 1
        pieces.append(text[done * _WIDTH:])
        yield "".join(pieces)
    worst = int(np.argmax(np.abs(values)))  # the first of equal sizes
    yield f"max |residual|: {abs(values[worst]):.5e} at x = {xs[worst]:g}\n"


def _cmd_residual(args) -> int:
    problem = load_problem(args.file)
    report = solve(problem, args.n)
    sys.stdout.writelines(_residual_listing(*residual_grid(report.psi, problem, args.grid)))
    return 0


def _nonempty(values: list) -> list:
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list of at least one value")
    return values


def _float_list(text: str) -> list[float]:
    return _nonempty([read_number(part) for part in text.split(",") if part.strip()])


def _int_list(text: str) -> list[int]:
    return _nonempty([read_number(part, int) for part in text.split(",") if part.strip()])


def _int(text: str) -> int:
    return read_number(text, int)


_int.__name__ = "int"  # argparse names a refused value by its type: "invalid int value: ..."


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
    p_solve.add_argument("--n", type=_int, default=10, help="number of components")
    p_solve.add_argument("--grid", type=_int, default=1000, help="error grid size")
    p_solve.add_argument("--emit", choices=("text", "json"), default="text")
    p_solve.add_argument(
        "--dump-config",
        metavar="PATH",
        help="write the canonical problem file ('-' for stdout) and exit",
    )
    p_solve.set_defaults(handler=_cmd_solve)

    p_table = sub.add_parser("table", help="benchmark maximum-error table")
    p_table.add_argument("--example", type=_int, required=True, choices=BENCHMARK_IDS)
    p_table.add_argument("--alphas", type=_float_list, default=[0.25, 0.5, 0.75],
                         help="comma-separated; write a list that starts with '-' as "
                              "--alphas=-0.5,1")
    p_table.add_argument("--betas", type=_float_list, default=[1.0],
                         help="comma-separated; write a list that starts with '-' as "
                              "--betas=-0.5,1")
    p_table.add_argument("--ns", type=_int_list, default=[5, 8, 10])
    p_table.add_argument("--grid", type=_int, default=1000)
    p_table.set_defaults(handler=_cmd_table)

    p_res = sub.add_parser("residual", help="pointwise equation residual")
    p_res.add_argument("file", help="problem file path")
    p_res.add_argument("--n", type=_int, default=10)
    p_res.add_argument("--grid", type=_int, default=1000)
    p_res.set_defaults(handler=_cmd_residual)

    return parser


def _dispatch(args) -> int:
    """Run the chosen command; a structured error becomes its exit status."""
    try:
        return args.handler(args)
    except AdmError as err:
        print(f"error: {err.code}({err})", file=sys.stderr)
        return INPUT_ERROR if isinstance(err, InputError) else COMPUTE_ERROR


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
