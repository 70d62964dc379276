"""Command-line surface: output formats, exit codes, config round trips."""

import codecs
import contextlib
import copy
import errno
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adomian_bvp import cli, diagnostics, series
from adomian_bvp.benchmarks import benchmark_problem
from adomian_bvp.cli import main
from adomian_bvp.diagnostics import MAX_GRID_SIZE, max_error, residual
from adomian_bvp.errors import InvalidProblem
from adomian_bvp.expressions import MAX_DEPTH
from adomian_bvp.problem_file import dump_problem, load_problem
from adomian_bvp.solver import SolveReport, Step, partial_sum, solve

EX1_FILE = dump_problem(benchmark_problem(1, 0.5, 1.0))
EX3_FILE = dump_problem(benchmark_problem(3, 0.5, 1.0))
ROOT = Path(__file__).resolve().parents[1]
DEMO_FILE = str(ROOT / "demos" / "problems" / "exp_dirichlet.prob")


@pytest.fixture
def ex1_path(tmp_path):
    path = tmp_path / "ex1.prob"
    path.write_text(EX1_FILE, encoding="utf-8")
    return str(path)


@pytest.fixture
def ex3_path(tmp_path):
    path = tmp_path / "ex3.prob"
    path.write_text(EX3_FILE, encoding="utf-8")
    return str(path)


def _component_line(stdout, label):
    for line in stdout.splitlines():
        if line.startswith(f"{label}: "):
            return line[len(label) + 2:]
    raise AssertionError(f"{label} not found in output:\n{stdout}")


def _parse_series_line(text):
    if text == "0":
        return []
    out = []
    for part in text.split(" + "):
        coeff, _, exponent = part.partition("*x^")
        out.append((float(coeff), float(exponent)))
    return out


# --- solve ------------------------------------------------------------------------


def test_solve_prints_components(ex1_path, capsys):
    assert main(["solve", ex1_path, "--n", "5"]) == 0
    out = capsys.readouterr().out
    pairs = _parse_series_line(_component_line(out, "y_1"))
    assert pairs[0][0] == pytest.approx(0.0268564, rel=1e-4)
    assert pairs[0][1] == 0.5
    assert pairs[1][0] == pytest.approx(-0.25, rel=1e-9)
    assert pairs[1][1] == 1.0
    assert "psi_5: " in out
    assert re.search(r"E\^5: \d\.\d{5}e-\d\d", out)  # exact present -> error line


def test_solve_single_component(ex1_path, capsys):
    assert main(["solve", ex1_path, "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert _component_line(out, "y_0") != ""
    assert "y_1" not in out


def test_solve_json_mirrors_text(ex1_path, capsys):
    assert main(["solve", ex1_path, "--n", "3", "--emit", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 3
    assert len(payload["components"]) == 3
    y1 = payload["components"][1]
    assert y1[0][0] == pytest.approx(0.0268564, rel=1e-4)
    assert y1[0][1] == 0.5
    assert "max_error" in payload and "max_point" in payload
    # psi is the sum of the components at matching exponents
    assert payload["psi"][0][0] == pytest.approx(
        sum(c[0][0] for c in payload["components"] if c and c[0][1] == 0.0),
        rel=1e-12,
    )


# floats json writes as their repr: zeros, subnormals, the largest reprs, exponents past e+16
_JSON_FLOATS = (0.0, -0.0, 5e-324, -2.2e-308, 1e300, -1e300, 1.0, 0.1, 1e16, -123456.789)


def _report(components, psi) -> SolveReport:
    """A report of these components, each a step of 0 s, and psi."""
    return SolveReport(tuple(Step(k, y, 0.0) for k, y in enumerate(components)), psi)


def _random_series(rng: np.random.Generator) -> series.GPSeries:
    """Up to three terms, each float one of _JSON_FLOATS or a random normal at a random scale:
    no terms is the zero series."""
    def number():
        if rng.random() < 0.5:
            return float(rng.choice(_JSON_FLOATS))
        return float(rng.standard_normal() * 10.0 ** int(rng.integers(-300, 300)))
    exponents = sorted({number() for _ in range(int(rng.integers(0, 4)))})
    return series.GPSeries([(number(), e) for e in exponents])  # raw: a -0.0 coefficient stays


@pytest.mark.parametrize("seed", range(20))
def test_solve_json_is_json_dumps_with_indent_2_byte_for_byte(seed):
    rng = np.random.default_rng(seed)
    components = tuple(_random_series(rng) for _ in range(int(rng.integers(1, 5))))
    report = _report(components, _random_series(rng))
    payload = {"n": report.n, "components": [c.terms for c in components],
               "psi": report.psi.terms}
    err = None
    if seed % 2:
        err = diagnostics.ErrorReport(grid=np.ones(1), errors=np.ones(1),
                                      max_error=float(rng.choice(_JSON_FLOATS)), max_point=0.5)
        payload.update(max_error=err.max_error, max_point=err.max_point)
    assert cli._solve_json(report, err) == json.dumps(payload, indent=2)


def test_solve_json_prints_a_zero_series_as_an_empty_list():
    report = _report((series.GPSeries.constant(1.0), series.GPSeries.zero()),
                     series.GPSeries.constant(1.0))
    assert cli._solve_json(report, None) == (
        '{\n  "n": 2,\n  "components": [\n    [\n      [\n        1.0,\n        0.0\n'
        '      ]\n    ],\n    []\n  ],\n  "psi": [\n    [\n      1.0,\n      0.0\n    ]\n  ]\n}')


def test_solve_missing_key_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.prob"
    bad.write_text(
        "\n".join(
            line for line in EX1_FILE.splitlines() if not line.startswith("gamma1")
        ),
        encoding="utf-8",
    )
    assert main(["solve", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "MissingKey(gamma1)" in err


def test_solve_a_line_without_an_equals_sign_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.prob"
    bad.write_text(EX1_FILE.replace("beta1 = ", "beta1 "), encoding="utf-8")
    assert main(["solve", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err == "error: InvalidValue(line 6: expected 'key = value', got 'beta1 0.0')\n"


def test_solve_file_not_found(capsys):
    assert main(["solve", "/nonexistent/problem.prob"]) == 3
    assert capsys.readouterr().err == "error: FileNotFound(/nonexistent/problem.prob)\n"


def test_solve_compute_error_exit_code(tmp_path, capsys):
    # sigma = -1 drives the first inverse application onto the log resonance
    text = EX1_FILE.replace("q_exponent = -0.5", "q_exponent = -1.0")
    bad = tmp_path / "resonant.prob"
    bad.write_text(text, encoding="utf-8")
    assert main(["solve", str(bad)]) == 4
    assert "LogResonance" in capsys.readouterr().err


@pytest.mark.parametrize(
    "eta1,code,exit_code",
    [
        ("1e308", "NonFiniteTerm", 4),  # exp(eta1) overflows
        ("nan", "InvalidProblem", 3),
        ("inf", "InvalidProblem", 3),
    ],
)
def test_solve_extreme_eta1_is_one_structured_error(tmp_path, capsys, eta1, code, exit_code):
    text = re.sub(r"(?m)^eta1 = .*$", f"eta1 = {eta1}", EX1_FILE)
    bad = tmp_path / "extreme.prob"
    bad.write_text(text, encoding="utf-8")
    assert main(["solve", str(bad)]) == exit_code
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert re.fullmatch(rf"error: {code}\(.+\)", lines[0]), lines[0]
    assert captured.out == ""


# f overflows on the residual grid and exact on the error grid; the series stay finite
OVERFLOW_FILE = """\
p_exponent = 0
q_exponent = 0
f = "exp(1000*yp)"
eta1 = 0
alpha1 = 1
beta1 = 0
gamma1 = 1
exact = "exp(1000*x)"
"""


@pytest.mark.parametrize(
    "command,subexpression", [("solve", "exp(1000.0*x)"), ("residual", "exp(1000.0*yp)")]
)
def test_overflow_on_the_grid_is_one_structured_error(tmp_path, capsys, command, subexpression):
    path = tmp_path / "overflow.prob"
    path.write_text(OVERFLOW_FILE, encoding="utf-8")
    assert main([command, str(path)]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: NonFiniteTerm({subexpression!r} overflows)"]


SCIPY_BLOCKED = f"""
import contextlib, io, sys
sys.modules["scipy"] = None  # from here on, any import of scipy raises ImportError
from adomian_bvp import cli, max_error, residual, solve
from adomian_bvp.benchmarks import benchmark_problem
statuses = []
for args in (["solve", {DEMO_FILE!r}], ["table", "--example", "3"], ["residual", {DEMO_FILE!r}]):
    with contextlib.redirect_stdout(io.StringIO()):
        statuses.append(cli.main(args))
problem = benchmark_problem(1, 0.5, 1.0)
psi = solve(problem, 10).psi
max_error(psi, problem.exact, 1000)
residual(psi, problem, 1000)
print(statuses)
"""


def test_package_runs_with_scipy_blocked():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", SCIPY_BLOCKED], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[0, 0, 0]\n")


def test_solve_undecodable_file_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "latin1.prob"
    bad.write_bytes(EX1_FILE.encode("utf-8") + b"# \xe9\n")
    assert main(["solve", str(bad)]) == 3
    assert capsys.readouterr().err.startswith("error: InvalidValue(")


def test_solve_reads_a_file_that_starts_with_a_byte_order_mark(tmp_path, capsys):
    # some editors save UTF-8 with a leading BOM; it is not part of the first key
    bom = tmp_path / "bom.prob"
    bom.write_bytes(codecs.BOM_UTF8 + Path(DEMO_FILE).read_bytes())
    assert load_problem(bom) == load_problem(DEMO_FILE)
    assert main(["solve", DEMO_FILE]) == 0
    plain = capsys.readouterr()
    assert main(["solve", str(bom)]) == 0
    assert capsys.readouterr() == plain


def test_a_byte_order_mark_does_not_excuse_other_undecodable_bytes(tmp_path, capsys):
    bad = tmp_path / "latin1.prob"
    bad.write_bytes(codecs.BOM_UTF8 + EX1_FILE.encode("utf-8") + b"# \xe9\n")
    assert main(["solve", str(bad)]) == 3
    assert capsys.readouterr().err == (
        f"error: InvalidValue({bad}: not UTF-8 text (invalid continuation byte))\n")


@pytest.mark.parametrize("command", ["solve", "residual"])
def test_directory_is_one_input_error(tmp_path, capsys, command):
    assert main([command, str(tmp_path)]) == 3
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith(f"error: InvalidValue({tmp_path}: cannot read ("), lines[0]
    assert captured.out == ""


def test_dump_config_into_a_directory_is_one_input_error(ex1_path, tmp_path, capsys):
    assert main(["solve", ex1_path, "--dump-config", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith(f"error: InvalidValue({tmp_path}: cannot write ("), lines[0]
    assert captured.out == ""


def _with_f(tmp_path, f):
    """A copy of the example 1 problem file with source term f."""
    text = re.sub(r'(?m)^f = ".*"$', lambda _: f'f = "{f}"', EX1_FILE)
    path = tmp_path / "f.prob"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "f",
    ["(" * 250 + "y" + ")" * 250, "-" * 2000 + "y", "+".join(["y"] * 1500)],
    ids=["nested-parentheses", "leading-minus-signs", "long-sum"],
)
def test_too_deep_f_is_one_parse_error(tmp_path, capsys, f):
    assert main(["solve", _with_f(tmp_path, f), "--n", "3"]) == 3
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error: ParseError("), lines[0]
    assert f"deeper than {MAX_DEPTH} levels" in lines[0]
    assert captured.out == ""


def test_f_at_the_depth_bound_is_solved(tmp_path, capsys):
    # MAX_DEPTH parentheses around an AST of depth MAX_DEPTH: an odd number
    # of minus signs on y, so the solve is that of f = -y.
    deep = "(" * MAX_DEPTH + "-" * (MAX_DEPTH - 1) + "y" + ")" * MAX_DEPTH
    assert main(["solve", _with_f(tmp_path, deep), "--n", "4"]) == 0
    solved = capsys.readouterr()
    assert main(["solve", _with_f(tmp_path, "-y"), "--n", "4"]) == 0
    assert solved == capsys.readouterr()


@pytest.mark.parametrize("option", ["--ns", "--alphas", "--betas"])
def test_table_empty_list_is_a_usage_error(capsys, option):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--example", "1", option, ","])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert f"argument {option}: expected a comma-separated list" in err


# digits are the ASCII 0-9 that parse reads, and none is grouped: int() and float() take these
@pytest.mark.parametrize("args", [
    ["solve", DEMO_FILE, "--n", "1_0"], ["solve", DEMO_FILE, "--n", "\u0665"],
    ["solve", DEMO_FILE, "--grid", "1_000"], ["residual", DEMO_FILE, "--n", "\uff15"],
    ["residual", DEMO_FILE, "--grid", "1\u0660"], ["table", "--example", "1", "--grid", "1_0"],
    ["table", "--example", "1", "--ns", "5,1_0"], ["table", "--example", "1", "--ns", "\u0665"],
    ["table", "--example", "1", "--alphas", "0.2_5"],
    ["table", "--example", "1", "--alphas", "0.\u0665"],
    ["table", "--example", "1", "--betas", "1,1_0"],
    ["table", "--example", "1", "--betas", "\u0663"],
    ["table", "--example", "\u0661"],
], ids=lambda args: " ".join(args[-2:]).encode("ascii", "backslashreplace").decode())
def test_a_digit_separator_or_a_non_ascii_digit_in_an_option_is_a_usage_error(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {args[-2]}: invalid " in captured.err and captured.out == ""


def test_a_value_with_a_digit_separator_in_a_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "grouped.prob"
    path.write_text(EX1_FILE.replace("alpha1 = 1.0", "alpha1 = 1_0"), encoding="utf-8")
    assert main(["solve", str(path)]) == 3
    assert capsys.readouterr().err == "error: InvalidValue(alpha1: '1_0' is not a number)\n"


def test_signs_spaces_and_exponents_in_options_still_read(capsys):
    assert main(["table", "--example", "3", "--alphas", " +0.5,5e-1", "--ns", " +5 ",
                 "--betas", "1e0", "--grid", " 100"]) == 0
    assert main(["table", "--example", "3", "--alphas", "0.5", "--ns", "5", "--grid", "100"]) == 0
    first, second = capsys.readouterr().out.split("# example")[1:]
    assert first == second


@pytest.mark.parametrize("option,value,error", [
    ("--betas", "-0.5,1", "Divergent(component 1: weighted exponent -2.25 below alpha-2"),
    ("--alphas", "-1e-300", "InvalidProblem(alpha must lie in [0, 1), got -1e-300)")])
def test_a_list_that_starts_with_a_minus_sign_is_written_with_an_equals_sign(
        capsys, option, value, error):
    # spaced, argparse reads the value as an option; joined by "=", the list is read
    with pytest.raises(SystemExit) as exc:
        main(["table", "--example", "1", "--ns", "5", option, value])
    assert exc.value.code == 2
    assert f"argument {option}: expected one argument" in capsys.readouterr().err
    assert main(["table", "--example", "1", "--ns", "5", f"{option}={value}"]) in (3, 4)
    assert capsys.readouterr().err.startswith(f"error: {error}")
    assert main(["table", "--example", "3", "--ns", "5", "--grid", "100", "--alphas=-0.0,0.5"]) == 0
    assert main(["table", "--example", "3", "--ns", "5", "--grid", "100", "--alphas", "0,0.5"]) == 0
    signed, unsigned = capsys.readouterr().out.split("# example")[1:]
    assert signed.replace("\n-0     ", "\n0      ") == unsigned


def test_table_unknown_example_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--example", "4"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "invalid choice: 4" in captured.err
    assert captured.out == ""


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # missing file argument
    assert exc.value.code == 2


def test_dump_config_round_trip(ex1_path, tmp_path, capsys):
    out_path = tmp_path / "canonical.prob"
    assert main(["solve", ex1_path, "--dump-config", str(out_path)]) == 0
    assert load_problem(out_path) == load_problem(ex1_path)
    # stdout variant
    assert main(["solve", ex1_path, "--dump-config", "-"]) == 0
    dumped = capsys.readouterr().out
    assert "p_exponent = 0.5" in dumped


# --- table ------------------------------------------------------------------------


def _table_cells(stdout):
    cells = {}
    ns = None
    for line in stdout.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        parts = line.split()
        if parts[0] == "alpha":
            ns = [int(p[2:]) for p in parts[1:]]
            continue
        alpha = float(parts[0])
        for n, value in zip(ns, parts[1:]):
            cells[(alpha, n)] = float(value)
    return cells


def test_table_benchmark_1_cells(capsys):
    assert main(["table", "--example", "1", "--ns", "5,8,10"]) == 0
    cells = _table_cells(capsys.readouterr().out)
    assert cells[(0.5, 5)] == pytest.approx(1.52386e-5, rel=0.5)
    assert cells[(0.25, 10)] == pytest.approx(3.54171e-10, rel=0.5)
    assert len(cells) == 9


def test_table_benchmark_2_cell(capsys):
    assert main(["table", "--example", "2", "--ns", "5,8", "--alphas", "0.25",
                 "--grid", "200"]) == 0
    cells = _table_cells(capsys.readouterr().out)
    assert set(cells) == {(0.25, 5), (0.25, 8)}
    assert cells[(0.25, 5)] > cells[(0.25, 8)]


def test_table_deterministic(capsys):
    args = ["table", "--example", "3", "--betas", "2.5", "--ns", "5,8",
            "--alphas", "0.5", "--grid", "100"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_table_labels_read_back_as_the_values_they_name(capsys):
    # to 6 significant digits these alphas, and these betas, would print as one
    args = ["table", "--example", "1", "--alphas", "0.1234567,0.1234568",
            "--betas", "2.1234567,2.1234568", "--ns", "5", "--grid", "50"]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("#")] == [
        "# example 1, beta = 2.1234567, grid = 50", "# example 1, beta = 2.1234568, grid = 50"]
    assert [line.split()[0] for line in lines if line[0].isdigit()] == ["0.1234567", "0.1234568"] * 2


def test_table_prints_the_five_published_tables_byte_for_byte(capsys):
    # recorded when eval_real still ran exp, ln and powers through math point by point
    for args in (["--example", "1", "--betas", "1,3.5"], ["--example", "2"],
                 ["--example", "3", "--betas", "1,2.5"]):
        assert main(["table", *args]) == 0
    want = (Path(__file__).parent / "table_published_grid1000.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("repeated,unique,solves", [
    (["--ns", "10,5,10,8,5"], ["--ns", "5,8,10"], 3),
    (["--alphas", "0.5,0.25,0.5"], ["--alphas", "0.5,0.25"], 2),
    (["--betas", "3.5,1,3.5"], ["--betas", "3.5,1"], 6),
])
def test_table_computes_each_repeated_value_once(monkeypatch, capsys, repeated, unique, solves):
    common = ["table", "--example", "1", "--grid", "50"]
    assert main(common + unique) == 0
    want = capsys.readouterr().out
    calls = []
    for name in ("solve", "max_errors"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, name=name, real=real, **kw:
                            calls.append((name, a[0])) or real(*a, **kw))
    assert main(common + repeated) == 0
    assert capsys.readouterr().out == want  # ns sorted, alphas and betas in first-seen order
    assert [name for name, _ in calls].count("solve") == solves
    # one max_errors call per table, after the solves of its rows, with all their partial sums
    tables = 2 if "--betas" in repeated else 1
    rows = solves // tables
    assert [name if name == "solve" else len(sums) for name, sums in calls] == (
        ["solve"] * rows + [rows * 3]) * tables


def test_a_table_row_checks_and_evaluates_its_reference_once(monkeypatch, capsys):
    # the partial sums of a table share one reference and each power of x: psi_5, psi_8
    # and psi_10 of one row, and the nine of three commensurate rows
    calls, powers = [], []
    for name in ("check_expr", "eval_real"):
        real = getattr(diagnostics, name)
        monkeypatch.setattr(diagnostics, name,
                            lambda *a, name=name, real=real: calls.append(name) or real(*a))
    real_power = series._power
    monkeypatch.setattr(series, "_power",
                        lambda xs, e, has_zero: powers.append(e) or real_power(xs, e, has_zero))
    for alphas in ([0.5], [0.25, 0.5, 0.75]):
        del calls[:], powers[:]
        assert main(["table", "--example", "1", "--alphas", ",".join(map(str, alphas)),
                     "--betas", "3.5"]) == 0
        capsys.readouterr()
        sums = [partial_sum(solve(benchmark_problem(1, alpha, 3.5), 10), n)
                for alpha in alphas for n in (5, 8, 10)]
        exponents = {e for psi in sums for e in psi.exponents.tolist()}
        assert calls == ["check_expr", "eval_real"]
        assert powers == sorted(exponents)  # ascending, each distinct exponent once
        assert len(powers) < sum(len(psi) for psi in sums)


@pytest.mark.parametrize("bound,calls", [
    (MAX_GRID_SIZE, [9]),  # the whole table in one call
    (3 * 150, [9]),
    (3 * 150 - 1, [6, 3]),
    (2 * 150, [6, 3]),
    (2 * 150 - 1, [3, 3, 3]),
    (100, [3, 3, 3]),  # less than one row: still one row per call
])
def test_a_table_split_over_several_calls_prints_the_bytes_of_one(monkeypatch, capsys, bound,
                                                                  calls):
    # a row of 3 partial sums on 50 points is 150 points; a call keeps within the bound
    args = ["table", "--example", "1", "--betas", "1,3.5", "--grid", "50"]
    assert main(args) == 0
    want = capsys.readouterr().out
    sizes, real = [], cli.max_errors
    monkeypatch.setattr(cli, "MAX_GRID_SIZE", bound)
    monkeypatch.setattr(cli, "max_errors",
                        lambda sums, *a: sizes.append(len(sums)) or real(sums, *a))
    assert main(args) == 0
    assert capsys.readouterr().out == want
    assert sizes == calls * 2


@pytest.mark.parametrize("args,solve_error", [
    (["--example", "3", "--betas", "-3"], "Divergent"),
    (["--example", "3", "--alphas", "1.5"], "InvalidProblem(alpha must lie in [0, 1)"),
])
def test_table_checks_the_grid_before_the_first_solve(capsys, args, solve_error):
    # every row is solved before any is measured, so the grid is checked first
    assert main(["table", *args]) in (3, 4)
    assert capsys.readouterr().err.startswith(f"error: {solve_error}")
    assert main(["table", *args, "--grid", "0"]) == 3
    assert capsys.readouterr().err == "error: InvalidProblem(grid_size must be at least 1, got 0)\n"


def test_table_refuses_alpha_within_the_merge_tolerance_of_1(capsys):
    assert main(["table", "--example", "1", "--alphas", "0.999999999999"]) == 3
    assert capsys.readouterr().err == (
        "error: InvalidProblem(1 - alpha = 9.99978e-13 <= merge tolerance 1e-12)\n")


# --- grid size -----------------------------------------------------------------------


@pytest.mark.parametrize("grid", [1, 0, -4, MAX_GRID_SIZE, MAX_GRID_SIZE + 1])
@pytest.mark.parametrize("caller", ["max_error", "residual", "cli solve", "cli table", "cli residual"])
def test_one_grid_size_rule(ex1_path, capsys, caller, grid):
    # the smallest grid is the one point x = 1, the largest MAX_GRID_SIZE points,
    # for the library and every command
    valid = 1 <= grid <= MAX_GRID_SIZE
    message = (f"grid_size must be at least 1, got {grid}" if grid < 1
               else f"grid_size must be at most {MAX_GRID_SIZE}, got {grid}")
    if caller.startswith("cli "):
        command = caller[len("cli "):]
        args = ["--example", "1", "--ns", "2"] if command == "table" else [ex1_path, "--n", "2"]
        assert main([command, *args, "--grid", str(grid)]) == (0 if valid else 3)
        assert capsys.readouterr().err == ("" if valid else f"error: InvalidProblem({message})\n")
        return
    problem = load_problem(ex1_path)
    psi = solve(problem, 2).psi
    call = {"max_error": lambda: max_error(psi, problem.exact, grid),
            "residual": lambda: residual(psi, problem, grid)}[caller]
    if valid:
        call()
    else:
        with pytest.raises(InvalidProblem, match=re.escape(message)):
            call()


# --- residual ------------------------------------------------------------------------


def test_residual_listing(ex3_path, capsys):
    assert main(["residual", ex3_path, "--n", "10", "--grid", "100"]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if not line.startswith("max")]
    assert len(rows) == 100
    match = re.search(r"max \|residual\|: (\S+) at x", out)
    assert float(match.group(1)) < 1e-5


def test_residual_of_the_demo_problem_is_pinned_byte_for_byte(capsys):
    # ten significant digits of the grid path, recorded when series.evaluate
    # still summed Python floats next to the numpy grid evaluator
    assert main(["residual", DEMO_FILE, "--n", "10", "--grid", "1000"]) == 0
    want = (Path(__file__).parent / "residual_exp_dirichlet_n10_grid1000.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


def test_residual_zero_source(tmp_path, capsys):
    text = EX3_FILE.replace('f = "1.0*(x*yp + 0.5*y)"', 'f = "0"')
    # keep the file consistent: eta1 = 1, gamma1 = e still load fine
    path = tmp_path / "zero.prob"
    path.write_text(text, encoding="utf-8")
    assert main(["residual", str(path), "--n", "2", "--grid", "10"]) == 0
    out = capsys.readouterr().out
    values = [float(line.split()[1]) for line in out.splitlines()[:-1]]
    assert all(abs(v) < 1e-12 for v in values)


# Finite floats with the edges of the formatter: signed zero, subnormals, huge
# and tiny magnitudes, and a small pool so that |r| ties between points.
LISTING_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1e-300, -1e-300,
                     0.5, -0.5, 1.0, -1.0]),
)


def _per_line_listing(pairs):
    # the listing as it was printed before it became one formatted write
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for x, r in pairs:
            print(f"{x:.6f}  {r: .10e}")
        worst = max(pairs, key=lambda p: abs(p[1]))
        print(f"max |residual|: {abs(worst[1]):.5e} at x = {worst[0]:g}")
    return out.getvalue()


@given(st.lists(st.tuples(LISTING_FLOATS, LISTING_FLOATS), min_size=1, max_size=30),
       st.integers(1, 8) | st.just(10_000))
def test_residual_listing_matches_the_per_line_print(pairs, lines):
    # formatted from the grid arrays in pieces of at most `lines` lines
    xs, values = (np.array(column) for column in zip(*pairs))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_PIECE_LINES", lines)
        assert "".join(cli._residual_listing(xs, values)) == _per_line_listing(pairs)


def _listing_rows(xs, values):
    """The listing of (xs, values) with the per-line print's, and which rows were settled."""
    xs, values = np.array(xs, dtype=float), np.array(values, dtype=float)
    got = "".join(cli._residual_listing(xs, values))
    assert got == _per_line_listing(list(zip(xs.tolist(), values.tolist())))
    return got.splitlines(), cli._fixed_rows(xs, values)[1].tolist()


@pytest.mark.parametrize("r,line", [
    # an exact tie whose product by 10^-5 reads 30458667264.500004: rint would round it up
    (3045866726450000.0, "0.500000   3.0458667264e+15"),
    (12345678901.5, "0.500000   1.2345678902e+10"),  # an exact tie of an exact product
    (8.24502631375e-20, "0.500000   8.2450263137e-20"),  # a float just below a tie
    (9.99999999995e5, "0.500000   9.9999999999e+05"),  # just below the tie of the next decade
])
def test_a_row_at_an_11th_digit_tie_is_formatted_by_percent(r, line):
    assert _listing_rows([0.5], [r]) == ([line, f"max |residual|: {abs(r):.5e} at x = 0.5"],
                                         [False])


@pytest.mark.parametrize("r,line", [
    (9.9999999999996e5, "0.250000   1.0000000000e+06"),
    (-9.99999999999996e-5, "0.250000  -1.0000000000e-04"),
    (9.99999999999996e98, "0.250000   1.0000000000e+99"),
])
def test_a_mantissa_rounded_to_10_carries_to_the_next_decade(r, line):
    lines, settled = _listing_rows([0.25], [r])
    assert lines[0] == line and settled == [True]


@pytest.mark.parametrize("r", [1e100, -1e100, 1e-100, 1e-300, 5e-324, 0.0, -0.0,
                               9.9999999999996e-100])
def test_zeros_subnormals_and_three_digit_exponents_are_formatted_by_percent(r):
    lines, settled = _listing_rows([0.5, 0.75], [r, 1.0])
    assert settled == [False, True]
    assert lines[0] == f"0.500000  {r: .10e}"


@pytest.mark.parametrize("x", [-0.0, -1e-9, 10.0, 9.9999995, 12.5, 1e300])
def test_an_x_outside_0_to_10_or_with_its_sign_bit_set_is_formatted_by_percent(x):
    lines, settled = _listing_rows([x, 0.5], [1.0, 1.0])
    assert settled == [False, True]
    assert lines[0] == f"{x:.6f}   1.0000000000e+00"


def test_an_exact_6_decimal_tie_of_a_grid_point_is_formatted_by_percent():
    xs = np.arange(1, 129) / 128  # 1/128 = 0.0078125, and every odd multiple, are ties
    lines, settled = _listing_rows(xs, np.full(128, 0.5))
    assert lines[:3] == ["0.007812   5.0000000000e-01", "0.015625   5.0000000000e-01",
                         "0.023438   5.0000000000e-01"]
    assert [i for i, ok in enumerate(settled) if not ok] == list(range(0, 128, 2))


def test_pieces_of_3_lines_join_to_the_one_piece_listing(monkeypatch):
    xs = np.arange(1, 11) / 10
    values = np.array([1e-3, -0.0, 2.5, 1e150, -7e-8, 3045866726450000.0, 1.0, -2.0, 5e-324, 4.0])
    whole = "".join(cli._residual_listing(xs, values))
    monkeypatch.setattr(cli, "_PIECE_LINES", 3)
    pieces = list(cli._residual_listing(xs, values))
    assert [len(p.splitlines()) for p in pieces] == [3, 3, 3, 1, 1]
    assert "".join(pieces) == whole


def test_percent_formats_at_most_1_percent_of_the_demo_listing():
    # every row could be formatted by %, and each byte test would still pass
    problem = load_problem(DEMO_FILE)
    xs, values = diagnostics.residual_grid(solve(problem, 10).psi, problem, 1000)
    assert np.count_nonzero(~cli._fixed_rows(xs, values)[1]) <= 10


# --- one parser per process -----------------------------------------------------------


def test_main_builds_its_parser_once():
    assert cli.build_parser() is cli.build_parser()


def test_a_usage_error_leaves_the_parser_usable(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--example", "1", "--ns", ","])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["table", "--example", "3", "--ns", "2", "--grid", "10"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("# example 3, beta = 1, grid = 10\n") and err == ""


def test_table_defaults_survive_repeated_calls(capsys):
    # argparse hands the same default lists to every call of the shared parser
    before = copy.deepcopy(vars(cli.build_parser().parse_args(["table", "--example", "3"])))
    outputs = []
    for _ in range(2):
        assert main(["table", "--example", "3", "--grid", "20"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert vars(cli.build_parser().parse_args(["table", "--example", "3"])) == before


# --- the command as its own process -----------------------------------------------------


def _cli_process(args, stdout, unbuffered=False):
    # block-buffered stdout, as by default, so that output can still be
    # pending when the command ends; unbuffered, every write fails where it
    # is made
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "adomian_bvp.cli", *args], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=60)


@pytest.mark.parametrize("args", [
    ["solve", DEMO_FILE, "--emit", "json"],
    ["table", "--example", "3"],
    ["residual", DEMO_FILE],
])
def test_process_output_equals_in_process_main(capsys, args):
    proc = _cli_process(args, subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert main(args) == 0
    assert proc.stdout == capsys.readouterr().out.encode("utf-8")


OUTPUT_COMMANDS = [
    ["solve", DEMO_FILE],
    ["table", "--example", "3", "--ns", "2", "--grid", "10"],
    ["residual", DEMO_FILE],
    ["--help"],
    ["solve", "--help"],
]


def _check_full_stdout(args, unbuffered):
    with open("/dev/full", "wb") as full:
        proc = _cli_process(args, full, unbuffered)
    assert proc.returncode == 1
    assert proc.stderr.decode() == f"error: OutputError({os.strerror(errno.ENOSPC)})\n"


def _check_closed_pipe(args, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        proc = _cli_process(args, write_end, unbuffered)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")  # no traceback, no "Exception ignored"


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")


@needs_dev_full
@pytest.mark.parametrize("args", OUTPUT_COMMANDS)
def test_full_stdout_is_one_output_error(args):
    _check_full_stdout(args, unbuffered=False)


@pytest.mark.parametrize("args", OUTPUT_COMMANDS)
def test_closed_pipe_on_stdout_exits_1_quietly(args):
    _check_closed_pipe(args, unbuffered=False)


@needs_dev_full
@pytest.mark.parametrize("args", OUTPUT_COMMANDS)
def test_unbuffered_stdout_fails_as_buffered_does(args):
    _check_full_stdout(args, unbuffered=True)
    _check_closed_pipe(args, unbuffered=True)
