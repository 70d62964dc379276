"""Command-line surface: output formats, exit codes, config round trips."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from adomian_bvp import cli
from adomian_bvp.benchmarks import benchmark_problem
from adomian_bvp.cli import main
from adomian_bvp.diagnostics import max_error, residual
from adomian_bvp.errors import InvalidProblem
from adomian_bvp.expressions import MAX_DEPTH
from adomian_bvp.problem_file import dump_problem, load_problem
from adomian_bvp.solver import solve

EX1_FILE = dump_problem(benchmark_problem(1, 0.5, 1.0))
EX3_FILE = dump_problem(benchmark_problem(3, 0.5, 1.0))


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


def test_solve_file_not_found(capsys):
    assert main(["solve", "/nonexistent/problem.prob"]) == 3
    assert "FileNotFound" in capsys.readouterr().err


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


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, adomian_bvp.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out.strip() == "False"


def test_solve_undecodable_file_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "latin1.prob"
    bad.write_bytes(EX1_FILE.encode("utf-8") + b"# \xe9\n")
    assert main(["solve", str(bad)]) == 3
    assert capsys.readouterr().err.startswith("error: InvalidValue(")


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
    for name in ("solve", "max_error"):
        real = getattr(cli, name)
        monkeypatch.setattr(
            cli, name, lambda *a, name=name, real=real, **kw: calls.append(name) or real(*a, **kw)
        )
    assert main(common + repeated) == 0
    assert capsys.readouterr().out == want  # ns sorted, alphas and betas in first-seen order
    assert calls.count("solve") == solves and calls.count("max_error") == 3 * solves


# --- grid size -----------------------------------------------------------------------


@pytest.mark.parametrize("grid", [1, 0, -4])
@pytest.mark.parametrize("caller", ["max_error", "residual", "cli solve", "cli table", "cli residual"])
def test_one_grid_size_rule(ex1_path, capsys, caller, grid):
    # the smallest grid is the one point x = 1, for the library and every command
    message = f"grid_size must be at least 1, got {grid}"
    if caller.startswith("cli "):
        command = caller[len("cli "):]
        args = ["--example", "1", "--ns", "2"] if command == "table" else [ex1_path, "--n", "2"]
        assert main([command, *args, "--grid", str(grid)]) == (0 if grid >= 1 else 3)
        assert capsys.readouterr().err == ("" if grid >= 1 else f"error: InvalidProblem({message})\n")
        return
    problem = load_problem(ex1_path)
    psi = solve(problem, 2).psi
    call = {"max_error": lambda: max_error(psi, problem.exact, grid),
            "residual": lambda: residual(psi, problem, grid)}[caller]
    if grid >= 1:
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
    root = Path(__file__).resolve().parents[1]
    problem = str(root / "demos" / "problems" / "exp_dirichlet.prob")
    assert main(["residual", problem, "--n", "10", "--grid", "1000"]) == 0
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
