"""Command-line surface: output formats, exit codes, config round trips."""

import json
import re

import pytest

from adomian_bvp.benchmarks import benchmark_problem
from adomian_bvp.cli import main
from adomian_bvp.problem_file import dump_problem, load_problem

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


def test_solve_undecodable_file_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "latin1.prob"
    bad.write_bytes(EX1_FILE.encode("utf-8") + b"# \xe9\n")
    assert main(["solve", str(bad)]) == 3
    assert capsys.readouterr().err.startswith("error: InvalidValue(")


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


# --- residual ------------------------------------------------------------------------


def test_residual_listing(ex3_path, capsys):
    assert main(["residual", ex3_path, "--n", "10", "--grid", "100"]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if not line.startswith("max")]
    assert len(rows) == 100
    match = re.search(r"max \|residual\|: (\S+) at x", out)
    assert float(match.group(1)) < 1e-5


def test_residual_zero_source(tmp_path, capsys):
    text = EX3_FILE.replace('f = "1.0*(x*yp + 0.5*y)"', 'f = "0"')
    # keep the file consistent: eta1 = 1, gamma1 = e still load fine
    path = tmp_path / "zero.prob"
    path.write_text(text, encoding="utf-8")
    assert main(["residual", str(path), "--n", "2", "--grid", "10"]) == 0
    out = capsys.readouterr().out
    values = [float(line.split()[1]) for line in out.splitlines()[:-1]]
    assert all(abs(v) < 1e-12 for v in values)
