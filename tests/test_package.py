"""The package root: every name it exports resolves, and a star import works.
The A_k recurrences live beside the tape that drives them, and no other module
reaches them, so the tape stays the only code that runs them.  Only the
tracer's import line and the ring's own tests reach the whole-element ring.
Each entry point checks an expression in one ``check_expr`` walk, and no
second validation walk comes back.  Every number a caller gives is checked by
one rule, ``series.check_real``, the only code that reads ``numbers.Real``, and a float
takes its one exact-type branch; every count, by ``solver.check_count``, the only code that
calls ``operator.index``.  The benchmark problems are built as trees, not parsed.  The
tree layout is a format of ``expressions.py`` alone, and ``Problem`` holds its eight fields."""

import ast
import collections
import dataclasses
import re
from pathlib import Path

import adomian_bvp
from adomian_bvp.solver import Problem

SRC = Path(adomian_bvp.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
RECURRENCES = (
    "base_point", "binary_power", "linear_coeff", "mul_coeff", "div_coeff", "exp_coeff", "ln_coeff",
)


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_exported_name_resolves():
    assert [name for name in adomian_bvp.__all__ if not hasattr(adomian_bvp, name)] == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from adomian_bvp import *", namespace)
    assert set(adomian_bvp.__all__) <= namespace.keys()


def _imports_of(module: str, root: Path) -> list[tuple[str, list[str]]]:
    """(file, imported names) of each import statement under root that reaches the module."""
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(module in name.split(".") for name in names):
                found.append((path.name, [a.name for a in node.names]))
    return found


def test_expressions_imports_nothing_from_lambda_ring():
    # The ring is the benchmark tracer's facade: one line of solver.py imports
    # its names for the tracer, and only its own tests use it, so deleting it
    # stays a deletion.
    tracer_names = ["eval_lambda", "extract_adomian", "lift_solution"]
    assert _imports_of("lambda_ring", SRC) == [("solver.py", tracer_names)]
    assert {path for path, _ in _imports_of("lambda_ring", TESTS)} == {"test_lambda_ring.py"}


def test_each_recurrence_is_defined_once_in_expressions():
    defined = sorted(
        (path.name, node.name)
        for path in SRC.rglob("*.py")
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.FunctionDef) and node.name in RECURRENCES
    )
    assert defined == sorted(("expressions.py", name) for name in RECURRENCES)


def test_no_module_but_expressions_imports_a_recurrence():
    # by name (from .expressions import mul_coeff) or as an attribute (expressions.mul_coeff)
    reached = sorted(
        (path.name, name)
        for path in SRC.rglob("*.py")
        if path.name != "expressions.py"
        for node in ast.walk(_tree(path))
        for name in (
            [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
            else [node.attr] if isinstance(node, ast.Attribute) else []
        )
        if name in RECURRENCES
    )
    assert reached == []


def _calls(tree: ast.AST) -> list[str]:
    """The names called in tree, as ``f(...)`` or ``module.f(...)``."""
    return [
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    ]


def test_each_entry_point_checks_an_expression_in_one_walk():
    trees = {path.name: _tree(path) for path in sorted(SRC.rglob("*.py"))}
    functions = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)]
    assert [name for name, fn in functions if fn.name in ("check_depth", "free_vars")] == []
    checks = collections.Counter(
        (name, fn.name) for name, fn in functions for called in _calls(fn) if called == "check_expr"
    )
    # one call per expression: parse's result, Problem's f and exact, max_errors' reference
    assert checks == {("expressions.py", "parse"): 1, ("solver.py", "__post_init__"): 2,
                      ("diagnostics.py", "max_errors"): 1}


def test_every_number_a_caller_gives_is_checked_by_one_rule():
    trees = {path.name: _tree(path) for path in sorted(SRC.rglob("*.py"))}
    functions = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)]
    assert [name for name, fn in functions if fn.name == "check_real"] == ["series.py"]
    # from numbers import Real, or import numbers
    readers = sorted(
        name for name, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "numbers"
        or isinstance(node, ast.Import) and "numbers" in [a.name for a in node.names]
    )
    assert readers == ["series.py"]
    checks = collections.Counter(
        (name, fn.name) for name, fn in functions for called in _calls(fn) if called == "check_real"
    )
    # Problem's six numbers, each literal, each literal the printer or eval_real reads,
    # benchmark_problem's alpha and beta, the operator's pair
    assert checks == {("solver.py", "__post_init__"): 1, ("expressions.py", "check_expr"): 1,
                      ("expressions.py", "_number"): 1,
                      ("benchmarks.py", "benchmark_problem"): 2,
                      ("singular_operator.py", "__post_init__"): 1}


def test_every_count_a_caller_gives_is_checked_by_one_rule():
    trees = {path.name: _tree(path) for path in sorted(SRC.rglob("*.py"))}
    functions = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)]
    assert [name for name, fn in functions if fn.name == "check_count"] == ["solver.py"]
    # operator.index, the integer test, is read by the rule alone
    readers = sorted(
        (name, fn.name) for name, fn in functions for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr == "index"
        and isinstance(node.value, ast.Name) and node.value.id == "operator"
    )
    assert readers == [("solver.py", "check_count")]

    def callers(function):
        return collections.Counter(
            (name, fn.name) for name, fn in functions for called in _calls(fn) if called == function
        )

    # solve's n, partial_sum's m, and the grid size where the grid is built and where cli table
    # checks it before its first solve
    assert callers("check_count") == {("solver.py", "solve"): 1, ("solver.py", "partial_sum"): 1,
                                      ("diagnostics.py", "_uniform_grid"): 1,
                                      ("cli.py", "_cmd_table"): 1}


def test_check_real_takes_a_float_in_one_exact_type_branch_first():
    (check,) = [node for node in ast.walk(_tree(SRC / "series.py"))
                if isinstance(node, ast.FunctionDef) and node.name == "check_real"]
    exact = [ast.unparse(node) for node in ast.walk(check)
             if isinstance(node, ast.Compare) and "float" in ast.unparse(node)]
    assert exact == ["type(value) is float"]
    first = check.body[1]  # after the docstring
    assert ast.unparse(first.test) == "type(value) is float and math.isfinite(value)"
    assert [ast.unparse(line) for line in first.body] == ["return value"]


def test_benchmarks_build_trees_without_the_parser():
    tree = _tree(SRC / "benchmarks.py")
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    reached = {getattr(node, "module", None) for node in imports}
    reached |= {a.name.split(".")[-1] for node in imports for a in node.names}
    assert not {"problem_file", "parse", "parse_problem_text"} & reached
    assert "parse" not in _calls(tree)


def test_only_expressions_names_the_layout():
    # every other module passes trees, and each tree keeps its own layout
    naming = sorted(path.name for path in SRC.rglob("*.py")
                    if re.search(r"\b(Layout|_layout|_laid_out)\b", path.read_text(encoding="utf-8")))
    assert naming == ["expressions.py"]


def test_problem_holds_its_eight_fields_alone():
    assert [field.name for field in dataclasses.fields(Problem)] == [
        "alpha", "sigma", "f", "eta1", "alpha1", "beta1", "gamma1", "exact"]
