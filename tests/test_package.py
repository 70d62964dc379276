"""The package root: every name it exports resolves, and a star import works.
The A_k recurrences live beside the tape that drives them, and no other module
reaches them, so the tape stays the only code that runs them."""

import ast
from pathlib import Path

import adomian_bvp

SRC = Path(adomian_bvp.__file__).resolve().parent
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


def test_expressions_imports_nothing_from_lambda_ring():
    imported = []
    for node in ast.walk(_tree(SRC / "expressions.py")):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
    assert [name for name in imported if "lambda_ring" in name] == []


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
