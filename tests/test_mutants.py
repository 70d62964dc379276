"""The form of the mutation catalogue in ``tests/mutants.py``; running it is not a tier-1 test."""

import ast
import functools

from mutants import MUTANTS, ROOT


@functools.lru_cache(maxsize=None)
def _functions(path):
    tree = ast.parse((ROOT / path).read_text())
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_each_mutant_replaces_one_text_and_names_existing_tests():
    assert len({m.id for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert (ROOT / m.path).read_text().count(m.old) == 1, m.id
        assert m.new != m.old and m.tests, m.id
        for test in m.tests:
            path, function = test.split("::")
            assert function.startswith("test_") and function in _functions(path), (m.id, test)
