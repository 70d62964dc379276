"""The form of ``tests/compare.py``: a small sweep of the working tree against itself finds no
difference.  A full sweep against a parent is not a tier-1 test."""

import time
from pathlib import Path

import compare

import adomian_bvp


def test_a_small_sweep_of_the_working_tree_against_itself_finds_no_difference(tmp_path):
    started = time.perf_counter()
    parent = compare.load_parent(str(Path(adomian_bvp.__file__).parent.parent), tmp_path)
    assert parent.__name__ == "adomian_bvp_parent" and parent is not adomian_bvp
    cases, differences = compare.sweep(parent, adomian_bvp, sources=20, limit=2)
    assert cases == 2 + 2 * 3 + 2 + 20 * 3  # deep, robin (three commands), table, sources
    assert differences == []
    assert time.perf_counter() - started < 2.0


def test_each_class_of_difference_is_told_apart():
    value, error, other = (compare.Outcome("value", b"1", ""), compare.Outcome("error", "A", "a"),
                           compare.Outcome("error", "B", "a"))
    assert compare._classify(value, value, printed=False) is None
    assert compare._classify(value, compare.Outcome("value", b"2", ""), printed=False) == "value"
    assert compare._classify(value, error, printed=False) == "error"
    assert compare._classify(error, other, printed=False) == "error"
    assert compare._classify(error, error._replace(text="b"), printed=False) == "text"
    assert compare._classify(value, value._replace(text="b"), printed=True) == "text"
    assert compare._classify(value, value._replace(text="b"), printed=False) == "value"
    assert compare._one_minus_per_literal("x - --2.0*---0.5 + -(-1.0)") == "x - 2.0*-0.5 + -(-1.0)"
