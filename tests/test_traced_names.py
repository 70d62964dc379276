"""Every name the benchmark tracer wraps exists in this package.

``bench/spans.py`` replaces the functions it lists in ``WRAPPED`` at run
time; a refactor that drops one would otherwise surface only in a traced
``bench/run.py`` run.  The module is loaded by file path, as it stands.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.WRAPPED


@pytest.mark.parametrize("module_name,attr", _wrapped())
def test_every_traced_name_resolves_to_a_callable(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))
