"""The package root: every name it exports resolves, and a star import works."""

import adomian_bvp


def test_every_exported_name_resolves():
    assert [name for name in adomian_bvp.__all__ if not hasattr(adomian_bvp, name)] == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from adomian_bvp import *", namespace)
    assert set(adomian_bvp.__all__) <= namespace.keys()
