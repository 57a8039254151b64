import sys

import pytest

import dimergeom


def test_every_export_is_the_defining_submodules_object():
    for name in dimergeom.__all__:
        ns: dict = {}
        exec(f"from dimergeom import {name}", ns)
        obj = ns[name]
        assert obj.__module__.startswith("dimergeom."), name
        assert obj is getattr(sys.modules[obj.__module__], name), name


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dimergeom.no_such_name


def test_star_import_binds_every_export():
    ns: dict = {}
    exec("from dimergeom import *", ns)
    assert sorted(set(ns) - {"__builtins__"}) == dimergeom.__all__
