import ast
import subprocess
import sys
from pathlib import Path

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


def test_every_imported_name_is_used_in_its_module():
    # a deleted helper leaves no import behind; __init__ imports to export
    for path in sorted(Path(dimergeom.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported - used - {"annotations"} == set(), path.name


def test_no_module_imports_dataclasses_or_the_inspect_stack():
    # each would add milliseconds to every command's start-up
    src = Path(dimergeom.__file__).parent.parent
    code = (
        f"import os, sys; sys.path.insert(0, {str(src)!r}); import dimergeom.cli\n"
        f"for name in sorted(os.listdir({str(src / 'dimergeom')!r})):\n"
        "    if name.endswith('.py'): __import__('dimergeom.' + name[:-3])\n"
        "print(*sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
