"""The package's public surface: ``fchybrid.__all__`` against what
``fchybrid/__init__.py`` binds."""

import ast
from pathlib import Path

import fchybrid


def bound_public_names():
    """Public names the package's ``__init__.py`` binds by import or assignment."""
    tree = ast.parse(Path(fchybrid.__file__).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_all_names_exactly_the_bound_public_names():
    assert len(fchybrid.__all__) == len(set(fchybrid.__all__))
    assert set(fchybrid.__all__) == bound_public_names()


def test_every_export_imports():
    namespace = {}
    exec("from fchybrid import *", namespace)
    for name in fchybrid.__all__:
        assert namespace[name] is getattr(fchybrid, name), name
