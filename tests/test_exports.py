"""Every exported name resolves: a name deleted from a module but left in its
``__all__`` or in the package's imports fails here, not only under
``from idealcore.<module> import *``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import idealcore

_MODULES = sorted(info.name for info in pkgutil.iter_modules(idealcore.__path__))


@pytest.mark.parametrize("name", _MODULES)
def test_every_name_in_a_modules_all_resolves(name):
    module = importlib.import_module(f"idealcore.{name}")
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(idealcore.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    missing = [(module, name) for module, name in imported if not hasattr(importlib.import_module(f"idealcore.{module}"), name)]
    assert missing == []
