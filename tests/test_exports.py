"""Every exported name resolves: a name deleted from a module but left in its
``__all__`` or in the package's imports fails here, not only under
``from idealcore.<module> import *``.  Every name the package imports is in
its module's ``__all__``."""

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


def _package_imports():
    """(module, name) for each name ``idealcore/__init__.py`` imports from a module."""
    tree = ast.parse(Path(idealcore.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_every_name_the_package_imports_resolves():
    imported = _package_imports()
    assert imported
    missing = [(module, name) for module, name in imported if not hasattr(importlib.import_module(f"idealcore.{module}"), name)]
    assert missing == []


@pytest.mark.parametrize("module", sorted({module for module, _ in _package_imports()}))
def test_every_name_the_package_imports_is_in_its_modules_all(module):
    # The package's imports and each module's ``__all__`` name the same
    # exports, so removing one means editing both lists.
    listed = getattr(importlib.import_module(f"idealcore.{module}"), "__all__", ())
    unlisted = [name for source, name in _package_imports() if source == module and name not in listed]
    assert unlisted == []
