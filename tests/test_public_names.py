import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import witnesskit

MODULES = sorted(m.name for m in pkgutil.iter_modules(witnesskit.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    mod = importlib.import_module(f"witnesskit.{name}")
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(mod, n)] == []


def test_package_reexports_exist():
    tree = ast.parse(Path(witnesskit.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert {node.module for node in imports} >= {"numkit", "states", "witnesses", "detection"}
    for node in imports:
        mod = importlib.import_module(f"witnesskit.{node.module}")
        for alias in node.names:
            # each re-export is a public name of its own module
            assert alias.name in mod.__all__, (node.module, alias.name)
            assert getattr(witnesskit, alias.asname or alias.name) is getattr(mod, alias.name)
    assert [n for n in witnesskit.__all__ if not hasattr(witnesskit, n)] == []
