"""Every exported name resolves: each name in a ``mechlearn`` module's
``__all__``, and each name the package re-exports, which its module must
also list in its ``__all__`` where it has one."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mechlearn

MODULES = sorted(info.name for info in pkgutil.iter_modules(mechlearn.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"mechlearn.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [x for x in exported if not hasattr(module, x)] == []


def test_every_package_reexport_resolves():
    tree = ast.parse(Path(mechlearn.__file__).read_text(encoding="utf-8"))
    imports = [
        node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(f"mechlearn.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), (node.module, alias.name)
            assert hasattr(mechlearn, alias.asname or alias.name), alias.name
            if hasattr(module, "__all__"):
                assert alias.name in module.__all__, (node.module, alias.name)
