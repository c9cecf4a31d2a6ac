"""Every name a demo imports from crysgram exists.

Reads each ``demos/*.py`` with ``ast`` and runs none of them, so a demo
that still imports a deleted name fails here in well under a second."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def crysgram_imports(path):
    """(module, name) for each ``from crysgram... import name`` in a file;
    name is None for a plain ``import crysgram...``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "crysgram":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "crysgram":
                    yield alias.name, None


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(path):
    imports = list(crysgram_imports(path))
    assert imports
    for module, name in imports:
        loaded = importlib.import_module(module)
        assert name is None or hasattr(loaded, name), (
            f"{path.name}: {module} has no {name}")
