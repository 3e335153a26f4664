"""Every name a package module imports is used in that module.

``__init__.py`` is left out: its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rainbowmatch"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scanner_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from json import dumps as d, loads\nsys.exit(d(os))\n")
    assert unused_imports(source) == ["loads"]


def test_package_has_modules():
    assert {"campaigns.py", "cli.py", "io.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
