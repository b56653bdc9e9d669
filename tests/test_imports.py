"""Every name a module of the package, a test module or a demo imports is
used in that module (the package's __init__, which imports to re-export,
excepted)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sdeim"
MODULES = [
    *sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    *sorted((ROOT / "tests").glob("*.py")),
    *sorted((ROOT / "demos").glob("*.py")),
]


def unused_imports(source):
    """The names bound by the module's imports that no Name node reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_guard_sees_an_unused_import():
    assert unused_imports("import os\nfrom .errors import DimensionError, RankError\n"
                          "raise RankError\n") == ["DimensionError", "os"]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(PACKAGE if p.parent == PACKAGE else ROOT)) for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
