"""Only `experiments` writes files: no other module of the package calls
open, json.dump, np.savetxt, Path.write_text or Path.write_bytes. So each
file's layout, and the number format of every CSV, is decided in one
module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sdeim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "experiments.py")
WRITERS = {"open", "dump", "savetxt", "write_text", "write_bytes"}


def file_writes(source):
    """(enclosing function or None, called name) for every call in source
    to a name, or an attribute, in WRITERS."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in WRITERS:
                    found.append((where, name))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else where)

    visit(ast.parse(source), None)
    return found


def test_guard_sees_each_writer():
    source = ("import json\nimport numpy as np\n"
              "open('a', 'w')\n"
              "class T:\n"
              "    def to_csv(self, path):\n"
              "        json.dump({}, path)\n"
              "        np.savetxt(path, self.a)\n"
              "        path.write_text('x')\n"
              "        path.write_bytes(b'x')\n")
    assert file_writes(source) == [(None, "open"), *(("to_csv", name) for name in (
        "dump", "savetxt", "write_text", "write_bytes"))]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_experiments_writes_files(path):
    assert file_writes(path.read_text()) == []
