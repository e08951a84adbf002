"""No module of the package or of the tests imports a name it never uses.

A name an import binds counts as used when it appears as a Name anywhere
in the same module (an attribute chain starts with one), so the check
reads the source alone, as tests/test_callers.py does.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "sphere").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list:
    """Names bound by an import in `source` that no Name node reads."""
    tree = ast.parse(source)
    bound, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(set(bound) - used)


def test_finds_an_unused_import():
    assert unused_imports("import os\nimport a.b\nfrom c import d as e\n"
                          "a.b.f()\n") == ["e", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == [], path.name
