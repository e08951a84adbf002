"""No module of the package reads a private name of another package module.

A module's private names (one leading underscore) are its own: another
module of the package reads neither an attribute `mod._name` of a module
it imported relatively (`from . import network as net`) nor a name it
imported as `from .mod import _name`.  The check reads the source alone,
as tests/test_imports.py does.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "sphere").glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_reads(source: str) -> list:
    """Each read of another package module's private name in `source`,
    sorted: "mod._name" for an attribute, "_name" for an import."""
    tree = ast.parse(source)
    modules, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:  # from . import mod
                modules |= {a.asname or a.name for a in node.names}
            reads += [a.name for a in node.names if _private(a.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            reads.append(f"{node.value.id}.{node.attr}")
    return sorted(reads)


def test_finds_a_private_read():
    assert private_reads("from . import a as b\nfrom .c import _d, e\nimport f\n"
                         "b._g()\nb.h(b._g)\nf._i\nb.__name__\n") == ["_d", "b._g", "b._g"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_read(path):
    assert private_reads(path.read_text()) == [], path.name
