"""numpy is the package's only runtime dependency: every import in
src/sphere is numpy, a standard-library module or relative."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).resolve().parents[1] / "src" / "sphere").glob("*.py"))


def imported_modules(path):
    """Top-level names of the absolute imports in path."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_imports_only_numpy_and_stdlib(path):
    allowed = sys.stdlib_module_names | {"numpy"}
    assert sorted(set(imported_modules(path)) - allowed) == []
