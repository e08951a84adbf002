"""Every public function, class and method of the package has a caller.

A name counts as used when it appears as a Name, an Attribute or a string
constant (perfbench's TRACED table names functions as strings) in the
package itself, in perfbench or in the acceptance criteria.  The other
unit tests do not count: a name that only they reach is dead code.  A name
that only perfbench reaches is listed in PERFBENCH_ONLY, so the list shows
what the benchmark alone keeps in the package.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "sphere").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
OWN_CALLERS = [*PACKAGE, ROOT / "tests" / "test_acceptance.py"]
PERFBENCH_ONLY = {"MemoryConstraintError", "row_normalize"}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def public_names():
    """{module:qualified name: bare name} of every public module-level
    function and class and every public method."""
    out = []
    for path in PACKAGE:
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            out.append((f"{path.stem}:{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                out += [(f"{path.stem}:{node.name}.{item.name}", item.name) for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return dict(out)


def used_names(paths):
    used = set()
    for path in paths:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return used


PUBLIC = public_names()
OWN_USED = used_names(OWN_CALLERS)
USED = OWN_USED | used_names(PERFBENCH)


@pytest.mark.parametrize("qualname", sorted(PUBLIC))
def test_public_name_has_a_caller(qualname):
    has_caller = PUBLIC[qualname] in USED
    assert has_caller, f"{qualname} has no caller in src/sphere, perfbench or tests/test_acceptance.py"


def test_perfbench_only_names_are_listed():
    only = {name for name in PUBLIC.values() if name in USED and name not in OWN_USED}
    assert only <= PERFBENCH_ONLY, f"only perfbench calls {sorted(only - PERFBENCH_ONLY)}"
    assert PERFBENCH_ONLY <= only, f"no longer perfbench-only: {sorted(PERFBENCH_ONLY - only)}"
