"""The library interface that the benchmark in perfbench/ relies on.

perfbench wraps and calls the package from outside it, by module attribute
and by the shape of return values, so a library change can break the
benchmark without failing any other test.  These tests read
perfbench/spans.py and perfbench/unit.py and pin what they use.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from sphere import network as net
from sphere import trainer

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = _load("spans").TRACED


def unit_attributes():
    """(module, attribute) of every `<alias>.<attribute>` in unit.py whose
    alias is bound to a sphere module by a `from sphere import ...`."""
    tree = ast.parse((PERFBENCH / "unit.py").read_text())
    aliases = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "sphere":
            aliases.update({a.asname or a.name: a.name for a in node.names})
    return sorted({(aliases[node.value.id], node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in aliases})


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in TRACED],
                         ids=[span for _, _, span in TRACED])
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"sphere.{module}"), attr, None))


UNIT_ATTRIBUTES = unit_attributes()


@pytest.mark.parametrize("module, attr", UNIT_ATTRIBUTES, ids=[".".join(p) for p in UNIT_ATTRIBUTES])
def test_unit_attribute_exists(module, attr):
    assert hasattr(importlib.import_module(f"sphere.{module}"), attr)


def test_train_greedy_returns_blocks_and_records():
    # unit.Phases records (*args, *out) per call and check_training unpacks
    # (config, images, blocks, records) from it
    x = np.random.default_rng(0).standard_normal((8, 3, 8, 8))
    config = trainer.TrainConfig(channels=(2, 2), epochs=2, batch_size=4, d_proj=4)
    for kwargs in ({}, {"last_input": []}):
        out = trainer.train_greedy(config, x, **kwargs)
        assert isinstance(out, tuple) and len(out) == 2
        blocks, records = out
        assert len(blocks) == 2 and len(records) == 2


def test_conv_forward_cache_holds_the_kernel():
    # spans' conv_backward annotator finds the block by id(cache[2])
    rng = np.random.default_rng(0)
    kernel = rng.standard_normal((4, 3, 3, 3))
    _, cache = net.conv_forward(rng.standard_normal((2, 3, 8, 8)), kernel, np.zeros(4))
    assert cache[2] is kernel
