"""The library interface that the benchmark in perfbench/ relies on.

perfbench wraps and calls the package from outside it, by module attribute
and by the shape of return values, so a library change can break the
benchmark without failing any other test.  These tests read
perfbench/spans.py and perfbench/unit.py and pin what they use.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sphere import network as net
from sphere import trainer

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


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


def test_conv_backward_cache_holds_the_kernel(monkeypatch):
    # spans' conv_backward annotator finds the block by id(cache[2]): every
    # conv_backward call of a block step, one per chunk, gets f.kernel there
    rng = np.random.default_rng(0)
    f = net.init_main_block(3, 4, rng)
    phi = net.init_aux_block(4, d_proj=4, depth=1, rng=rng)
    kernels = []
    conv_backward = net.conv_backward

    def recording_conv_backward(dq, cache):
        kernels.append(cache[2])
        return conv_backward(dq, cache)

    monkeypatch.setattr(net, "conv_backward", recording_conv_backward)
    net.block_backward(f, phi, rng.standard_normal((net.CHUNK + 2, 3, 8, 8)), lam=0.8)
    assert len(kernels) == 2 and all(k is f.kernel for k in kernels)


def test_tracer_times_every_block(monkeypatch):
    # run.py --trace 1 in-process: an annotator that cannot read its call
    # (im2col's five positional arguments, conv_backward's cache[2]) raises
    # out of train_greedy, and a span that loses its block reads 0 ms
    spans = _load("spans")
    tracer = spans.Tracer("test")
    x = np.random.default_rng(0).standard_normal((8, 3, 8, 8))
    config = trainer.TrainConfig(channels=(2, 2, 2), epochs=3, batch_size=4, d_proj=4)
    flops = []  # 2*B*H*W*O*C*9 per call: a stride-1, padding-1 3x3 conv
    conv_forward = net.conv_forward

    def counting_conv_forward(x, kernel, bias, **kw):
        (b, c, h, w), o = x.shape, kernel.shape[0]
        flops.append(2 * b * h * w * o * c * 9)
        return conv_forward(x, kernel, bias, **kw)

    monkeypatch.setattr(net, "conv_forward", counting_conv_forward)  # the tracer wraps it
    tracer.install()
    try:
        trainer.train_greedy(config, x)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.names, tracer.arrays())
    assert flops and metrics["network.conv_forward.gflop"] == sum(flops) / 1e9
    for b in range(spans.N_BLOCKS):
        for kernel in ("im2col", "conv_backward", "maxpool2x2_backward"):
            assert metrics[f"network.{kernel}.b{b}.ms"] > 0, (kernel, b)


def test_tracer_times_every_block_over_several_chunks(monkeypatch):
    # test_tracer_times_every_block's checks with every step's batch split
    # into two full chunks and a ragged one: each chunk's im2col, conv and
    # max-pool calls are spans of their block
    spans = _load("spans")
    tracer = spans.Tracer("test")
    n = 2 * net.CHUNK + 3
    x = np.random.default_rng(0).standard_normal((n, 3, 8, 8))
    config = trainer.TrainConfig(channels=(2, 2, 2), epochs=3, batch_size=n, d_proj=4)
    flops = []
    conv_forward = net.conv_forward

    def counting_conv_forward(x, kernel, bias, **kw):
        (b, c, h, w), o = x.shape, kernel.shape[0]
        flops.append(2 * b * h * w * o * c * 9)
        return conv_forward(x, kernel, bias, **kw)

    monkeypatch.setattr(net, "conv_forward", counting_conv_forward)
    tracer.install()
    try:
        trainer.train_greedy(config, x)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.names, tracer.arrays())
    assert len(flops) == 3 * 3 + 2 * 3  # a step per block, and two re-forwards, of 3 chunks
    assert metrics["network.conv_forward.gflop"] == sum(flops) / 1e9
    for b in range(spans.N_BLOCKS):
        for kernel in ("im2col", "conv_backward", "maxpool2x2_backward"):
            assert metrics[f"network.{kernel}.b{b}.ms"] > 0, (kernel, b)


def test_tracer_times_every_block_over_an_indexed_batch(monkeypatch):
    # each step reads a 17-image batch (two full chunks and a ragged one)
    # out of a 19-image stage by index, the 2 left over dropped: the
    # block_backward annotator reads H, W and the itemsize from the stage
    # it is handed, so without a head the orth Gram count, M^2 * itemsize
    # per step with M = C * H/2 * W/2, must be the batch's all the same
    spans = _load("spans")
    tracer = spans.Tracer("test")
    x = np.random.default_rng(0).standard_normal((2 * net.CHUNK + 3, 3, 8, 8))
    config = trainer.TrainConfig(channels=(2, 2, 2), epochs=3, batch_size=2 * net.CHUNK + 1,
                                 use_phi=False)
    flops = []
    conv_forward = net.conv_forward

    def counting_conv_forward(x, kernel, bias, **kw):
        (b, c, h, w), o = x.shape, kernel.shape[0]
        flops.append(2 * b * h * w * o * c * 9)
        return conv_forward(x, kernel, bias, **kw)

    monkeypatch.setattr(net, "conv_forward", counting_conv_forward)
    tracer.install()
    try:
        trainer.train_greedy(config, x)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.names, tracer.arrays())
    assert len(flops) == 3 * 3 + 2 * 3  # a step per block, and two re-forwards, of 3 chunks
    assert metrics["network.conv_forward.gflop"] == sum(flops) / 1e9
    m = [2 * (4 >> b) ** 2 for b in range(3)]  # one step per block, Z 32, 8 and 2 wide
    assert metrics["network.orth_gram.mbytes"] == sum(v * v * x.itemsize for v in m) / 1e6
    for b in range(spans.N_BLOCKS):
        for kernel in ("im2col", "conv_backward", "maxpool2x2_backward"):
            assert metrics[f"network.{kernel}.b{b}.ms"] > 0, (kernel, b)


@pytest.mark.parametrize("workload", [["desk-greedy"], ["ablate-wide"],
                                      ["lemma-linear", "--variant", "8"]],
                         ids=lambda w: w[0])
def test_unit_checks_pass_at_tiny_scale(workload):
    # the benchmark's own checks (losses_finite, own_loss_drops, the lemma
    # ratio, ...) on this checkout, as run.py starts a unit
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "perfbench"]))
    done = subprocess.run([sys.executable, "perfbench/unit.py", "--workload", *workload,
                           "--scale", "tiny", "--trace", "0", "--seed", "1"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert Path(result["sphere_file"]).resolve().is_relative_to(ROOT / "src")
    assert result["failures"] == []
