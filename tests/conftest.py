"""Shared fixtures."""

import tracemalloc

import pytest

from sphere import cli, trainer
from sphere import network as net


class ForwardCounts:
    """Images that each block runs on in network.forward, split into the
    "train" phase (inside a train_greedy call) and the "eval" phase
    (everything else).  block_backward never calls network.forward."""

    def __init__(self):
        self.images = {"train": {}, "eval": {}}
        self.blocks = []  # the blocks of each train_greedy call

    def per_block(self, phase):
        """Counts of `phase` for the blocks of the last train_greedy call."""
        return [self.images[phase].get(id(f), 0) for f, _ in self.blocks[-1]]


@pytest.fixture
def forward_counts(monkeypatch):
    """Counts the images through each block of every network.forward call,
    with train_greedy marked where trainer and cli look it up."""
    counts = ForwardCounts()
    state = {"phase": "eval"}
    forward, train_greedy = net.forward, trainer.train_greedy

    def counting_forward(blocks, x):
        seen = counts.images[state["phase"]]
        for f, _ in blocks:
            seen[id(f)] = seen.get(id(f), 0) + len(x)
        return forward(blocks, x)

    def marked_greedy(*args, **kwargs):
        state["phase"] = "train"
        try:
            out = train_greedy(*args, **kwargs)
        finally:
            state["phase"] = "eval"
        counts.blocks.append(out[0])
        return out

    monkeypatch.setattr(net, "forward", counting_forward)
    monkeypatch.setattr(trainer, "train_greedy", marked_greedy)
    monkeypatch.setattr(cli, "train_greedy", marked_greedy)
    return counts


@pytest.fixture
def traced_peak():
    """Runs fn(*args, **kwargs) under tracemalloc and returns its result and
    the traced peak in bytes."""
    def run(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            out = fn(*args, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, peak
    return run
