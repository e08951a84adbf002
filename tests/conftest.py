"""Shared fixtures."""

import pytest

from sphere import cli, trainer
from sphere import network as net


class ForwardCounts:
    """Images that each block's main path runs on outside block_backward,
    split into the "train" phase (inside a train_greedy call) and the
    "eval" phase (everything else)."""

    def __init__(self):
        self.images = {"train": {}, "eval": {}}
        self.blocks = []  # the blocks of each train_greedy call

    def per_block(self, phase):
        """Counts of `phase` for the blocks of the last train_greedy call."""
        return [self.images[phase].get(id(f), 0) for f, _ in self.blocks[-1]]


@pytest.fixture
def forward_counts(monkeypatch):
    """Counts the images through each block's forward pass, with
    train_greedy marked where trainer and cli look it up."""
    counts = ForwardCounts()
    state = {"phase": "eval", "inside": 0}
    main_forward, block_backward = net._main_forward, net.block_backward
    train_greedy = trainer.train_greedy

    def counting_forward(f, h, *args, **kwargs):
        if not state["inside"]:
            seen = counts.images[state["phase"]]
            seen[id(f)] = seen.get(id(f), 0) + len(h)
        return main_forward(f, h, *args, **kwargs)

    def marked_backward(*args, **kwargs):
        state["inside"] += 1
        try:
            return block_backward(*args, **kwargs)
        finally:
            state["inside"] -= 1

    def marked_greedy(*args, **kwargs):
        state["phase"] = "train"
        try:
            out = train_greedy(*args, **kwargs)
        finally:
            state["phase"] = "eval"
        counts.blocks.append(out[0])
        return out

    monkeypatch.setattr(net, "_main_forward", counting_forward)
    monkeypatch.setattr(net, "block_backward", marked_backward)
    monkeypatch.setattr(trainer, "train_greedy", marked_greedy)
    monkeypatch.setattr(cli, "train_greedy", marked_greedy)
    return counts
