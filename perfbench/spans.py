"""Span tracing of the sphere library from outside it.

The tracer replaces module attributes of the installed ``sphere`` package
with recording wrappers.  A function imported by value into another module
(``trainer`` does ``from .losses import sphere_loss``) is bound under
several names, so every binding that is the original function object is
replaced: each caller looks its name up at call time and finds a wrapper.

Each span keeps name, start, end, parent span, block index and a computed
work count (flops or bytes).  Spans stay in memory until ``save`` writes
them out; ``layer_metrics`` turns them into the per-layer metrics.
"""

import sys
from array import array
from time import perf_counter

import numpy as np

N_BLOCKS = 3  # both network workloads train three blocks

# (defining module, attribute, span name)
TRACED = (
    ("network", "im2col", "network.im2col"),
    ("network", "conv_forward", "network.conv_forward"),
    ("network", "conv_backward", "network.conv_backward"),
    ("network", "activation", "network.activation"),
    ("network", "maxpool2x2_forward", "network.maxpool2x2_forward"),
    ("network", "maxpool2x2_backward", "network.maxpool2x2_backward"),
    ("network", "block_backward", "network.block_backward"),
    ("trainer", "build_blocks", "trainer.build_blocks"),
    ("trainer", "train_greedy", "trainer.train_greedy"),
    ("trainer", "features", "trainer.features"),
    ("trainer", "train_probe", "trainer.train_probe"),
    ("trainer", "train_linear_block", "trainer.train_linear_block"),
    ("losses", "sphere_loss", "losses.sphere_loss"),
    ("losses", "sphere_grad_linear", "losses.sphere_grad_linear"),
    ("linalg", "row_normalize", "linalg.row_normalize"),
    ("linalg", "as_matrix", "linalg.as_matrix"),
    ("data", "make_synthetic_images", "data.make_synthetic_images"),
    ("data", "to_float", "data.to_float"),
    ("data", "synth_gaussian", "data.synth_gaussian"),
    ("oracle", "principal_projection", "oracle.principal_projection"),
)

# per-block spans: metric name -> (span name, "ms" total or "self_ms")
BLOCK_METRICS = (
    ("network.im2col", "network.im2col", "ms"),
    ("network.conv_forward", "network.conv_forward", "self_ms"),
    ("network.conv_backward", "network.conv_backward", "ms"),
    ("network.activation", "network.activation", "ms"),
    ("network.maxpool2x2_forward", "network.maxpool2x2_forward", "ms"),
    ("network.maxpool2x2_backward", "network.maxpool2x2_backward", "ms"),
    ("network.block_backward", "network.block_backward", "self_ms"),
)


def _out_hw(h, w, kh, kw, stride, pad):
    return (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1


class Tracer:
    """Records spans for one workload unit (one process)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = []                 # span-name table
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.block = array("i")
        self.work = array("d")
        self._stack = []
        self._kernel_block = {}         # id(kernel array) -> block index
        self._current_block = -1
        self._patched = []

    # -- recording -----------------------------------------------------

    def _span(self, name, fn, annotate):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]

        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            blk, work = annotate(args, kwargs) if annotate else (self._current_block, 0.0)
            self.block.append(blk)
            self.work.append(work)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()

        return wrapper

    def _annotators(self):
        def conv_forward(args, kw):
            x, kernel = args[0], args[1]
            stride = kw.get("stride", args[3] if len(args) > 3 else 1)
            pad = kw.get("padding", args[4] if len(args) > 4 else 1)
            self._current_block = self._kernel_block.get(id(kernel), -1)
            b, c, h, w = x.shape
            o, _, kh, kw_ = kernel.shape
            oh, ow = _out_hw(h, w, kh, kw_, stride, pad)
            return self._current_block, 2.0 * b * oh * ow * o * c * kh * kw_

        def conv_backward(args, kw):
            self._current_block = self._kernel_block.get(id(args[1][2]), -1)
            return self._current_block, 0.0

        def im2col(args, kw):
            x, kh, kw_, stride, pad = args[:5]
            b, c, h, w = x.shape
            oh, ow = _out_hw(h, w, kh, kw_, stride, pad)
            return self._current_block, float(b * oh * ow * c * kh * kw_ * x.itemsize)

        def block_backward(args, kw):
            f, phi, x = args[:3]
            self._current_block = self._kernel_block.get(id(f.kernel), -1)
            if phi is not None:
                m = phi.fc_w.shape[1]
            else:  # Z is the flattened 2x2-pooled main output
                m = f.kernel.shape[0] * (x.shape[2] // 2) * (x.shape[3] // 2)
            return self._current_block, float(m * m * x.itemsize)

        return {"network.conv_forward": conv_forward, "network.conv_backward": conv_backward,
                "network.im2col": im2col, "network.block_backward": block_backward}

    def _register_blocks(self, fn):
        def build_blocks(*args, **kwargs):
            blocks = fn(*args, **kwargs)
            for bi, (f, phi) in enumerate(blocks):
                self._kernel_block[id(f.kernel)] = bi
                if phi is not None:
                    for k in phi.conv_kernels:
                        self._kernel_block[id(k)] = bi
            return blocks
        return build_blocks

    # -- installing ----------------------------------------------------

    def install(self):
        """Wrap every traced function under every name it is bound to."""
        import sphere.trainer  # noqa: F401  (imports every traced module)

        modules = [m for n, m in sys.modules.items()
                   if n == "sphere" or n.startswith("sphere.")]
        annotators = self._annotators()
        for mod_name, attr, span in TRACED:
            original = getattr(sys.modules[f"sphere.{mod_name}"], attr)
            fn = self._register_blocks(original) if attr == "build_blocks" else original
            wrapper = self._span(span, fn, annotators.get(span))
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        adamw = sys.modules["sphere.trainer"].AdamW
        step = adamw.step
        self._patched.append((adamw, "step", step))
        adamw.step = self._span("trainer.AdamW.step", step, None)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output --------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "block": np.frombuffer(self.block, dtype=np.int32),
            "work": np.frombuffer(self.work, dtype=np.float64),
        }

    def save(self, path):
        np.savez(path, run_id=np.array(self.run_id), names=np.array(self.names), **self.arrays())


def layer_metrics(names, spans) -> dict:
    """Per-layer metrics of one unit from its spans (times in ms)."""
    name = spans["name"]
    dur = (spans["end"] - spans["start"]) * 1e3
    parent = spans["parent"]
    child_ms = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child_ms, parent[has_parent], dur[has_parent])
    self_ms = dur - child_ms
    nid = {n: i for i, n in enumerate(names)}

    def mask(span):
        return name == nid[span] if span in nid else np.zeros(len(name), dtype=bool)

    out = {}
    for metric, span, kind in BLOCK_METRICS:
        sel = mask(span)
        vals = self_ms if kind == "self_ms" else dur
        for b in range(N_BLOCKS):
            out[f"{metric}.b{b}.{kind}"] = float(vals[sel & (spans["block"] == b)].sum())

    out["network.conv_forward.gflop"] = float(spans["work"][mask("network.conv_forward")].sum() / 1e9)
    out["network.im2col.mbytes"] = float(spans["work"][mask("network.im2col")].sum() / 1e6)
    out["network.orth_gram.mbytes"] = float(spans["work"][mask("network.block_backward")].sum() / 1e6)

    # re-forward: network spans directly under train_greedy, outside block_backward
    greedy = mask("trainer.train_greedy")
    under_greedy = has_parent & greedy[np.maximum(parent, 0)]
    network = np.zeros(len(name), dtype=bool)
    for n, i in nid.items():
        if n.startswith("network.") and n != "network.block_backward":
            network |= name == i
    reforward = under_greedy & network
    out["trainer.reforward.ms"] = float(dur[reforward].sum())
    out["trainer.reforward.conv_calls"] = int(np.sum(reforward & mask("network.conv_forward")))

    step = mask("trainer.AdamW.step")
    out["trainer.AdamW.step.ms"] = float(dur[step].sum())
    out["trainer.AdamW.step.calls"] = int(step.sum())
    out["trainer.greedy_steps"] = int(np.sum(step & under_greedy))
    # block steps: block_backward and AdamW.step spans directly under train_greedy
    block_step = under_greedy & (step | mask("network.block_backward"))
    out["trainer.block_steps.ms"] = float(dur[block_step].sum())
    out["trainer.train_greedy.ms"] = float(dur[greedy].sum())
    for span in ("trainer.features", "trainer.train_probe", "losses.sphere_loss",
                 "losses.sphere_grad_linear", "linalg.row_normalize", "linalg.as_matrix",
                 "data.make_synthetic_images", "data.to_float", "data.synth_gaussian",
                 "oracle.principal_projection"):
        out[f"{span}.ms"] = float(dur[mask(span)].sum())
    out["losses.sphere_loss.calls"] = int(mask("losses.sphere_loss").sum())
    out["linalg.row_normalize.calls"] = int(mask("linalg.row_normalize").sum())
    out["trace.spans"] = int(len(name))
    return out
