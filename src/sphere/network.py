"""Forward/backward machinery for one trainable block: a convolutional (or
dense) main transform with activation and pooling, plus a lightweight
auxiliary projection that maps the block output to a low-dimensional
matrix on which the structural loss is computed.

A main block max-pools its conv output before the activation: every
activation here is non-decreasing, so this equals activating first, on a
quarter of the elements.

Gradients are fully manual reverse-mode and never leave the block: the
input gradient is not produced, and the detached skip path contributes no
gradient at all.  Block caches hold forward values only: each backward
pass evaluates the activation derivative at the pre-activation it caches.

Memory layout: feature maps between blocks have the logical NCHW shape
(B, C, H, W) but are channels-last (NHWC) in memory, i.e. NCHW views of
(B, H, W, C) arrays.  A block runs its conv, bias and max-pool CHUNK images
at a time.  A chunk's conv rows are pool-major: im2col writes them as
(4, n, K), n = m*OH/2*OW/2 for m images, the position in each 2x2 pooling
window outermost and each quarter's rows in (b, i, j) order of the pooled
map.  So the conv GEMM yields (4, n, O), max-pooling and its backward pass
are elementwise work on four contiguous (n, O) blocks, and the chunks'
pooled rows, one after another, are the channels-last output map and the
aux head's input rows with no transpose copy.  The step's batch Grams ignore
column order, so they read rows in memory order: K_X the input's own (B, D)
row view, and Z without a head the pooled rows viewed as (B, h*w*C).

Workspace: block_backward takes an optional `work` dict, one per training
stage, that keeps one array from step to step: the batch's conv output q,
replaced when its shape or dtype changes.  The backward pass writes the
max-pool gradient over q and rebuilds each chunk's rows for its
kernel-gradient GEMM.  All else is allocated where it is used.  Over a
train_greedy run at the benchmark's ablate-wide and desk-greedy configs
(1 BLAS thread), keeping q took 3554 and 8700 minor page faults, a fresh
q per step 4066 and 9198, and keeping each chunk's padded input and rows
as well 3986 and 8437.  Results do not depend on `work`.  It stays because
a fresh q per step cost more in `perfbench/run.py --seed 1 --seconds 20
--trace 0`, in alternating pairs: desk-greedy's peak_rss_mb went 97.1 ->
98.4 MB (higher in 8 of 8 pairs), ablate-wide's median train_steps_per_s
57.4 -> 53.0 (slower in 5 of 6).

CHUNK = 8 holds a chunk's float32 rows to 0.9-3.5 MB at the desk widths
(the whole batch's reach 57 MB), under numpy's 4 MB huge-page threshold;
16 images per chunk took more memory and no less time.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .linalg import NumericsError, SphereError
from .losses import input_gram, structural_grads

CHUNK = 8  # images per conv pass; only the kernel gradient's rounding depends on it
ACTIVATIONS = ("relu", "leaky_relu", "tanh", "sigmoid", "binary_step")
LEAKY_SLOPE = 0.01


class MemoryConstraintError(SphereError, RuntimeError):
    """Kept only as a name perfbench imports; the library never raises it."""


# ---------------------------------------------------------------------------
# elementwise activations


def activation(kind: str, x: np.ndarray):
    """Elementwise activation of x, in x's dtype."""
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "leaky_relu":
        y = LEAKY_SLOPE * x
        return np.maximum(x, y, out=y)
    if kind == "tanh":
        return np.tanh(x)
    if kind == "sigmoid":
        return 0.5 + 0.5 * np.tanh(0.5 * x)  # 1/(1+exp(-x)) with no exp to overflow
    if kind == "binary_step":
        return (x > 0).astype(x.dtype)
    raise NumericsError(f"unknown activation kind: {kind!r}")


def activation_grad(kind: str, x: np.ndarray):
    """Derivative of activation(kind, .) at the pre-activation x; binary_step
    takes a straight-through derivative of 1 on |x| <= 1."""
    if kind == "binary_step":
        return (np.abs(x) <= 1.0).astype(x.dtype)
    if kind in ("relu", "leaky_relu"):
        d = (x > 0).astype(x.dtype)
        if kind == "leaky_relu":
            d *= 1.0 - LEAKY_SLOPE
            d += LEAKY_SLOPE
        return d
    y = activation(kind, x)  # raises on an unknown kind
    return 1.0 - y * y if kind == "tanh" else y * (1.0 - y)


# ---------------------------------------------------------------------------
# convolution via im2col


def _out_hw(h, w, kh, kw, stride, pad):
    return (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1


def im2col(x, kh, kw, stride, pad):
    """Pool-major patch rows of x (B,C,H,W): (4, n, kh*kw*C) with n =
    B*OH/2*OW/2.  Row r of quarter k is the patch of output position
    (2i+di, 2j+dj), where (b, i, j) is r's place in the pooled map and
    (di, dj) = _WINDOW[k]; columns are in (kh, kw, C) order.  One copy from
    one strided view of the channels-last padded input."""
    b, c, h, w = x.shape
    oh, ow = _out_hw(h, w, kh, kw, stride, pad)
    if oh % 2 or ow % 2:
        raise NumericsError(f"2x2 pooling needs an even conv output, got {oh}x{ow}")
    xp = np.zeros((b, h + 2 * pad, w + 2 * pad, c), x.dtype)
    xp[:, pad:pad + h, pad:pad + w] = x.transpose(0, 2, 3, 1)  # the border stays zero
    sb, sh, sw, sc = xp.strides
    s = stride
    win = as_strided(xp, (2, 2, b, oh // 2, ow // 2, kh, kw, c),
                     (s * sh, s * sw, sb, 2 * s * sh, 2 * s * sw, sh, sw, sc), writeable=False)
    return win.copy().reshape(4, -1, kh * kw * c)


def conv_forward(x, kernel, bias, *, out=None):
    """Stride-1 cross-correlation of x (B,C,H,W) with kernel (O,C,kh,kw),
    zero-padded by 1.

    Returns (q, cache): q is the (4, n, O) pool-major output rows (see
    im2col), written into the (4n, O) array `out` when given, and cache =
    (None, cols, kernel) feeds conv_backward (perfbench's tracer reads the
    kernel at index 2).
    """
    c = x.shape[1]
    o, ck, kh, kw = kernel.shape
    if ck != c:
        raise NumericsError(f"channel mismatch: input {c}, kernel {ck}")
    cols = im2col(x, kh, kw, 1, 1)
    wt = kernel.transpose(0, 2, 3, 1).reshape(o, -1).T
    q = np.matmul(cols.reshape(-1, kh * kw * c), wt, out=out).reshape(4, -1, o)  # one GEMM
    q += bias
    return q, (None, cols, kernel)


def conv_backward(dq, cache):
    """Kernel gradient (O,C,kh,kw) of a conv_forward call for the gradient
    dq of its (4, n, O) rows: one GEMM.  The bias gradient is the sum of
    dq's rows, which the caller takes.  No input gradient: a block's input
    is never trained through."""
    _, cols, kernel = cache
    o, c, kh, kw = kernel.shape
    dk = dq.reshape(-1, o).T @ cols.reshape(-1, kh * kw * c)
    return dk.reshape(o, kh, kw, c).transpose(0, 3, 1, 2)


# ---------------------------------------------------------------------------
# pooling


# the four positions of a 2x2 window, in tie-breaking order
_WINDOW = ((0, 0), (0, 1), (1, 0), (1, 1))


def maxpool2x2_forward(q, out=None):
    """2x2 max-pool of pool-major rows q (4, n, C): the elementwise max of
    the four quarters, (n, C), written into `out` when given.  The cache is
    (q, out)."""
    out = np.maximum(q[0], q[1], out=out)
    np.maximum(out, q[2], out=out)
    np.maximum(out, q[3], out=out)
    return out, (q, out)


def maxpool2x2_backward(grad_out, cache):
    """Route each window's gradient (n, C) to its first maximum in _WINDOW
    order; returns the (4, n, C) gradient of q.

    Consumes its cache: each quarter of q is overwritten with its routed
    gradient once it has been compared with the pooled max, and q itself
    is returned."""
    q, out = cache
    unrouted = np.ones_like(out, dtype=bool)   # windows with no winner yet
    for k in range(3):
        win = q[k] == out
        win &= unrouted
        np.multiply(grad_out, win, out=q[k])
        unrouted ^= win
    np.multiply(grad_out, unrouted, out=q[3])
    return q


def avgpool2x2(x):
    b, c, h, w = x.shape
    return x.reshape(b, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))


# ---------------------------------------------------------------------------
# blocks


@dataclass
class MainBlock:
    """Conv 3x3 -> maxpool 2x2 -> activation, with an optional detached
    avg-pool skip connection (channel mismatch handled by zero-padding).
    Every activation is non-decreasing, so this is conv -> activation ->
    maxpool, with each window's gradient sent to its pre-activation max.
    The conv yields pool-major (4, n, O) rows, so the max-pool is the max
    of four contiguous quarters and its (n, O) result is the output map."""

    kernel: np.ndarray
    bias: np.ndarray
    activation: str = "leaky_relu"
    use_skip: bool = False

    def params(self):
        return {"kernel": self.kernel, "bias": self.bias}


@dataclass
class AuxBlock:
    """Projection head: (1x1 conv, halving channels) x depth -> global
    average pool -> fully-connected to d_proj dimensions.  The 1x1 convs
    run as channel matmuls on (B*H*W, C) rows with (O, C) kernels."""

    conv_kernels: list
    conv_biases: list
    fc_w: np.ndarray
    fc_b: np.ndarray
    activation: str = "leaky_relu"

    def params(self):
        p = {}
        for i, (k, b) in enumerate(zip(self.conv_kernels, self.conv_biases)):
            p[f"conv{i}_kernel"] = k
            p[f"conv{i}_bias"] = b
        p["fc_w"] = self.fc_w
        p["fc_b"] = self.fc_b
        return p


def _kaiming_uniform(rng, shape, fan_in, dtype):
    bound = math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def init_main_block(in_ch, out_ch, rng, activation="leaky_relu", use_skip=False, dtype=np.float64):
    fan_in = in_ch * 9
    kernel = _kaiming_uniform(rng, (out_ch, in_ch, 3, 3), fan_in, dtype)
    return MainBlock(  # a channels-last kernel: each chunk's GEMM reads it with no copy
        kernel=np.ascontiguousarray(kernel.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2),
        bias=_kaiming_uniform(rng, (out_ch,), fan_in, dtype),
        activation=activation,
        use_skip=use_skip,
    )


def init_aux_block(in_ch, d_proj, depth, rng, activation="leaky_relu", dtype=np.float64):
    """Build the projection head; each 1x1 conv halves the channel count."""
    kernels, biases = [], []
    ch = in_ch
    for _ in range(depth):
        nxt = max(ch // 2, 1)
        kernels.append(_kaiming_uniform(rng, (nxt, ch), ch, dtype))
        biases.append(_kaiming_uniform(rng, (nxt,), ch, dtype))
        ch = nxt
    return AuxBlock(
        conv_kernels=kernels,
        conv_biases=biases,
        fc_w=_kaiming_uniform(rng, (ch, d_proj), ch, dtype),
        fc_b=_kaiming_uniform(rng, (d_proj,), ch, dtype),
        activation=activation,
    )


def _chunks(x, n):
    """(images, pooled rows, conv rows) of each CHUNK images of x in turn,
    n pooled rows per image."""
    for i in range(0, len(x), CHUNK):
        xc = x[i:i + CHUNK]
        j = i + len(xc)
        yield xc, slice(n * i, n * j), slice(4 * n * i, 4 * n * j)


def _main_forward(f: MainBlock, x, train: bool = True, *, work=None):
    """Main-path output of block f on x and, when train is set, the cache
    block_backward reads: (q, pre), the batch's chunk-major conv rows and
    its pooled map, the pre-activation.  With train False the cache is
    None."""
    b, _, h, w = x.shape
    o = f.kernel.shape[0]
    hw = (h // 2) * (w // 2)  # pooled rows per image
    work = {} if work is None else work
    dtype = np.result_type(x, f.kernel)
    pre = np.empty((b * hw, o), dtype)
    q = work.get("q")
    if train and (q is None or q.shape != (4 * hw * b, o) or q.dtype != dtype):
        q = work["q"] = np.empty((4 * hw * b, o), dtype)
    for xc, rows, conv_rows in _chunks(x, hw):
        out = q[conv_rows] if train else None
        maxpool2x2_forward(conv_forward(xc, f.kernel, f.bias, out=out)[0], out=pre[rows])
    p = activation(f.activation, pre).reshape(b, h // 2, w // 2, o).transpose(0, 3, 1, 2)
    if f.use_skip:
        # detached: no gradient flows back through skip.  Missing skip
        # channels count as zeros, surplus ones are dropped.
        skip = avgpool2x2(x)
        n = min(skip.shape[1], p.shape[1])
        p[:, :n] += skip[:, :n]
    return p, (q, pre) if train else None


def _aux_forward(phi: AuxBlock, rows, hw: int):
    """Z of the projection head on the (B*hw, C) rows of a main output, hw
    rows per image in (b, i, j) order; the cache holds each 1x1 conv's
    input rows and pre-activation."""
    conv_caches = []
    for k, bias in zip(phi.conv_kernels, phi.conv_biases):
        pre = rows @ k.T
        pre += bias
        conv_caches.append((rows, pre))
        rows = activation(phi.activation, pre)
    g = rows.reshape(-1, hw, rows.shape[1]).mean(axis=1)
    z = g @ phi.fc_w + phi.fc_b
    return z, (conv_caches, g)


def _aux_backward(phi: AuxBlock, cache, dz, hw: int):
    """Reverse pass of _aux_forward for dL/dZ = dz over images of hw rows
    each; returns (grads keyed as in phi.params(), gradient of the input
    rows)."""
    conv_caches, g = cache
    grads = {"fc_w": g.T @ dz, "fc_b": dz.sum(axis=0)}
    # pooling backward: each image's gradient spread over its hw rows
    d_rows = np.repeat(dz @ phi.fc_w.T / hw, hw, axis=0)
    for i in range(len(conv_caches) - 1, -1, -1):
        rows, pre = conv_caches[i]
        d_rows *= activation_grad(phi.activation, pre)  # d_rows is fresh: np.repeat or a matmul
        grads[f"conv{i}_kernel"] = d_rows.T @ rows
        grads[f"conv{i}_bias"] = d_rows.sum(axis=0)
        d_rows = d_rows @ phi.conv_kernels[i]
    return grads, d_rows


def block_backward(f: MainBlock, phi, x, lam: float, use_sphere: bool = True,
                   use_oja: bool = False, *, work=None):
    """Compute the block-local loss on (Z, block input) and reverse-mode
    gradients for every parameter of f and phi.

    Returns (grads, bundle) where grads maps "main.<name>" / "aux.<name>"
    to arrays shaped like the parameters.  No input gradient is produced.
    `work` is the optional workspace (module docstring), shared by the
    steps of a stage.
    """
    if x.shape[0] < 2:
        raise NumericsError("structural loss needs a batch of at least 2")
    # K_X from x's rows in memory order: free for a C-contiguous or channels-last x
    nhwc = x.transpose(0, 2, 3, 1)
    kx = input_gram((nhwc if nhwc.flags.c_contiguous else x).reshape(len(x), -1))
    yp, (q, pre) = _main_forward(f, x, work=work)
    b, c, h, w = yp.shape
    rows = yp.transpose(0, 2, 3, 1).reshape(-1, c)  # the pooled rows: a free view
    if phi is None:
        z = rows.reshape(b, -1)
    else:
        z, aux_cache = _aux_forward(phi, rows, h * w)

    bundle, dz = structural_grads(z, kx, lam, use_sphere=use_sphere, use_oja=use_oja)
    if phi is None:  # dz is in pooled-row order
        grads, g = {}, dz.reshape(-1, c)
    else:
        aux_grads, g = _aux_backward(phi, aux_cache, dz, h * w)
        grads = {f"aux.{k}": v for k, v in aux_grads.items()}

    # skip path (if any) is detached: g, the gradient of the pooled rows,
    # passes to the main path only.  Each window routes its gradient to one
    # row of dq (written over the conv output), so the bias gradient is the
    # sum of the n routed gradients: per image, then over the batch, which
    # at the block shapes is as fast as one pass over the n rows and 3-11x
    # more accurate in float32.  The kernel gradient is the sum of each
    # chunk's GEMM on its rebuilt im2col rows.
    g *= activation_grad(f.activation, pre)  # at the pooled map; g is fresh
    kh, kw = f.kernel.shape[2:]
    for xc, pooled_rows, conv_rows in _chunks(x, h * w):
        dq = maxpool2x2_backward(g[pooled_rows],
                                 (q[conv_rows].reshape(4, -1, c), pre[pooled_rows]))
        dk = conv_backward(dq, (None, im2col(xc, kh, kw, 1, 1), f.kernel))
        if pooled_rows.start:
            grads["main.kernel"] += dk
        else:
            grads["main.kernel"] = dk
    grads["main.bias"] = g.reshape(b, -1, c).sum(axis=1).sum(axis=0)
    return grads, bundle


def block_params(f: MainBlock, phi) -> dict:
    """Flat "main.<name>" / "aux.<name>" view of a block's parameters."""
    p = {f"main.{k}": v for k, v in f.params().items()}
    if phi is not None:
        p.update({f"aux.{k}": v for k, v in phi.params().items()})
    return p
