"""Forward/backward machinery for one trainable block: a convolutional (or
dense) main transform with activation and pooling, plus a lightweight
auxiliary projection that maps the block output to a low-dimensional
matrix on which the structural loss is computed.

A main block max-pools its conv output before the activation: every
activation here is non-decreasing, so this equals activating first, on a
quarter of the elements.

Gradients are fully manual reverse-mode and never leave the block: the
input gradient is not produced, and the detached skip path contributes no
gradient at all.  A step keeps three arrays at batch size: the pooled
pre-activation, the max-pool masks and Z.  A chunk's output rows, and with
a head its 1x1 convs and mean, exist one chunk at a time, and the backward
pass recomputes them from the pre-activation; the head's fc layer runs
once, on the batch's means.

Memory layout: feature maps between blocks have the logical NCHW shape
(B, C, H, W) but are channels-last (NHWC) in memory, i.e. NCHW views of
(B, H, W, C) arrays.  A block runs its whole path, conv to head, CHUNK
images at a time.  A chunk's conv rows are pool-major: im2col writes them as
(4, n, K), n = m*OH/2*OW/2 for m images, the position in each 2x2 pooling
window outermost and each quarter's rows in (b, i, j) order of the pooled
map.  So the conv GEMM yields (4, n, O), max-pooling and its backward pass
are elementwise work on four contiguous (n, O) blocks, and a chunk's
pooled rows are its slice of the channels-last output map and its head's
input rows with no transpose copy.  The step's batch Grams ignore
column order, so they read rows in memory order: K_X the input's own (B, D)
row view, and Z without a head the pooled rows viewed as (B, h*w*C).

Max-pool masks: in training, each chunk's max-pool marks every window's
first maximum in a bool (4, n, O) slice of one batch array, and the chunk's
float conv output is dropped; the backward pass routes the pooled gradient
through the masks with one multiply.  A mask takes one byte per conv
output, a quarter of a float32 output and an eighth of a float64 one (6.3
against 25.2 MB in a desk block-0 step).  Inference has no backward pass,
so it marks nothing.

CHUNK = 8 holds a chunk's float32 rows to 0.9-3.5 MB at the desk widths
(the whole batch's reach 57 MB), under numpy's 4 MB huge-page threshold;
16 images per chunk took more memory and no less time.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .linalg import NumericsError, SphereError
from .losses import structural_grads

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


def conv_forward(x, kernel, bias):
    """Stride-1 cross-correlation of x (B,C,H,W) with kernel (O,C,kh,kw),
    zero-padded by 1: the (4, n, O) pool-major output rows (see im2col)."""
    c = x.shape[1]
    o, ck, kh, kw = kernel.shape
    if ck != c:
        raise NumericsError(f"channel mismatch: input {c}, kernel {ck}")
    cols = im2col(x, kh, kw, 1, 1)
    wt = kernel.transpose(0, 2, 3, 1).reshape(o, -1).T
    q = (cols.reshape(-1, kh * kw * c) @ wt).reshape(4, -1, o)  # one GEMM
    q += bias
    return q


def conv_backward(dq, cache):
    """Kernel gradient (O,C,kh,kw) of a conv_forward call for the gradient
    dq of its (4, n, O) rows, with cache = (None, cols, kernel) holding that
    call's im2col rows and kernel: one GEMM.  The bias gradient is the sum of
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


def maxpool2x2_forward(q, out=None, wins=None):
    """2x2 max-pool of pool-major rows q (4, n, C): the elementwise max of
    the four quarters, (n, C), written into `out` when given.  With a bool
    (4, n, C) array `wins`, also marks each window's first maximum in
    _WINDOW order there, one True per window and channel.  Returns out."""
    out = np.maximum(q[0], q[1], out=out)
    np.maximum(out, q[2], out=out)
    np.maximum(out, q[3], out=out)
    if wins is not None:
        unrouted = np.ones(out.shape, dtype=bool)  # windows with no winner yet
        for k in range(3):
            np.equal(q[k], out, out=wins[k])
            wins[k] &= unrouted
            unrouted ^= wins[k]
        wins[3] = unrouted
    return out


def maxpool2x2_backward(grad_out, wins):
    """The (4, n, C) gradient of q for the gradient grad_out (n, C) of its
    pooled max: each window's gradient goes to the row its mask marks."""
    return grad_out * wins


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
    """(images, their slice, their rows) of each CHUNK images of x, n rows each."""
    for i in range(0, len(x), CHUNK):
        xc = x[i:i + CHUNK]
        yield xc, slice(i, i + len(xc)), slice(n * i, n * (i + len(xc)))


def _add(grads, name, g):
    """Sum a chunk's fresh gradient g into grads[name]."""
    grads[name] = np.add(grads[name], g, out=grads[name]) if name in grads else g


def _activate(f: MainBlock, pre, xc):
    """Fresh output rows of f on chunk xc from its pooled pre-activation."""
    y = activation(f.activation, pre)
    if f.use_skip:
        # detached: no gradient flows back through skip.  Missing skip
        # channels count as zeros, surplus ones are dropped.
        skip = avgpool2x2(xc)
        n = min(skip.shape[1], y.shape[1])
        y.reshape(len(xc), *skip.shape[2:], -1)[..., :n] += skip[:, :n].transpose(0, 2, 3, 1)
    return y


def _main_forward(f: MainBlock, x, train: bool = True, phi=None):
    """Output of block f on x, its channels-last (B, O, h, w) map or, with
    a head phi, each image's head mean (see _aux_forward); and when train
    is set the cache block_backward reads: (wins, pre), the batch's (4,
    B*hw, O) max-pool masks and its pooled map, the pre-activation.  With
    train False the cache is None."""
    b, _, h, w = x.shape
    o = f.kernel.shape[0]
    hw = (h // 2) * (w // 2)  # pooled rows per image
    dtype = np.result_type(x, f.kernel)
    out = np.empty((b * hw, o) if phi is None else (b, phi.fc_w.shape[0]), dtype)
    pre = np.empty((b * hw, o), dtype) if train else None
    wins = np.empty((4, b * hw, o), dtype=bool) if train else None
    for xc, imgs, rows in _chunks(x, hw):
        p = maxpool2x2_forward(conv_forward(xc, f.kernel, f.bias),
                               *((pre[rows], wins[:, rows]) if train else ()))
        if phi is None:
            out[rows] = _activate(f, p, xc)
        else:
            out[imgs] = _aux_forward(phi, _activate(f, p, xc), hw)[0]
    if phi is None:
        out = out.reshape(b, h // 2, w // 2, o).transpose(0, 3, 1, 2)
    return out, (wins, pre) if train else None


def _aux_forward(phi: AuxBlock, rows, hw: int):
    """The projection head up to its fc layer on the (n*hw, C) rows of a
    main output, hw rows per image in (b, i, j) order: each image's mean
    (n, C') of the 1x1 conv stack's output, and the cache, each conv's input
    rows and pre-activation.  Z = mean @ fc_w + fc_b, over the whole batch."""
    conv_caches = []
    for k, bias in zip(phi.conv_kernels, phi.conv_biases):
        pre = rows @ k.T
        pre += bias
        conv_caches.append((rows, pre))
        rows = activation(phi.activation, pre)
    return rows.reshape(-1, hw, rows.shape[1]).mean(axis=1), conv_caches


def _aux_backward(phi: AuxBlock, conv_caches, dg, hw: int, grads: dict):
    """Reverse pass of _aux_forward for the gradient dg (n, C') of its
    means: sums each conv's gradients into grads, keyed "aux.<name>" as in
    block_params, and returns the gradient of the input rows."""
    # pooling backward: each image's gradient spread over its hw rows
    d_rows = np.repeat(dg / hw, hw, axis=0)
    for i in range(len(conv_caches) - 1, -1, -1):
        rows, pre = conv_caches[i]
        d_rows *= activation_grad(phi.activation, pre)  # d_rows is fresh: np.repeat or a matmul
        _add(grads, f"aux.conv{i}_kernel", d_rows.T @ rows)
        _add(grads, f"aux.conv{i}_bias", d_rows.sum(axis=0))
        d_rows = d_rows @ phi.conv_kernels[i]
    return d_rows


def block_backward(f: MainBlock, phi, x, lam: float, use_sphere: bool = True,
                   use_oja: bool = False):
    """Compute the block-local loss on (Z, block input) and reverse-mode
    gradients for every parameter of f and phi.

    Returns (grads, bundle) where grads maps "main.<name>" / "aux.<name>"
    to arrays shaped like the parameters.  No input gradient is produced.
    Only pre, wins and Z are batch-sized: the backward pass recomputes each
    chunk's output rows and head activations from pre.
    """
    if x.shape[0] < 2:
        raise NumericsError("structural loss needs a batch of at least 2")
    out, (wins, pre) = _main_forward(f, x, phi=phi)
    b, hw, c = len(x), len(pre) // len(x), pre.shape[1]  # hw pooled rows per image
    # Z: without a head the output's pooled rows, flat; with one its fc layer on the means
    z = out.transpose(0, 2, 3, 1).reshape(b, -1) if phi is None else out @ phi.fc_w + phi.fc_b

    # x's rows in memory order: a free view for a C-contiguous or channels-last x
    nhwc = x.transpose(0, 2, 3, 1)
    x_rows = (nhwc if nhwc.flags.c_contiguous else x).reshape(len(x), -1)
    bundle, dz = structural_grads(z, x_rows, lam, use_sphere=use_sphere, use_oja=use_oja)
    if phi is None:  # dz is in pooled-row order
        grads, dz = {}, dz.reshape(-1, c)
    else:  # the fc layer's; dz becomes the gradient of the head's means
        grads = {"aux.fc_w": out.T @ dz, "aux.fc_b": dz.sum(axis=0)}
        dz = dz @ phi.fc_w.T

    # skip path (if any) is detached: g, the gradient of a chunk's pooled
    # rows, passes to the main path only.  Each window routes its gradient
    # to one row of dq, the one its mask marks, so the bias gradient is the
    # sum of the n routed gradients: per image, then over the batch, which
    # at the block shapes is as fast as one pass over the n rows and 3-11x
    # more accurate in float32.  The kernel gradient is the sum of each
    # chunk's GEMM on its rebuilt im2col rows.
    kh, kw = f.kernel.shape[2:]
    db = np.empty((b, c), pre.dtype)  # per image
    for xc, imgs, rows in _chunks(x, hw):
        if phi is None:
            g = dz[rows]  # a view of the fresh dz
        else:
            _, cache = _aux_forward(phi, _activate(f, pre[rows], xc), hw)
            g = _aux_backward(phi, cache, dz[imgs], hw, grads)
        g *= activation_grad(f.activation, pre[rows])  # at the pooled map
        db[imgs] = g.reshape(len(xc), hw, c).sum(axis=1)
        dq = maxpool2x2_backward(g, wins[:, rows])
        # perfbench's tracer finds the block by the kernel at cache[2]
        _add(grads, "main.kernel", conv_backward(dq, (None, im2col(xc, kh, kw, 1, 1), f.kernel)))
    grads["main.bias"] = db.sum(axis=0)
    return grads, bundle


def block_params(f: MainBlock, phi) -> dict:
    """Flat "main.<name>" / "aux.<name>" view of a block's parameters."""
    p = {f"main.{k}": v for k, v in f.params().items()}
    if phi is not None:
        p.update({f"aux.{k}": v for k, v in phi.params().items()})
    return p
