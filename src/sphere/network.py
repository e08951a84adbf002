"""Forward/backward machinery for one trainable block: a convolutional (or
dense) main transform with activation and pooling, plus a lightweight
auxiliary projection that maps the block output to a low-dimensional
matrix on which the structural loss is computed.

A main block max-pools its conv output before the activation for relu,
leaky_relu, tanh and sigmoid, which commute with max-pooling, and after
it for binary_step, whose threshold creates ties (see POOL_FIRST).

Gradients are fully manual reverse-mode and never leave the block: the
input gradient is not produced, and the detached skip path contributes no
gradient at all.

Memory layout: every function takes and returns feature maps in the
logical NCHW shape (B, C, H, W), but the maps a block produces are
channels-last (NHWC) in memory, i.e. NCHW views of (B, H, W, C) arrays.
The conv GEMM yields (B*H*W, O) rows, and numpy's elementwise ufuncs keep
their input's memory order, so activation, pooling and the aux head's
(B*H*W, C) rows need no transpose copy.  Code that needs NCHW-ordered
memory (`flatten`) copies.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .linalg import NumericsError
from .losses import input_gram, structural_grads

ACTIVATIONS = ("relu", "leaky_relu", "tanh", "sigmoid", "binary_step")
# Non-decreasing, so a block max-pools before these, on a quarter of the
# elements: maxpool(act(x)) = act(maxpool(x)).  The gradient reaches the
# same element unless the activation rounds two distinct pre-activations
# of a window to one value.  binary_step activates first: its threshold
# ties 0.3 with 0.5, which would move maxpool2x2_backward's routing.
POOL_FIRST = ("relu", "leaky_relu", "tanh", "sigmoid")
LEAKY_SLOPE = 0.01


# widest flattened block output the orthogonality loss accepts without phi
ORTH_WIDTH_CAP = 4096


class MemoryConstraintError(RuntimeError):
    """Orthogonality loss on features wider than ORTH_WIDTH_CAP without the
    auxiliary projection is refused, mirroring the paper's ablation row; the
    library itself never forms the M' x M' product."""


# ---------------------------------------------------------------------------
# elementwise activations


def activation(kind: str, x: np.ndarray, grad: bool = True):
    """Elementwise activation; returns (value, derivative at x), or
    (value, None) when grad is False.

    binary_step forwards a hard threshold and uses a straight-through
    derivative of 1 on |x| <= 1.
    """
    if kind == "relu":
        y = np.maximum(x, 0.0)
    elif kind == "leaky_relu":
        y = LEAKY_SLOPE * x
        np.maximum(x, y, out=y)
    elif kind == "tanh":
        y = np.tanh(x)
    elif kind == "sigmoid":
        y = 1.0 / (1.0 + np.exp(-x))
    elif kind == "binary_step":
        y = _indicator(x > 0, x)
    else:
        raise NumericsError(f"unknown activation kind: {kind!r}")
    if not grad:
        return y, None
    if kind == "relu":
        return y, _indicator(x > 0, x)
    if kind == "leaky_relu":
        d = _indicator(x > 0, x)
        d *= 1.0 - LEAKY_SLOPE
        d += LEAKY_SLOPE
        return y, d
    if kind == "tanh":
        return y, 1.0 - y * y
    if kind == "sigmoid":
        return y, y * (1.0 - y)
    return y, _indicator(np.abs(x) <= 1.0, x)  # binary_step


def _indicator(mask, like):
    """0/1 array of like's dtype and memory layout where mask holds."""
    out = np.empty_like(like)
    np.copyto(out, mask)
    return out


# ---------------------------------------------------------------------------
# convolution via im2col


def _out_hw(h, w, kh, kw, stride, pad):
    return (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1


def im2col(x, kh, kw, stride, pad):
    """Patch rows of x (B,C,H,W): (B*OH*OW, kh*kw*C), columns in (kh, kw, C)
    order.  One copy from a strided window view of the channels-last padded
    input; each window row's (kw, C) run is contiguous in both arrays."""
    b, c, h, w = x.shape
    oh, ow = _out_hw(h, w, kh, kw, stride, pad)
    xp = np.pad(x.transpose(0, 2, 3, 1), ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    cols = np.empty((b, oh, ow, kh, kw, c), dtype=x.dtype)
    cols[...] = win.transpose(0, 1, 2, 4, 5, 3)
    return cols.reshape(b * oh * ow, kh * kw * c)


def conv_forward(x, kernel, bias, stride: int = 1, padding: int = 1):
    """Cross-correlation of x (B,C,H,W) with kernel (O,C,kh,kw).

    Returns (out, cache) where cache feeds conv_backward; out is
    (B,O,OH,OW), channels-last in memory.
    """
    b, c, h, w = x.shape
    o, ck, kh, kw = kernel.shape
    if ck != c:
        raise NumericsError(f"channel mismatch: input {c}, kernel {ck}")
    oh, ow = _out_hw(h, w, kh, kw, stride, padding)
    cols = im2col(x, kh, kw, stride, padding)
    out = cols @ kernel.transpose(0, 2, 3, 1).reshape(o, -1).T
    out += bias
    cache = (x.shape, cols, kernel, stride, padding)
    return out.reshape(b, oh, ow, o).transpose(0, 3, 1, 2), cache


def conv_backward(grad_out, cache):
    """Parameter gradients of a conv_forward call; returns (dkernel, dbias)
    with dkernel shaped (O,C,kh,kw).  No input gradient: a block's input
    is never trained through."""
    _, cols, kernel, _, _ = cache
    o, c, kh, kw = kernel.shape
    g = grad_out.transpose(0, 2, 3, 1).reshape(-1, o)
    dk = (g.T @ cols).reshape(o, kh, kw, c).transpose(0, 3, 1, 2)
    return dk, g.sum(axis=0)


# ---------------------------------------------------------------------------
# pooling


# the four positions of a 2x2 window, in tie-breaking order
_WINDOW = ((0, 0), (0, 1), (1, 0), (1, 1))


def maxpool2x2_forward(x):
    """Max over 2x2 windows as the max of four strided slices; the output
    keeps x's memory layout and the cache is (x, out)."""
    _, _, h, w = x.shape
    if h % 2 or w % 2:
        raise NumericsError("maxpool2x2 needs even spatial dims")
    s00, s01, s10, s11 = (x[:, :, i::2, j::2] for i, j in _WINDOW)
    out = np.maximum(s00, s01)
    np.maximum(out, s10, out=out)
    np.maximum(out, s11, out=out)
    return out, (x, out)


def maxpool2x2_backward(grad_out, cache):
    """Route each window's gradient to its first maximum in _WINDOW order."""
    x, out = cache
    dx = np.empty_like(x, dtype=grad_out.dtype)
    unrouted = np.ones_like(out, dtype=bool)   # windows with no winner yet
    for i, j in _WINDOW[:-1]:
        win = x[:, :, i::2, j::2] == out
        win &= unrouted
        np.multiply(grad_out, win, out=dx[:, :, i::2, j::2])
        unrouted ^= win
    i, j = _WINDOW[-1]
    np.multiply(grad_out, unrouted, out=dx[:, :, i::2, j::2])
    return dx


def avgpool2x2(x):
    b, c, h, w = x.shape
    return x.reshape(b, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))


def flatten(x):
    """FeatureMap (B,C,H,W) -> Matrix (B, C*H*W)."""
    return x.reshape(x.shape[0], -1)


# ---------------------------------------------------------------------------
# blocks


@dataclass
class MainBlock:
    """Conv 3x3 -> maxpool 2x2 -> activation, with an optional detached
    avg-pool skip connection (channel mismatch handled by zero-padding).
    The same function as conv -> activation -> maxpool, which binary_step
    keeps: its threshold ties would move the pooling gradient's routing."""

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
    run as channel matmuls on (B*H*W, C) rows; kernels keep the conv shape
    (O, C, 1, 1)."""

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
    return MainBlock(
        kernel=_kaiming_uniform(rng, (out_ch, in_ch, 3, 3), fan_in, dtype),
        bias=_kaiming_uniform(rng, (out_ch,), fan_in, dtype),
        activation=activation,
        use_skip=use_skip,
    )


def init_aux_block(in_ch, d_proj=256, depth=1, rng=None, activation="leaky_relu", dtype=np.float64):
    """Build the projection head; each 1x1 conv halves the channel count."""
    kernels, biases = [], []
    ch = in_ch
    for _ in range(depth):
        nxt = max(ch // 2, 1)
        kernels.append(_kaiming_uniform(rng, (nxt, ch, 1, 1), ch, dtype))
        biases.append(_kaiming_uniform(rng, (nxt,), ch, dtype))
        ch = nxt
    return AuxBlock(
        conv_kernels=kernels,
        conv_biases=biases,
        fc_w=_kaiming_uniform(rng, (ch, d_proj), ch, dtype),
        fc_b=_kaiming_uniform(rng, (d_proj,), ch, dtype),
        activation=activation,
    )


def _main_forward(f: MainBlock, x, train: bool = True):
    """Main-path output of block f on x and, when train is set, the cache
    block_backward reads: (conv cache, activation derivative, pool cache).
    With train False the cache is None, and no derivative, im2col rows or
    pool cache outlive their use."""
    c_out, conv_cache = conv_forward(x, f.kernel, f.bias, stride=1, padding=1)
    if not train:
        conv_cache = None  # frees the im2col rows before the activation
    if f.activation in POOL_FIRST:
        pooled, pool_cache = maxpool2x2_forward(c_out)
        p, d_act = activation(f.activation, pooled, grad=train)
    else:
        a, d_act = activation(f.activation, c_out, grad=train)
        p, pool_cache = maxpool2x2_forward(a)
        if train and f.use_skip:
            p = p.copy(order="K")  # the pool cache keeps the pooled map
    if f.use_skip:
        # detached: no gradient flows back through skip.  Missing skip
        # channels count as zeros, surplus ones are dropped.
        skip = avgpool2x2(x)
        n = min(skip.shape[1], p.shape[1])
        p[:, :n] += skip[:, :n]
    return p, (conv_cache, d_act, pool_cache) if train else None


def _aux_forward(phi: AuxBlock, yp):
    """Z of the projection head on main output yp (B, C, H, W); the cache
    holds each 1x1 conv's input rows and activation derivative.  The rows
    are a free view when yp is channels-last in memory."""
    b, c, h, w = yp.shape
    rows = yp.transpose(0, 2, 3, 1).reshape(b * h * w, c)
    conv_caches = []
    for k, bias in zip(phi.conv_kernels, phi.conv_biases):
        a, d_act = activation(phi.activation, rows @ k.reshape(k.shape[0], -1).T + bias)
        conv_caches.append((rows, d_act))
        rows = a
    g = rows.reshape(b, h * w, -1).mean(axis=1)
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
        rows, da = conv_caches[i]
        k = phi.conv_kernels[i]
        d_pre = d_rows * da
        grads[f"conv{i}_kernel"] = (d_pre.T @ rows).reshape(k.shape)
        grads[f"conv{i}_bias"] = d_pre.sum(axis=0)
        d_rows = d_pre @ k.reshape(k.shape[0], -1)
    return grads, d_rows


def block_backward(f: MainBlock, phi, x, lam: float, use_sphere: bool = True,
                   use_oja: bool = False):
    """Compute the block-local loss on (Z, flattened input) and reverse-mode
    gradients for every parameter of f and phi.

    Returns (grads, bundle) where grads maps "main.<name>" / "aux.<name>"
    to arrays shaped like the parameters.  No input gradient is produced.
    """
    if x.shape[0] < 2:
        raise NumericsError("structural loss needs a batch of at least 2")
    yp, (conv_cache, d_act, pool_cache) = _main_forward(f, x)
    if phi is None:
        z = flatten(yp)
        if lam != 0.0 and z.shape[1] > ORTH_WIDTH_CAP:
            raise MemoryConstraintError(
                f"orthogonality loss on full-width features ({z.shape[1]} dims) "
                "requires the auxiliary projection; memory constraint"
            )
    else:
        z, aux_cache = _aux_forward(phi, yp)

    bundle, dz = structural_grads(z, input_gram(flatten(x)), lam, use_sphere=use_sphere,
                                  use_oja=use_oja)
    if phi is None:
        grads, d_yp = {}, dz.reshape(yp.shape)
    else:
        b, c, h, w = yp.shape
        aux_grads, d_rows = _aux_backward(phi, aux_cache, dz, h * w)
        grads = {f"aux.{k}": v for k, v in aux_grads.items()}
        d_yp = d_rows.reshape(b, h, w, c).transpose(0, 3, 1, 2)

    # skip path (if any) is detached: d_yp passes to the pooled main path only
    if f.activation in POOL_FIRST:
        d_yp *= d_act  # d_yp is a view of a fresh array: dz or d_rows
        da = maxpool2x2_backward(d_yp, pool_cache)
    else:
        da = maxpool2x2_backward(d_yp, pool_cache)
        da *= d_act
    grads["main.kernel"], grads["main.bias"] = conv_backward(da, conv_cache)
    return grads, bundle


def block_params(f: MainBlock, phi) -> dict:
    """Flat "main.<name>" / "aux.<name>" view of a block's parameters."""
    p = {f"main.{k}": v for k, v in f.params().items()}
    if phi is not None:
        p.update({f"aux.{k}": v for k, v in phi.params().items()})
    return p
