"""Block architecture tests: convolution against a naive 6-loop reference,
pooling, activations, the projection head against 1x1 convs, and
finite-difference verification of every parameter gradient produced by
block_backward.

All finite-difference checks run in float64; the step sizes below were
chosen to stay clear of maxpool ties.
"""

import numpy as np
import pytest

from sphere import network as net
from sphere.linalg import NumericsError
from sphere.losses import structural_grads


def conv2d_naive(x, kernel, bias, stride=1, pad=1):
    """Direct 6-loop convolution; the independent reference implementation."""
    b, c_in, h, w = x.shape
    c_out, _, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((b, c_out, oh, ow))
    for n in range(b):
        for co in range(c_out):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[n, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[n, co, i, j] = np.sum(patch * kernel[co]) + bias[co]
    return out


def derivative(kind, x):
    """Textbook derivative of each activation at x, in x's dtype;
    binary_step's is its straight-through 1 on |x| <= 1."""
    if kind == "sigmoid":
        s = net.activation(kind, x)
        return s * (1 - s)
    if kind == "tanh":
        return 1 - np.tanh(x) ** 2
    if kind == "binary_step":
        return np.where(np.abs(x) <= 1, 1.0, 0.0).astype(x.dtype)
    slope = net.LEAKY_SLOPE if kind == "leaky_relu" else 0.0
    return np.where(x > 0, 1.0, slope).astype(x.dtype)


class TestActivations:
    def test_known_values(self):
        x = np.array([[-2.0, 0.5]])
        assert np.allclose(net.activation("relu", x), [[0.0, 0.5]])
        assert np.allclose(net.activation("leaky_relu", x), [[-0.02, 0.5]])
        assert np.allclose(net.activation("tanh", x), np.tanh(x))
        assert np.allclose(net.activation("binary_step", x), [[0.0, 1.0]])

    @pytest.mark.parametrize("kind", net.ACTIVATIONS)
    def test_derivative_matches_fd(self, kind):
        # binary_step's straight-through derivative is that of clip(x, -1, 1)
        f = (lambda v: np.clip(v, -1.0, 1.0)) if kind == "binary_step" else (
            lambda v: net.activation(kind, v))
        x = np.random.default_rng(0).standard_normal((4, 6)) + 0.05  # off the kinks
        h = 1e-6
        fd = (f(x + h) - f(x - h)) / (2 * h)
        for dtype in (np.float32, np.float64):
            d = net.activation_grad(kind, x.astype(dtype))
            assert d.dtype == dtype
            assert np.allclose(d, fd, atol=1e-6), dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", net.ACTIVATIONS)
    def test_large_inputs_raise_no_floating_point_error(self, kind, dtype):
        # 1/(1+exp(-x)) overflows in exp at x = -1e4, where sigmoid is 0
        x = np.array([[-1e4, -100.0, 100.0, 1e4]], dtype=dtype)
        with np.errstate(all="raise"):
            y, d = net.activation(kind, x), net.activation_grad(kind, x)
        assert y.dtype == d.dtype == dtype
        assert np.all(np.isfinite(y)) and np.all(np.isfinite(d))
        if kind == "sigmoid":
            assert np.array_equal(y, [[0.0, 0.0, 1.0, 1.0]])

    def test_binary_step_straight_through(self):
        x = np.array([[-2.0, -0.5, 0.5, 2.0]])
        assert np.array_equal(net.activation_grad("binary_step", x), [[0.0, 1.0, 1.0, 0.0]])

    def test_unknown_kind(self):
        for fn in (net.activation, net.activation_grad):
            with pytest.raises(NumericsError):
                fn("gelu", np.zeros((1, 1)))

    @pytest.mark.parametrize("kind", net.ACTIVATIONS)
    def test_keeps_float32(self, kind):
        x = np.random.default_rng(0).standard_normal((2, 3, 4, 4)).astype(np.float32)
        assert net.activation(kind, x).dtype == net.activation_grad(kind, x).dtype == np.float32


# the quarter order of pool-major rows: position (di, dj) in each 2x2 window
WINDOW = ((0, 0), (0, 1), (1, 0), (1, 1))


def to_nchw(q, b, oh, ow):
    """(4, n, C) pool-major rows -> the (B, C, OH, OW) map they hold."""
    c = q.shape[-1]
    out = np.empty((b, oh, ow, c), dtype=q.dtype)
    for k, (di, dj) in enumerate(WINDOW):
        out[:, di::2, dj::2] = q[k].reshape(b, oh // 2, ow // 2, c)
    return out.transpose(0, 3, 1, 2)


def to_pool_major(x):
    """(B, C, H, W) map -> its (4, n, C) pool-major rows."""
    c = x.shape[1]
    return np.stack([x[:, :, di::2, dj::2].transpose(0, 2, 3, 1).reshape(-1, c)
                     for di, dj in WINDOW])


def pooled_rows(yp):
    """(B, C, h, w) map -> its (B*h*w, C) rows in (b, i, j) order, as the
    block step reads them."""
    return yp.transpose(0, 2, 3, 1).reshape(-1, yp.shape[1])


def pool(q):
    """2x2 max-pool of pool-major rows q with its masks: (pooled, wins)."""
    wins = np.empty(q.shape, dtype=bool)
    return net.maxpool2x2_forward(q, wins=wins), wins


def im2col_conv(x, kernel, bias, stride, pad):
    """The conv GEMM on im2col's rows at any stride and padding: (4, n, O)."""
    o, c, kh, kw = kernel.shape
    return net.im2col(x, kh, kw, stride, pad) @ kernel.transpose(0, 2, 3, 1).reshape(o, -1).T + bias


class TestConv:
    def test_matches_naive(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 6, 6))
        k = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        q = net.conv_forward(x, k, b)
        assert q.shape == (4, 2 * 3 * 3, 4)
        assert np.allclose(to_nchw(q, 2, 6, 6), conv2d_naive(x, k, b), atol=1e-12)

    def test_matches_naive_channels_last_input(self):
        # an NCHW view of NHWC memory, as the blocks produce
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 6, 6, 3)).transpose(0, 3, 1, 2)
        k = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        q = net.conv_forward(x, k, b)
        assert np.allclose(to_nchw(q, 2, 6, 6), conv2d_naive(x, k, b), atol=1e-12)

    def test_matches_naive_stride_2(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((2, 3, 7, 8))
        k = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        q = im2col_conv(x, k, b, stride=2, pad=1)
        assert q.shape == (4, 2 * 2 * 2, 4)
        assert np.allclose(to_nchw(q, 2, 4, 4), conv2d_naive(x, k, b, stride=2), atol=1e-12)

    def test_delta_kernel_is_identity(self):
        # 1-channel delta kernel with zero bias reproduces the input
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 1, 6, 4))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        q = net.conv_forward(x, k, np.zeros(1))
        assert np.allclose(to_nchw(q, 1, 6, 4), x, atol=1e-14)

    def test_1x1_no_pad(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 4, 4, 2))
        k = rng.standard_normal((2, 4, 1, 1))
        b = np.zeros(2)
        q = im2col_conv(x, k, b, stride=1, pad=0)
        # a 1x1 conv is a channel-mixing matrix multiply
        expected = np.einsum("bchw,oc->bohw", x, k[:, :, 0, 0])
        assert np.allclose(to_nchw(q, 2, 4, 2), expected, atol=1e-12)

    @pytest.mark.parametrize("shape, stride", [((1, 1, 5, 6), 1), ((1, 1, 6, 3), 1),
                                               ((1, 1, 6, 9), 2)])
    def test_odd_output_refused(self, shape, stride):
        # 2x2 pooling needs an even conv output on both sides
        with pytest.raises(NumericsError):
            net.im2col(np.zeros(shape), 3, 3, stride, 1)

    def test_backward_matches_fd(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 2, 4, 4))
        k = rng.standard_normal((3, 2, 3, 3)) * 0.5
        b = rng.standard_normal(3) * 0.1
        g = rng.standard_normal((4, 2 * 2 * 2, 3))

        def loss(kk, bb, xx):
            q = net.conv_forward(xx, kk, bb)
            return float(np.sum(q * g))

        dk = net.conv_backward(g, (None, net.im2col(x, 3, 3, 1, 1), k))  # block_backward's cache
        db = g.reshape(-1, 3).sum(axis=0)  # the bias gradient the callers take
        h = 1e-6
        for arr, grad in ((k, dk), (b, db)):
            rngi = np.random.default_rng(5)
            flat_idx = rngi.choice(arr.size, size=min(10, arr.size), replace=False)
            for fi in flat_idx:
                i = np.unravel_index(fi, arr.shape)
                orig = arr[i]
                arr[i] = orig + h
                fp = loss(k, b, x)
                arr[i] = orig - h
                fm = loss(k, b, x)
                arr[i] = orig
                assert (fp - fm) / (2 * h) == pytest.approx(grad[i], rel=1e-5, abs=1e-7)


class TestPooling:
    def test_maxpool_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = net.maxpool2x2_forward(to_pool_major(x))
        assert np.allclose(out.reshape(2, 2), [[5, 7], [13, 15]])

    def test_maxpool_backward_routes_to_argmax(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out, wins = pool(to_pool_major(x))
        g = np.ones_like(out)
        dq = net.maxpool2x2_backward(g, wins)
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        assert np.allclose(to_nchw(dq, 1, 4, 4)[0, 0], expected)

    @pytest.mark.parametrize("window, winner", [
        ([[0.0, 1.0], [1.0, 1.0]], (0, 1)),
        ([[0.0, 0.0], [1.0, 1.0]], (1, 0)),
    ])
    def test_maxpool_tie_routes_to_first_winner(self, window, winner):
        # ties go to the first maximum in (0,0), (0,1), (1,0), (1,1) order
        x = np.array(window).reshape(1, 1, 2, 2)
        out, wins = pool(to_pool_major(x))
        dq = net.maxpool2x2_backward(np.full_like(out, 3.0), wins)
        expected = np.zeros((1, 1, 2, 2))
        expected[(0, 0) + winner] = 3.0
        assert np.array_equal(to_nchw(dq, 1, 2, 2), expected)

    def test_maxpool_tie_in_binary_step_block(self):
        # zero kernel and unit bias: the conv output is 1.0 everywhere, so
        # every 2x2 window is a four-way tie and only (0, 0) gets gradient
        f = net.MainBlock(kernel=np.zeros((2, 3, 3, 3)), bias=np.ones(2),
                          activation="binary_step")
        x = np.random.default_rng(19).standard_normal((2, 3, 4, 6))
        pre, wins = pool(net.conv_forward(x, f.kernel, f.bias))  # as one chunk of the step
        g = np.ones((2 * 2 * 3, 2))  # the pooled rows of yp (2, 2, 2, 3)
        d_act = net.activation_grad(f.activation, pre)  # at the pooled map
        da = net.maxpool2x2_backward(g * d_act, wins)
        expected = np.zeros((2, 2, 4, 6))
        expected[:, :, 0::2, 0::2] = 1.0
        assert np.array_equal(to_nchw(da, 2, 4, 6), expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_masks_one_hot_for_every_tie_pattern(self, dtype):
        # window r's maxima sit at the positions of the bits of r + 1: all
        # 15 tie patterns of a 2x2 window, each at four value scales.  Each
        # (window, channel) gets one mask, at its first maximum in WINDOW order
        ties = np.array([[(r + 1) >> k & 1 for k in range(4)] for r in range(15)], dtype=bool)
        top, low = [1.0, -1.75, 1e30, 1e-30], [0.5, -3.5, -1e30, 0.0]
        q = np.where(ties.T[:, :, None], top, low).astype(dtype)  # (4, 15, 4)
        out, wins = pool(q)
        assert np.array_equal(out, q.max(axis=0))
        assert np.array_equal(wins.sum(axis=0), np.ones((15, 4)))
        first = np.argmax(ties, axis=1)
        assert np.array_equal(np.argmax(wins, axis=0), np.repeat(first[:, None], 4, axis=1))

    def test_avgpool(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = net.avgpool2x2(x)
        assert np.allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])


class TestBlockForward:
    def test_shapes(self):
        rng = np.random.default_rng(8)
        f = net.init_main_block(3, 8, rng)
        phi = net.init_aux_block(8, d_proj=16, depth=1, rng=rng)
        x = rng.standard_normal((4, 3, 8, 8))
        yp = net.forward([(f, None)], x)
        g, _ = net.aux_forward(phi, pooled_rows(yp), 16)
        z = g @ phi.fc_w + phi.fc_b
        assert yp.shape == (4, 8, 4, 4)
        assert z.shape == (4, 16)

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_aux_head_matches_conv_reference(self, depth):
        # the channel-matmul head equals 1x1 convs on (B, C, H, W), a
        # spatial mean and the fully-connected map
        rng = np.random.default_rng(6)
        phi = net.init_aux_block(8, d_proj=5, depth=depth, rng=rng)
        yp = rng.standard_normal((3, 8, 4, 4))
        h = yp
        for k, b in zip(phi.conv_kernels, phi.conv_biases):
            h = net.activation(phi.activation, conv2d_naive(h, k[:, :, None, None], b, pad=0))
        expected = h.mean(axis=(2, 3)) @ phi.fc_w + phi.fc_b
        g, _ = net.aux_forward(phi, pooled_rows(yp), 16)
        assert np.allclose(g @ phi.fc_w + phi.fc_b, expected, atol=1e-12)

    @pytest.mark.parametrize("use_skip", [False, True])
    @pytest.mark.parametrize("channels_last_input", [False, True])
    def test_output_is_channels_last(self, use_skip, channels_last_input):
        # the layout contract: block outputs are NHWC in memory, so the aux
        # head's rows and the next block's im2col need no transpose copy
        rng = np.random.default_rng(21)
        f = net.init_main_block(3, 8, rng, use_skip=use_skip)
        x = rng.standard_normal((2, 8, 8, 3))
        x = x.transpose(0, 3, 1, 2) if channels_last_input else x.reshape(2, 3, 8, 8)
        yp = net.forward([(f, None)], x)
        assert yp.shape == (2, 8, 4, 4)
        assert yp.transpose(0, 2, 3, 1).flags.c_contiguous
        # and the kernel is (O, kh, kw, C) in memory: each chunk's GEMM reads it with no copy
        assert f.kernel.transpose(0, 2, 3, 1).flags.c_contiguous

    def test_no_phi_returns_flat_main(self):
        # without a head, the loss is taken on the main output's pooled rows
        rng = np.random.default_rng(9)
        f = net.init_main_block(3, 4, rng)
        x = rng.standard_normal((2, 3, 6, 6))
        yp = net.forward([(f, None)], x)
        z = pooled_rows(yp).reshape(2, -1)
        expected, _ = structural_grads(z, x.reshape(2, -1), lam=0.8)
        _, bundle = net.block_backward(f, None, x, lam=0.8)
        assert bundle == expected

    def test_skip_connection_adds_avgpooled_input(self):
        rng = np.random.default_rng(10)
        f = net.init_main_block(3, 8, rng, use_skip=True)
        x = rng.standard_normal((2, 3, 8, 8))
        yp_skip = net.forward([(f, None)], x)
        f_noskip = net.MainBlock(kernel=f.kernel, bias=f.bias,
                                 activation=f.activation, use_skip=False)
        yp_plain = net.forward([(f_noskip, None)], x)
        skip = net.avgpool2x2(x)
        diff = yp_skip - yp_plain
        assert np.allclose(diff[:, :3], skip)
        assert np.allclose(diff[:, 3:], 0.0)


def activate_then_pool(f, x, lam=0.8):
    """Reference main path of block f in conv -> activation -> maxpool
    order, without a head: (output, grads of block_backward(f, None, x))."""
    q = net.conv_forward(x, f.kernel, f.bias)
    a, d_act = net.activation(f.activation, q), derivative(f.activation, q)
    p, wins = pool(a)
    b, _, h, w = x.shape
    yp = p.reshape(b, h // 2, w // 2, -1).transpose(0, 3, 1, 2).copy()  # pooled rows
    if f.use_skip:
        skip = net.avgpool2x2(x)
        n = min(skip.shape[1], p.shape[1])
        yp[:, :n] += skip[:, :n]
    _, dz = structural_grads(pooled_rows(yp).reshape(b, -1), x.reshape(b, -1), lam)
    g = dz.reshape(p.shape)
    dq = net.maxpool2x2_backward(g, wins) * d_act
    # each window's one routed gradient, summed per image, then over images
    db = dq.sum(axis=0).reshape(b, -1, p.shape[1]).sum(axis=1).sum(axis=0)
    dk = net.conv_backward(dq, (None, net.im2col(x, 3, 3, 1, 1), f.kernel))  # as block_backward
    return yp, {"main.kernel": dk, "main.bias": db}


# the continuous kinds: on these inputs, pooling first routes every nonzero
# gradient as activating first does
CONTINUOUS = ("relu", "leaky_relu", "tanh", "sigmoid")


class TestPoolOrder:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", net.ACTIVATIONS)
    @pytest.mark.parametrize("use_skip", [False, True])
    def test_pool_first_matches_activate_then_pool(self, kind, dtype, use_skip):
        # forced ties: output channel 1 is zero everywhere, and image 0 is
        # blank, so its conv output is the bias in every window; relu adds
        # zeros of its own.  binary_step's threshold ties distinct values,
        # so only its forward pass is compared
        rng = np.random.default_rng(22)
        f = net.init_main_block(3, 4, rng, activation=kind, use_skip=use_skip, dtype=dtype)
        f.kernel[1] = 0.0
        f.bias[1] = 0.0
        x = rng.standard_normal((5, 3, 8, 8)).astype(dtype)
        x[0] = 0.0
        expected_yp, expected = activate_then_pool(f, x)
        yp = net.forward([(f, None)], x)
        grads, _ = net.block_backward(f, None, x, lam=0.8)
        assert yp.dtype == dtype
        assert np.array_equal(yp, expected_yp)
        for name in expected if kind in CONTINUOUS else ():
            assert np.array_equal(grads[name], expected[name]), name

    def test_binary_step_routes_to_pre_activation_max(self):
        # delta kernel: the conv output is the input, all of it in (0, 1),
        # so binary_step makes every window a four-way tie of 1.0 (e.g.
        # 0.3 and 0.5); the gradient goes to the pre-activation max, 0.5
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        f = net.MainBlock(kernel=k, bias=np.zeros(1), activation="binary_step", use_skip=True)
        x = np.random.default_rng(23).uniform(0.05, 0.95, size=(4, 1, 4, 4))
        x[0, 0, :2, :2] = [[0.3, 0.5], [0.1, 0.2]]
        pre, wins = pool(net.conv_forward(x, f.kernel, f.bias))  # as one chunk of the step
        d_act = net.activation_grad(f.activation, pre)  # at the pooled map
        dq = net.maxpool2x2_backward(np.ones((4 * 2 * 2, 1)), wins)
        assert np.array_equal(to_nchw(dq, 4, 4, 4)[0, 0, :2, :2], [[0.0, 1.0], [0.0, 0.0]])
        assert np.all(d_act == 1.0)  # straight through: every pooled value is in (0, 1)

    @pytest.mark.parametrize("kind", net.ACTIVATIONS)
    @pytest.mark.parametrize("use_skip", [False, True])
    def test_no_cache_forward_matches_training_forward(self, kind, use_skip, monkeypatch):
        # a head-less step's Z is its pooled rows, flat: the rows forward yields
        zs = []

        def recording(z, *args, **kwargs):
            zs.append(z)
            return structural_grads(z, *args, **kwargs)
        monkeypatch.setattr(net, "structural_grads", recording)
        rng = np.random.default_rng(24)
        f = net.init_main_block(3, 4, rng, activation=kind, use_skip=use_skip)
        x = rng.standard_normal((2 * net.CHUNK + 3, 3, 8, 8))  # two full chunks and a ragged one
        net.block_backward(f, None, x, lam=0.8)
        out = net.forward([(f, None)], x)
        assert np.array_equal(pooled_rows(out).reshape(len(x), -1), zs[0])
        assert out.transpose(0, 2, 3, 1).flags.c_contiguous


def maxpool_first_winner(a):
    """Loop-based 2x2 max-pool of an NCHW map: (pooled map, (B, C, H/2,
    W/2, 2) array of each window's first maximum (di, dj) in row order)."""
    b, c, h, w = a.shape
    out = np.empty((b, c, h // 2, w // 2))
    winner = np.empty(out.shape + (2,), dtype=int)
    for idx in np.ndindex(out.shape):
        n, ch, i, j = idx
        for di, dj in ((0, 0), (0, 1), (1, 0), (1, 1)):
            v = a[n, ch, 2 * i + di, 2 * j + dj]
            if (di, dj) == (0, 0) or v > out[idx]:
                out[idx], winner[idx] = v, (di, dj)
    return out, winner


def reference_block(f, x, lam):
    """Block f without a head, from conv2d_naive, the loop max-pool of the
    pre-activations and the activation: (output, main.* gradients)."""
    c = conv2d_naive(x, f.kernel, f.bias)
    pooled, winner = maxpool_first_winner(c)
    yp, d_act = net.activation(f.activation, pooled), derivative(f.activation, pooled)
    b = len(x)
    _, dz = structural_grads(pooled_rows(yp).reshape(b, -1), x.reshape(b, -1), lam)
    dpooled = dz.reshape(yp.transpose(0, 2, 3, 1).shape).transpose(0, 3, 1, 2) * d_act
    da = np.zeros_like(c)
    for idx in np.ndindex(yp.shape):
        n, ch, i, j = idx
        di, dj = winner[idx]
        da[n, ch, 2 * i + di, 2 * j + dj] = dpooled[idx]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    h, w = x.shape[2:]
    dk = np.zeros_like(f.kernel)
    for u, v in np.ndindex(f.kernel.shape[2:]):
        dk[:, :, u, v] = np.einsum("boij,bcij->oc", da, xp[:, :, u:u + h, v:v + w])
    return yp, {"main.kernel": dk, "main.bias": da.sum(axis=(0, 2, 3))}


class TestBlockReference:
    @pytest.mark.parametrize("kind", net.ACTIVATIONS)
    def test_block_matches_loop_reference(self, kind):
        # dyadic inputs and weights make every conv sum exact in any order,
        # so the forward pass must match bit for bit.  Ties: output channel
        # 1 is the bias everywhere, image 0 is blank, and the inputs take
        # five values
        rng = np.random.default_rng(26)
        x = rng.integers(-2, 3, size=(3, 2, 6, 8)) * 0.5
        kernel = rng.integers(-2, 3, size=(3, 2, 3, 3)) * 0.25
        kernel[1] = 0.0
        f = net.MainBlock(kernel=kernel, bias=rng.integers(-4, 5, size=3) * 0.125,
                          activation=kind)
        # the second batch runs as two full chunks and a ragged one
        for x in (x, rng.integers(-2, 3, size=(2 * net.CHUNK + 3, 2, 6, 8)) * 0.5):
            x[0] = 0.0
            expected_yp, expected = reference_block(f, x, lam=0.8)
            yp = net.forward([(f, None)], x)
            assert np.array_equal(yp, expected_yp)
            grads, _ = net.block_backward(f, None, x, lam=0.8)
            for name, ref in expected.items():
                assert np.any(ref), name
                err = np.max(np.abs(grads[name] - ref)) / np.max(np.abs(ref))
                assert err <= 1e-12, f"{name}: relative {err:.3g}"


def q_routed_block_backward(f, phi, x, lam, head_images=net.CHUNK):
    """block_backward of a C-contiguous x as it was when the step kept the
    batch's float conv output q: each window's gradient goes to the first
    quarter of q, in WINDOW order, that equals the pooled max.  The head
    runs over head_images images at a time, its gradients summed over those
    groups; the step's are chunks."""
    b, _, h, w = x.shape
    hw = (h // 2) * (w // 2)
    qs = [net.conv_forward(x[i:i + net.CHUNK], f.kernel, f.bias) for i in range(0, b, net.CHUNK)]
    pre = np.concatenate([net.maxpool2x2_forward(q) for q in qs])
    rows = pooled_rows(net.forward([(f, None)], x))
    if phi is None:
        bundle, dz = structural_grads(rows.reshape(b, -1), x.reshape(b, -1), lam)
        grads, g = {}, dz.reshape(rows.shape)
    else:
        starts = range(0, b, head_images)
        heads = [net.aux_forward(phi, rows[i * hw:(i + head_images) * hw], hw) for i in starts]
        means = np.concatenate([m for m, _ in heads])
        bundle, dz = structural_grads(means @ phi.fc_w + phi.fc_b, x.reshape(b, -1), lam)
        grads, dg = {"aux.fc_w": means.T @ dz, "aux.fc_b": dz.sum(axis=0)}, dz @ phi.fc_w.T
        g = np.concatenate([net.aux_backward(phi, cache, dg[i:i + head_images], hw, grads)
                            for i, (_, cache) in zip(starts, heads)])
    g = g * net.activation_grad(f.activation, pre)
    dks, start = [], 0
    for i, q in enumerate(qs):
        out, gc = pre[start:start + q.shape[1]], g[start:start + q.shape[1]]
        start += q.shape[1]
        dq, unrouted = np.empty_like(q), np.ones(out.shape, dtype=bool)
        for k in range(3):
            win = (q[k] == out) & unrouted
            dq[k] = gc * win
            unrouted ^= win
        dq[3] = gc * unrouted
        cols = net.im2col(x[i * net.CHUNK:(i + 1) * net.CHUNK], 3, 3, 1, 1)
        dks.append(net.conv_backward(dq, (None, cols, f.kernel)))
    grads["main.kernel"] = sum(dks[1:], dks[0])
    grads["main.bias"] = g.reshape(b, -1, g.shape[1]).sum(axis=1).sum(axis=0)
    return grads, bundle


def desk_block(block, batch):
    """A float32 desk block (criterion 6's widths, head depth 1) and a batch
    of its input: block 0 reads C-contiguous 3x32x32 images, blocks 1 and 2
    the channels-last maps before them."""
    c_in, c_out, side = ((3, 48, 32), (48, 96, 16), (96, 192, 8))[block]
    rng = np.random.default_rng(28)
    f = net.init_main_block(c_in, c_out, rng, dtype=np.float32)
    phi = net.init_aux_block(c_out, 256, 1, rng, dtype=np.float32)
    x = rng.standard_normal((batch, side, side, c_in), dtype=np.float32).transpose(0, 3, 1, 2)
    return f, phi, np.ascontiguousarray(x) if block == 0 else x


FD_ROWS = [  # activation, head depth, skip, image side, batch
    ("leaky_relu", 1, False, 8, 5),
    ("leaky_relu", 2, True, 8, 5),
    ("tanh", 0, False, 8, 5),
    ("relu", 1, False, 8, 5),
    ("sigmoid", 1, True, 8, 5),
    ("leaky_relu", None, False, 8, 5),  # no head: orth on the flattened output
    ("tanh", 2, False, 2, 5),  # 1x1 pooled map: the head's shape in the linearity study
    ("leaky_relu", 1, True, 8, 2 * net.CHUNK + 3),  # two full chunks and a ragged one
]


class TestBlockBackward:
    @pytest.mark.parametrize("activation,depth,use_skip,side,batch", FD_ROWS, ids=[
        f"{a}-{d}-{s}" + ("" if side == 8 else f"-{side}x{side}") + ("" if b == 5 else f"-b{b}")
        for a, d, s, side, b in FD_ROWS])
    def test_fd_all_params(self, activation, depth, use_skip, side, batch):
        rng = np.random.default_rng(3)
        f = net.init_main_block(3, 8, rng, activation=activation, use_skip=use_skip)
        phi = None if depth is None else net.init_aux_block(
            8, d_proj=12, depth=depth, rng=rng, activation=activation)
        x = rng.standard_normal((batch, 3, side, side))
        grads, _ = net.block_backward(f, phi, x, lam=0.8)
        params = net.block_params(f, phi)
        h = 1e-5
        rngp = np.random.default_rng(11)
        for name, arr in params.items():
            probe = rngp.choice(arr.size, size=min(6, arr.size), replace=False)
            for fi in probe:
                i = np.unravel_index(fi, arr.shape)
                orig = arr[i]
                arr[i] = orig + h
                _, bp = net.block_backward(f, phi, x, lam=0.8)
                arr[i] = orig - h
                _, bm = net.block_backward(f, phi, x, lam=0.8)
                arr[i] = orig
                fd = (bp.total - bm.total) / (2 * h)
                g = grads[name][i]
                denom = max(abs(fd), abs(g), 1e-8)
                assert abs(fd - g) / denom < 1e-4, f"{name}[{i}]: fd={fd} g={g}"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("use_skip", [False, True])
    @pytest.mark.parametrize("depth", [None, 1])
    @pytest.mark.parametrize("activation", ["leaky_relu", "binary_step"])
    def test_routes_as_whole_batch_q(self, activation, depth, use_skip, dtype):
        # the masks route every gradient as comparing the kept conv output
        # with the pooled max did, bit for bit.  Ties: output channel 1 is
        # the bias everywhere and image 0 is blank; the second batch runs
        # as two full chunks and a ragged one
        rng = np.random.default_rng(20)
        f = net.init_main_block(3, 8, rng, activation=activation, use_skip=use_skip, dtype=dtype)
        f.kernel[1] = 0.0
        phi = None if depth is None else net.init_aux_block(
            8, 12, depth, rng, activation=activation, dtype=dtype)
        for b in (5, 2 * net.CHUNK + 3):
            x = rng.standard_normal((b, 3, 8, 8)).astype(dtype)
            x[0] = 0.0
            grads, bundle = net.block_backward(f, phi, x, lam=0.8)
            want_grads, want_bundle = q_routed_block_backward(f, phi, x, lam=0.8)
            assert bundle == want_bundle
            assert grads.keys() == want_grads.keys()
            for name, g in grads.items():
                assert g.dtype == dtype
                assert np.array_equal(g, want_grads[name]), name

    @pytest.mark.parametrize("use_skip", [False, True])
    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("activation", net.ACTIVATIONS)
    def test_chunked_head_matches_whole_batch_head(self, activation, depth, use_skip):
        # the step sums the head's conv gradients over chunks, the whole-batch
        # head forms each in one GEMM: in float64 that reorders sums only.
        # Two full chunks and a ragged one
        rng = np.random.default_rng(29)
        f = net.init_main_block(3, 8, rng, activation=activation, use_skip=use_skip)
        phi = net.init_aux_block(8, 12, depth, rng, activation=activation)
        x = rng.standard_normal((2 * net.CHUNK + 3, 3, 8, 8))
        grads, bundle = net.block_backward(f, phi, x, lam=0.8)
        want_grads, want = q_routed_block_backward(f, phi, x, 0.8, head_images=len(x))
        assert bundle.total == pytest.approx(want.total, rel=1e-12, abs=0)
        assert grads.keys() == want_grads.keys()
        for name, g in grads.items():
            err = np.max(np.abs(g - want_grads[name]))
            assert err <= 1e-12 * np.max(np.abs(want_grads[name])), f"{name}: {err:.3g}"

    @pytest.mark.parametrize("block, bound_mb", [(0, 24), (1, 16), (2, 10)])
    def test_desk_step_traced_peak(self, block, bound_mb, traced_peak):
        # one float32 step at a desk block: 128 images, head depth 1.  It
        # keeps the pooled pre-activation and the max-pool masks, 6.3, 3.1
        # and 1.6 MB each, and reads 17.1/13.1/7.6 MB; with a whole-batch
        # head, 31.9/19.7/11.8 MB.  The batch's im2col rows alone would take
        # 14.2, 56.6 and 28.3 MB, one chunk's 0.9-3.5 MB
        f, phi, x = desk_block(block, 128)
        _, peak = traced_peak(net.block_backward, f, phi, x, lam=0.8)
        assert peak < bound_mb * 1e6, f"traced peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("block, bound_mb", [(0, 17.3), (1, 13.4), (2, 9)])
    def test_desk_indexed_step_traced_peak(self, block, bound_mb, traced_peak):
        # one float32 desk step on 128 of a 130-image stage, counting its
        # batch input: read from the stage by index it reads 17.1/13.1/7.6
        # MB; with the batch copied first, as x[idx], 18.5/18.4/10.5 MB, and
        # with the forward loop's last chunk alive in the backward pass
        # 17.5/13.7/7.7 MB
        f, phi, x = desk_block(block, 130)
        idx = np.random.default_rng(1).permutation(130)[:128]
        _, peak = traced_peak(net.block_backward, f, phi, x, lam=0.8, idx=idx)
        assert peak < bound_mb * 1e6, f"traced peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("channels_last", [False, True], ids=["c-contiguous", "channels-last"])
    @pytest.mark.parametrize("use_oja", [False, True], ids=["sphere", "sphere+oja"])
    @pytest.mark.parametrize("depth", [None, 1], ids=["no-head", "head"])
    def test_indexed_step_matches_copied_batch(self, depth, use_oja, channels_last):
        # the step reads its 19 images (two full chunks and a ragged one)
        # out of a 23-image stage by index: the same bytes as on the copy
        # x[idx].  The skip path reads each chunk's images too
        rng = np.random.default_rng(31)
        f = net.init_main_block(3, 8, rng, use_skip=True)
        phi = None if depth is None else net.init_aux_block(8, 12, depth, rng)
        x = rng.standard_normal((23, 8, 8, 3)).transpose(0, 3, 1, 2)
        x = x if channels_last else np.ascontiguousarray(x)
        idx = rng.permutation(len(x))[:2 * net.CHUNK + 3]
        grads, bundle = net.block_backward(f, phi, x, 0.8, use_oja=use_oja, idx=idx)
        want_grads, want = net.block_backward(f, phi, x[idx], 0.8, use_oja=use_oja)
        assert bundle == want
        assert grads.keys() == want_grads.keys()
        for name, g in grads.items():
            assert g.tobytes() == want_grads[name].tobytes(), name

    @pytest.mark.parametrize("block, bound_mb", [(0, 16), (1, 10), (2, 5)])
    def test_desk_inference_traced_peak(self, block, bound_mb, traced_peak):
        # a forward-only pass over the 130 training images of perfbench's
        # desk-greedy unit reads 9.3/7.8/3.9 MB; max-pool masks would add
        # 6.4/3.2/1.6 MB
        f, _, x = desk_block(block, 130)
        _, peak = traced_peak(net.forward, [(f, None)], x)
        assert peak < bound_mb * 1e6, f"traced peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("depth", [None, 1])
    def test_input_layout_changes_only_rounding(self, depth):
        # K_X reads a channels-last input's rows in (h, w, c) column order
        # and a C-contiguous one's in (c, h, w) order: the same Gram
        rng = np.random.default_rng(27)
        f = net.init_main_block(3, 8, rng)
        phi = None if depth is None else net.init_aux_block(8, 12, depth, rng)
        x = rng.standard_normal((5, 8, 8, 3)).transpose(0, 3, 1, 2)
        grads, bundle = net.block_backward(f, phi, x, lam=0.8)
        want_grads, want = net.block_backward(f, phi, np.ascontiguousarray(x), lam=0.8)
        assert bundle.total == pytest.approx(want.total, rel=1e-13)
        for name, g in grads.items():
            assert np.allclose(g, want_grads[name], rtol=1e-10, atol=1e-13), name

    def test_oja_variant_fd(self):
        rng = np.random.default_rng(12)
        f = net.init_main_block(3, 8, rng)
        phi = net.init_aux_block(8, d_proj=8, depth=1, rng=rng)
        x = rng.standard_normal((6, 3, 8, 8))
        grads, _ = net.block_backward(f, phi, x, lam=0.0, use_sphere=False, use_oja=True)
        arr = phi.fc_w
        h = 1e-5
        for fi in np.random.default_rng(13).choice(arr.size, size=5, replace=False):
            i = np.unravel_index(fi, arr.shape)
            orig = arr[i]
            arr[i] = orig + h
            _, bp = net.block_backward(f, phi, x, lam=0.0, use_sphere=False, use_oja=True)
            arr[i] = orig - h
            _, bm = net.block_backward(f, phi, x, lam=0.0, use_sphere=False, use_oja=True)
            arr[i] = orig
            fd = (bp.total - bm.total) / (2 * h)
            g = grads[i] if not isinstance(grads, dict) else grads["aux.fc_w"][i]
            denom = max(abs(fd), abs(g), 1e-8)
            assert abs(fd - g) / denom < 1e-4

    def test_no_input_gradient_key(self):
        # gradients are strictly local: only block parameters appear
        rng = np.random.default_rng(14)
        f = net.init_main_block(3, 4, rng)
        phi = net.init_aux_block(4, d_proj=8, depth=1, rng=rng)
        grads, _ = net.block_backward(f, phi, rng.standard_normal((3, 3, 8, 8)), lam=0.8)
        assert set(grads) == {"main.kernel", "main.bias", "aux.conv0_kernel",
                              "aux.conv0_bias", "aux.fc_w", "aux.fc_b"}

    @pytest.mark.parametrize("seed, out_ch, shape", [
        (16, 4, (3, 3, 8, 8)),  # flat width 4 * 4 * 4 = 64
        (15, 8, (2, 3, 64, 64)),  # flat width 8 * 32 * 32 = 8192
    ], ids=["width64", "width8192"])
    def test_orth_without_phi_any_width(self, seed, out_ch, shape):
        rng = np.random.default_rng(seed)
        f = net.init_main_block(3, out_ch, rng)
        x = rng.standard_normal(shape)
        grads, bundle = net.block_backward(f, None, x, lam=0.8)
        assert set(grads) == {"main.kernel", "main.bias"}
        assert all(np.all(np.isfinite(g)) for g in grads.values())
        assert bundle.total == pytest.approx(bundle.sphere + 0.8 * bundle.orth)
        b, m = shape[0], out_ch * shape[2] * shape[3] // 4
        assert bundle.orth >= m - b

    def test_batch_of_one_rejected(self):
        rng = np.random.default_rng(17)
        f = net.init_main_block(3, 4, rng)
        with pytest.raises(NumericsError):
            net.block_backward(f, None, rng.standard_normal((1, 3, 8, 8)), lam=0.0)

    def test_skip_truncates_when_input_wider(self):
        # channel mismatch in the other direction: input channels > output
        rng = np.random.default_rng(18)
        f = net.init_main_block(8, 4, rng, use_skip=True)
        x = rng.standard_normal((2, 8, 8, 8))
        yp = net.forward([(f, None)], x)
        assert yp.shape == (2, 4, 4, 4)
