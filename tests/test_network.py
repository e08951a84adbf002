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
from sphere.losses import input_gram, structural_grads


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


class TestActivations:
    def test_known_values(self):
        x = np.array([[-2.0, 0.5]])
        assert np.allclose(net.activation("relu", x)[0], [[0.0, 0.5]])
        assert np.allclose(net.activation("leaky_relu", x)[0], [[-0.02, 0.5]])
        assert np.allclose(net.activation("tanh", x)[0], np.tanh(x))
        assert np.allclose(net.activation("binary_step", x)[0], [[0.0, 1.0]])

    @pytest.mark.parametrize("kind", ["relu", "leaky_relu", "tanh", "sigmoid"])
    def test_derivative_matches_fd(self, kind):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 6)) + 0.05  # stay off the relu kink
        _, d = net.activation(kind, x)
        h = 1e-6
        fd = (net.activation(kind, x + h)[0] - net.activation(kind, x - h)[0]) / (2 * h)
        assert np.allclose(d, fd, atol=1e-6)

    def test_binary_step_straight_through(self):
        x = np.array([[-2.0, -0.5, 0.5, 2.0]])
        _, d = net.activation("binary_step", x)
        assert np.array_equal(d, [[0.0, 1.0, 1.0, 0.0]])

    def test_unknown_kind(self):
        with pytest.raises(NumericsError):
            net.activation("gelu", np.zeros((1, 1)))

    @pytest.mark.parametrize("kind", net.ACTIVATIONS)
    def test_keeps_float32(self, kind):
        x = np.random.default_rng(0).standard_normal((2, 3, 4, 4)).astype(np.float32)
        y, d = net.activation(kind, x)
        assert y.dtype == d.dtype == np.float32


class TestConv:
    def test_matches_naive(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 6, 6))
        k = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        out, _ = net.conv_forward(x, k, b, stride=1, padding=1)
        assert np.allclose(out, conv2d_naive(x, k, b), atol=1e-12)

    def test_matches_naive_channels_last_input(self):
        # an NCHW view of NHWC memory, as the blocks produce
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 6, 6, 3)).transpose(0, 3, 1, 2)
        k = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        out, _ = net.conv_forward(x, k, b, stride=1, padding=1)
        assert np.allclose(out, conv2d_naive(x, k, b), atol=1e-12)

    def test_matches_naive_stride_2(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((2, 3, 7, 8))
        k = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        out, _ = net.conv_forward(x, k, b, stride=2, padding=1)
        assert out.shape == (2, 4, 4, 4)
        assert np.allclose(out, conv2d_naive(x, k, b, stride=2), atol=1e-12)

    def test_delta_kernel_is_identity(self):
        # 1-channel delta kernel with zero bias reproduces the input
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 1, 5, 5))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out, _ = net.conv_forward(x, k, np.zeros(1), stride=1, padding=1)
        assert np.allclose(out, x, atol=1e-14)

    def test_1x1_no_pad(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 4, 3, 3))
        k = rng.standard_normal((2, 4, 1, 1))
        b = np.zeros(2)
        out, _ = net.conv_forward(x, k, b, stride=1, padding=0)
        # a 1x1 conv is a channel-mixing matrix multiply
        expected = np.einsum("bchw,oc->bohw", x, k[:, :, 0, 0])
        assert np.allclose(out, expected, atol=1e-12)

    def test_backward_matches_fd(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 2, 4, 4))
        k = rng.standard_normal((3, 2, 3, 3)) * 0.5
        b = rng.standard_normal(3) * 0.1
        g = rng.standard_normal((2, 3, 4, 4))

        def loss(kk, bb, xx):
            out, _ = net.conv_forward(xx, kk, bb, stride=1, padding=1)
            return float(np.sum(out * g))

        out, cache = net.conv_forward(x, k, b, stride=1, padding=1)
        dk, db = net.conv_backward(g, cache)
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
        out, _ = net.maxpool2x2_forward(x)
        assert np.allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_backward_routes_to_argmax(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out, cache = net.maxpool2x2_forward(x)
        g = np.ones_like(out)
        dx = net.maxpool2x2_backward(g, cache)
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        assert np.allclose(dx[0, 0], expected)

    @pytest.mark.parametrize("window, winner", [
        ([[0.0, 1.0], [1.0, 1.0]], (0, 1)),
        ([[0.0, 0.0], [1.0, 1.0]], (1, 0)),
    ])
    def test_maxpool_tie_routes_to_first_winner(self, window, winner):
        # ties go to the first maximum in (0,0), (0,1), (1,0), (1,1) order
        x = np.array(window).reshape(1, 1, 2, 2)
        out, cache = net.maxpool2x2_forward(x)
        dx = net.maxpool2x2_backward(np.full_like(out, 3.0), cache)
        expected = np.zeros((1, 1, 2, 2))
        expected[(0, 0) + winner] = 3.0
        assert np.array_equal(dx, expected)

    def test_maxpool_tie_in_binary_step_block(self):
        # zero kernel and unit bias: binary_step gives 1.0 everywhere, so
        # every 2x2 window is a four-way tie and only (0, 0) gets gradient
        f = net.MainBlock(kernel=np.zeros((2, 3, 3, 3)), bias=np.ones(2),
                          activation="binary_step")
        x = np.random.default_rng(19).standard_normal((2, 3, 4, 6))
        yp, (_, d_act, pool_cache) = net._main_forward(f, x)
        da = net.maxpool2x2_backward(np.ones_like(yp), pool_cache) * d_act
        expected = np.zeros((2, 2, 4, 6))
        expected[:, :, 0::2, 0::2] = 1.0
        assert np.array_equal(da, expected)

    def test_avgpool(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = net.avgpool2x2(x)
        assert np.allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_flatten_round_trip(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 4, 2, 2))
        assert np.array_equal(net.flatten(x).reshape(x.shape), x)


class TestBlockForward:
    def test_shapes(self):
        rng = np.random.default_rng(8)
        f = net.init_main_block(3, 8, rng)
        phi = net.init_aux_block(8, d_proj=16, depth=1, rng=rng)
        x = rng.standard_normal((4, 3, 8, 8))
        yp, _ = net._main_forward(f, x)
        z, _ = net._aux_forward(phi, yp)
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
            h = net.activation(phi.activation, conv2d_naive(h, k, b, pad=0))[0]
        expected = h.mean(axis=(2, 3)) @ phi.fc_w + phi.fc_b
        z, _ = net._aux_forward(phi, yp)
        assert np.allclose(z, expected, atol=1e-12)

    @pytest.mark.parametrize("use_skip", [False, True])
    @pytest.mark.parametrize("channels_last_input", [False, True])
    def test_output_is_channels_last(self, use_skip, channels_last_input):
        # the layout contract: block outputs are NHWC in memory, so the aux
        # head's rows and the next block's im2col need no transpose copy
        rng = np.random.default_rng(21)
        f = net.init_main_block(3, 8, rng, use_skip=use_skip)
        x = rng.standard_normal((2, 8, 8, 3))
        x = x.transpose(0, 3, 1, 2) if channels_last_input else x.reshape(2, 3, 8, 8)
        yp, _ = net._main_forward(f, x)
        assert yp.shape == (2, 8, 4, 4)
        assert yp.transpose(0, 2, 3, 1).flags.c_contiguous

    def test_no_phi_returns_flat_main(self):
        # without a head, the loss is taken on the flattened main output
        rng = np.random.default_rng(9)
        f = net.init_main_block(3, 4, rng)
        x = rng.standard_normal((2, 3, 6, 6))
        yp, _ = net._main_forward(f, x)
        expected, _ = structural_grads(net.flatten(yp), input_gram(net.flatten(x)), lam=0.8)
        _, bundle = net.block_backward(f, None, x, lam=0.8)
        assert bundle == expected

    def test_skip_connection_adds_avgpooled_input(self):
        rng = np.random.default_rng(10)
        f = net.init_main_block(3, 8, rng, use_skip=True)
        x = rng.standard_normal((2, 3, 8, 8))
        yp_skip, _ = net._main_forward(f, x)
        f_noskip = net.MainBlock(kernel=f.kernel, bias=f.bias,
                                 activation=f.activation, use_skip=False)
        yp_plain, _ = net._main_forward(f_noskip, x)
        skip = net.avgpool2x2(x)
        diff = yp_skip - yp_plain
        assert np.allclose(diff[:, :3], skip)
        assert np.allclose(diff[:, 3:], 0.0)


def activate_then_pool(f, x, lam=0.8):
    """Reference main path of block f in conv -> activation -> maxpool
    order, without a head: (output, grads of block_backward(f, None, x))."""
    c, conv_cache = net.conv_forward(x, f.kernel, f.bias)
    a, d_act = net.activation(f.activation, c)
    p, pool_cache = net.maxpool2x2_forward(a)
    yp = p.copy()
    if f.use_skip:
        skip = net.avgpool2x2(x)
        n = min(skip.shape[1], p.shape[1])
        yp[:, :n] += skip[:, :n]
    _, dz = structural_grads(net.flatten(yp), input_gram(net.flatten(x)), lam)
    da = net.maxpool2x2_backward(dz.reshape(yp.shape), pool_cache) * d_act
    dk, db = net.conv_backward(da, conv_cache)
    return yp, {"main.kernel": dk, "main.bias": db}


class TestPoolOrder:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", net.POOL_FIRST)
    @pytest.mark.parametrize("use_skip", [False, True])
    def test_pool_first_matches_activate_then_pool(self, kind, dtype, use_skip):
        # forced ties: output channel 1 is zero everywhere, and image 0 is
        # blank, so its conv output is the bias in every window; relu adds
        # zeros of its own
        rng = np.random.default_rng(22)
        f = net.init_main_block(3, 4, rng, activation=kind, use_skip=use_skip, dtype=dtype)
        f.kernel[1] = 0.0
        f.bias[1] = 0.0
        x = rng.standard_normal((5, 3, 8, 8)).astype(dtype)
        x[0] = 0.0
        expected_yp, expected = activate_then_pool(f, x)
        yp, _ = net._main_forward(f, x)
        grads, _ = net.block_backward(f, None, x, lam=0.8)
        assert yp.dtype == dtype
        assert np.array_equal(yp, expected_yp)
        for name in expected:
            assert np.array_equal(grads[name], expected[name]), name

    def test_binary_step_keeps_activate_then_pool_routing(self):
        # delta kernel: the conv output is the input, all of it in (0, 1),
        # so binary_step makes every window a four-way tie of 1.0 (e.g.
        # 0.3 and 0.5) and the gradient goes to (0, 0), not the pre-activation max
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        f = net.MainBlock(kernel=k, bias=np.zeros(1), activation="binary_step", use_skip=True)
        x = np.random.default_rng(23).uniform(0.05, 0.95, size=(4, 1, 4, 4))
        x[0, 0, :2, :2] = [[0.3, 0.5], [0.1, 0.2]]
        _, expected = activate_then_pool(f, x)
        grads, _ = net.block_backward(f, None, x, lam=0.8)
        assert np.any(expected["main.kernel"])
        for name in expected:
            assert np.array_equal(grads[name], expected[name]), name

    @pytest.mark.parametrize("kind", net.ACTIVATIONS)
    @pytest.mark.parametrize("use_skip", [False, True])
    def test_no_cache_forward_matches_training_forward(self, kind, use_skip):
        rng = np.random.default_rng(24)
        f = net.init_main_block(3, 4, rng, activation=kind, use_skip=use_skip)
        x = rng.standard_normal((3, 3, 8, 8))
        yp, cache = net._main_forward(f, x)
        out, no_cache = net._main_forward(f, x, train=False)
        assert no_cache is None and cache is not None
        assert np.array_equal(out, yp)
        assert out.transpose(0, 2, 3, 1).flags.c_contiguous

    @pytest.mark.parametrize("kind", net.ACTIVATIONS)
    def test_no_cache_activation(self, kind):
        x = np.random.default_rng(25).standard_normal((2, 3, 4, 4))
        y, d = net.activation(kind, x, grad=False)
        assert d is None
        assert np.array_equal(y, net.activation(kind, x)[0])


FD_ROWS = [
    ("leaky_relu", 1, False, 8),
    ("leaky_relu", 2, True, 8),
    ("tanh", 0, False, 8),
    ("relu", 1, False, 8),
    ("sigmoid", 1, True, 8),
    ("leaky_relu", None, False, 8),  # no head: orth on the flattened output
    ("tanh", 2, False, 2),  # 1x1 pooled map: the head's shape in the linearity study
]


class TestBlockBackward:
    @pytest.mark.parametrize("activation,depth,use_skip,side", FD_ROWS, ids=[
        f"{a}-{d}-{s}" + ("" if side == 8 else f"-{side}x{side}") for a, d, s, side in FD_ROWS])
    def test_fd_all_params(self, activation, depth, use_skip, side):
        rng = np.random.default_rng(3)
        f = net.init_main_block(3, 8, rng, activation=activation, use_skip=use_skip)
        phi = None if depth is None else net.init_aux_block(
            8, d_proj=12, depth=depth, rng=rng, activation=activation)
        x = rng.standard_normal((5, 3, side, side))
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

    def test_orth_without_phi_wide_refused(self):
        rng = np.random.default_rng(15)
        f = net.init_main_block(3, 8, rng)
        x = rng.standard_normal((2, 3, 64, 64))  # flat width 8 * 32 * 32 = 8192
        with pytest.raises(net.MemoryConstraintError):
            net.block_backward(f, None, x, lam=0.8)

    def test_orth_without_phi_narrow_allowed(self):
        rng = np.random.default_rng(16)
        f = net.init_main_block(3, 4, rng)
        x = rng.standard_normal((3, 3, 8, 8))  # flat width 64
        grads, bundle = net.block_backward(f, None, x, lam=0.8)
        assert "main.kernel" in grads
        assert bundle.total == pytest.approx(bundle.sphere + 0.8 * bundle.orth)

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
        yp, _ = net._main_forward(f, x)
        assert yp.shape == (2, 4, 4, 4)
