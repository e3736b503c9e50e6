import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import grad_check

from ocuseg import layers
from ocuseg.layers import (ChannelStack, Conv2d, conv2d, conv2d_batch, conv2d_batch_backward,
                           pool2x_batch, pool2x_batch_backward, softmax_rows, softplus,
                           upsample2x_batch, upsample2x_batch_backward)
from ocuseg.rng import Rng


class TestConv2d:
    def test_identity_kernel(self, rng):
        x = rng.uniform_array(3 * 7 * 9).reshape(3, 7, 9)
        k = np.zeros((3, 3, 1, 1))
        for c in range(3):
            k[c, c, 0, 0] = 1.0
        assert np.array_equal(conv2d(x, k), x)

    def test_zero_kernel_and_linearity(self, rng):
        x = rng.uniform_array(2 * 6 * 6).reshape(2, 6, 6)
        k = np.zeros((1, 2, 3, 3))
        out = conv2d(x, k)
        assert np.array_equal(out, np.zeros((1, 6, 6)))
        # grad_kernel at zero kernel is the correlation of input with grad_out
        g = rng.uniform_array(1 * 6 * 6).reshape(1, 6, 6)
        _, gk = conv2d_batch_backward(g[:, None], x[:, None], k)
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
        expected = np.zeros_like(k)
        for ci in range(2):
            for di in range(3):
                for dj in range(3):
                    expected[0, ci, di, dj] = (xp[ci, di:di + 6, dj:dj + 6] * g[0]).sum()
        np.testing.assert_allclose(gk, expected, rtol=1e-12)

    def test_gradients_match_finite_differences(self, rng):
        # random 2x5x5 input, 3x3 kernel, checked against central differences
        x = rng.normal_array(2 * 5 * 5).reshape(2, 5, 5)
        k0 = rng.normal_array(2 * 2 * 3 * 3).reshape(2, 2, 3, 3)
        target = rng.normal_array(2 * 5 * 5).reshape(2, 5, 5)

        def f_kernel(kf):
            k = kf.reshape(2, 2, 3, 3)
            out = conv2d(x, k)
            loss = 0.5 * ((out - target) ** 2).sum()
            _, gk = conv2d_batch_backward((out - target)[:, None], x[:, None], k)
            return loss, gk.reshape(-1)

        assert grad_check(f_kernel, k0.reshape(-1), 1e-5) < 1e-6

        def f_input(xf):
            xi = xf.reshape(2, 5, 5)
            out = conv2d(xi, k0.reshape(2, 2, 3, 3))
            loss = 0.5 * ((out - target) ** 2).sum()
            gi, _ = conv2d_batch_backward((out - target)[:, None], xi[:, None],
                                          k0.reshape(2, 2, 3, 3))
            return loss, gi[:, 0].reshape(-1)

        assert grad_check(f_input, x.reshape(-1), 1e-5) < 1e-6

    def test_shape_errors_name_dimensions(self):
        x = np.zeros((2, 4, 4))
        with pytest.raises(ValueError, match="input channels"):
            conv2d(x, np.zeros((1, 3, 3, 3)))
        with pytest.raises(ValueError, match="odd"):
            conv2d(x, np.zeros((1, 2, 2, 2)))


def scatter_grad_input(grad_out, x_shape, kernel):
    """Reference input gradient: im2col-slab gradient scattered back through
    the zero padding, one tap at a time."""
    c_in, n, h, w = x_shape
    c_out, _, k, _ = kernel.shape
    pad = (k - 1) // 2
    gcols = (kernel.reshape(c_out, -1).T @ grad_out.reshape(c_out, -1))\
        .reshape(c_in, k, k, n, h, w)
    gxp = np.zeros((c_in, n, h + 2 * pad, w + 2 * pad))
    for di in range(k):
        for dj in range(k):
            gxp[:, :, di:di + h, dj:dj + w] += gcols[:, di, dj]
    return gxp[:, :, pad:pad + h, pad:pad + w]


class TestConv2dBatchBackward:
    def _case(self, rng, c_in, c_out, k, n=3, h=6, w=5):
        x = rng.normal_array(c_in * n * h * w).reshape(c_in, n, h, w)
        kernel = rng.normal_array(c_out * c_in * k * k).reshape(c_out, c_in, k, k)
        g = rng.normal_array(c_out * n * h * w).reshape(c_out, n, h, w)
        return x, kernel, g

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("c_in,c_out", [(1, 4), (3, 2), (5, 7)])
    def test_grad_input_matches_scatter(self, rng, k, c_in, c_out):
        x, kernel, g = self._case(rng, c_in, c_out, k)
        gi, _ = conv2d_batch_backward(g, x, kernel)
        ref = scatter_grad_input(g, x.shape, kernel)
        assert gi.shape == x.shape
        np.testing.assert_allclose(gi, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_leading_channels_only(self, rng, k):
        x, kernel, g = self._case(rng, 6, 4, k)
        full, gk_full = conv2d_batch_backward(g, x, kernel)
        for m in (1, 2, 5, 6):
            part, gk = conv2d_batch_backward(g, x, kernel, input_channels=m)
            assert part.shape == (m,) + x.shape[1:]
            # a GEMM with fewer rows may run other BLAS tail kernels: equal to rounding
            np.testing.assert_allclose(part, full[:m], rtol=1e-12,
                                       atol=1e-12 * np.abs(full).max())
            assert np.array_equal(gk, gk_full)

    def test_zero_channels_skips_input_grad(self, rng):
        x, kernel, g = self._case(rng, 3, 2, 3)
        _, gk_full = conv2d_batch_backward(g, x, kernel)
        gi, gk = conv2d_batch_backward(g, x, kernel, input_channels=0)
        assert gi is None
        assert np.array_equal(gk, gk_full)

    def test_channel_count_out_of_range(self, rng):
        x, kernel, g = self._case(rng, 3, 2, 3)
        with pytest.raises(ValueError, match="input_channels"):
            conv2d_batch_backward(g, x, kernel, input_channels=4)


def whole_slab(x, k):
    """Reference im2col: the whole batch's ``[C_in*k*k, N*H*W]`` slab."""
    c_in, n, h, w = x.shape
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((c_in, k, k, n, h, w))
    for di in range(k):
        for dj in range(k):
            cols[:, di, dj] = xp[:, :, di:di + h, dj:dj + w]
    return cols.reshape(c_in * k * k, -1)


# 11 rows in bands of 3: split 3 + 3 + 3 + 2
BANDS_OF_3 = [(0, 3), (3, 6), (6, 9), (9, 11)]


class TestBandedConv:
    def _case(self, rng, monkeypatch, c_in, k, c_out=4, n=2, h=11, w=16):
        # the row-shift slab of 3 output rows, their k-1 halo rows and the
        # k-1 pad columns
        monkeypatch.setattr(layers, "_BAND_BYTES", 8 * c_in * k * (3 + k - 1) * (w + k - 1))
        x = rng.normal_array(c_in * n * h * w).reshape(c_in, n, h, w)
        kernel = rng.normal_array(c_out * c_in * k * k).reshape(c_out, c_in, k, k)
        g = rng.normal_array(c_out * n * h * w).reshape(c_out, n, h, w)
        bands = [(r0, r1) for i, r0, r1, _ in layers._shift_bands(x, k) if i == 0]
        assert bands == BANDS_OF_3
        return x, kernel, g

    @pytest.mark.parametrize("k", [1, 3, 5, 15])
    @pytest.mark.parametrize("c_in", [1, 24])
    def test_forward_matches_whole_slab(self, rng, monkeypatch, k, c_in):
        x, kernel, _ = self._case(rng, monkeypatch, c_in, k)
        out = conv2d_batch(x, kernel)
        ref = (kernel.reshape(kernel.shape[0], -1) @ whole_slab(x, k)).reshape(out.shape)
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("k", [1, 3, 5, 15])
    @pytest.mark.parametrize("c_in", [1, 24])
    def test_grad_kernel_matches_whole_slab(self, rng, monkeypatch, k, c_in):
        x, kernel, g = self._case(rng, monkeypatch, c_in, k)
        _, gk = conv2d_batch_backward(g, x, kernel, input_channels=0)
        ref = (g.reshape(g.shape[0], -1) @ whole_slab(x, k).T).reshape(kernel.shape)
        np.testing.assert_allclose(gk, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_peak_memory_below_twice_the_input(self, rng):
        # conv3 of the default config at batch 8
        conv = Conv2d("conv3", 24, 8)
        conv.init_he(rng)
        x = rng.normal_array(24 * 8 * 96 * 96).reshape(24, 8, 96, 96)
        g = rng.normal_array(8 * 8 * 96 * 96).reshape(8, 8, 96, 96)
        peaks = []
        for step in (lambda: conv.forward(x, keep_cache=True), lambda: conv.backward(g)):
            tracemalloc.start()
            step()
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[0] < 2 * x.nbytes and peaks[1] < 2 * x.nbytes, (peaks, x.nbytes)


# (C_i, H_i) of each part, at 96x96 crops: conv3, h3 and h4 of the default config
STACK_GEOMETRIES = {"conv3": [(16, 48), (8, 96)], "h3": [(8, 24), (8, 48)],
                    "h4": [(8, 48), (8, 96), (8, 96)]}


class TestChannelStack:
    @staticmethod
    def _parts(rng, geometry, n=2):
        return [rng.normal_array(c * n * h * h).reshape(c, n, h, h) for c, h in geometry]

    @staticmethod
    def _materialize(parts):
        h = max(p.shape[2] for p in parts)
        return np.concatenate([p if p.shape[2] == h else upsample2x_batch(p)
                               for p in parts], axis=0)

    def _check_bit_identical(self, rng, parts, c_out=8):
        stack, x = ChannelStack(*parts), self._materialize(parts)
        assert stack.shape == x.shape
        kernel = rng.normal_array(c_out * x.shape[0] * 9).reshape(c_out, x.shape[0], 3, 3)
        g = rng.normal_array(c_out * x[0].size).reshape((c_out,) + x.shape[1:])
        assert np.array_equal(conv2d_batch(stack, kernel), conv2d_batch(x, kernel))
        gi_stack, gk_stack = conv2d_batch_backward(g, stack, kernel)
        gi, gk = conv2d_batch_backward(g, x, kernel)
        assert np.array_equal(gk_stack, gk)
        assert np.array_equal(gi_stack, gi)

    @pytest.mark.parametrize("conv", list(STACK_GEOMETRIES))
    def test_conv_equals_conv_of_concatenation(self, rng, conv):
        self._check_bit_identical(rng, self._parts(rng, STACK_GEOMETRIES[conv]))

    def test_several_bands(self, rng, monkeypatch):
        # 6-row row-shift bands over 10 rows
        monkeypatch.setattr(layers, "_BAND_BYTES", 8 * 5 * 3 * (6 + 2) * 18)
        parts = [rng.normal_array(3 * 2 * 5 * 8).reshape(3, 2, 5, 8),
                 rng.normal_array(2 * 2 * 10 * 16).reshape(2, 2, 10, 16)]
        stack = ChannelStack(*parts)
        assert [(r0, r1) for i, r0, r1, _ in layers._shift_bands(stack, 3) if i == 0] \
            == [(0, 6), (6, 10)]
        self._check_bit_identical(rng, parts, c_out=4)

    def test_conv_layer_keeps_the_stack(self, rng):
        parts = self._parts(rng, STACK_GEOMETRIES["h3"])
        conv = Conv2d("h3", 16, 8)
        conv.init_he(rng)
        conv.forward(ChannelStack(*parts), keep_cache=True)
        assert conv._x.parts[0] is parts[0] and conv._x.parts[1] is parts[1]

    @pytest.mark.parametrize("shapes,expected", [
        ([(2, 1, 4, 4), (3, 2, 8, 8)],
         r"stack parts disagree in N: shapes \[\(2, 1, 4, 4\), \(3, 2, 8, 8\)\]"),
        ([(2, 1, 3, 4), (3, 1, 8, 8)],
         r"stack part \(2, 1, 3, 4\) is neither full \(8x8\) nor half size: "
         r"shapes \[\(2, 1, 3, 4\), \(3, 1, 8, 8\)\]"),
        ([(2, 1, 8, 8), (3, 1, 2, 2)], r"stack part \(3, 1, 2, 2\) is neither full"),
    ], ids=["n", "size", "quarter-size"])
    def test_bad_parts_rejected(self, shapes, expected):
        with pytest.raises(ValueError, match=expected):
            ChannelStack(*(np.zeros(s) for s in shapes))

    def test_channel_total_checked(self):
        stack = ChannelStack(np.zeros((2, 1, 4, 4)), np.zeros((3, 1, 8, 8)))
        with pytest.raises(ValueError, match=r"kernel \(4, 6, 3, 3\) expects 6 input "
                                             r"channels, input \(5, 1, 8, 8\) has 5"):
            conv2d_batch(stack, np.zeros((4, 6, 3, 3)))


def conv3_input(parts, kind, dtype):
    """conv3's input from ``parts`` in ``dtype``: their ``ChannelStack`` or
    the materialized concatenation."""
    parts = [p.astype(dtype) for p in parts]
    if kind == "stack":
        return ChannelStack(*parts)
    return TestChannelStack._materialize(parts)


class TestFloat32:
    """A float32 input runs the conv in float32: the output and the input
    gradient are float32, the kernel gradient float64.  Each is within
    ``RTOL`` of the float64 result, relative to the largest entry."""
    RTOL = 1e-5

    @staticmethod
    def _case(rng, n=2, h=12, w=10):
        parts = [rng.normal_array(16 * n * (h // 2) * (w // 2)).reshape(16, n, h // 2, w // 2),
                 rng.normal_array(8 * n * h * w).reshape(8, n, h, w)]
        kernel = rng.normal_array(8 * 24 * 9).reshape(8, 24, 3, 3)
        g = rng.normal_array(8 * n * h * w).reshape(8, n, h, w)
        return parts, kernel, g

    def _check_close(self, low, ref):
        np.testing.assert_allclose(low, ref, rtol=self.RTOL, atol=self.RTOL * np.abs(ref).max())

    @pytest.mark.parametrize("kind", ["array", "stack"])
    def test_forward(self, rng, kind):
        parts, kernel, _ = self._case(rng)
        out = conv2d_batch(conv3_input(parts, kind, np.float32), kernel)
        assert out.dtype == np.float32
        self._check_close(out, conv2d_batch(conv3_input(parts, kind, np.float64), kernel))

    @pytest.mark.parametrize("kind", ["array", "stack"])
    @pytest.mark.parametrize("input_channels", [0, 5, 24])
    def test_backward(self, rng, kind, input_channels):
        parts, kernel, g = self._case(rng)
        gi, gk = conv2d_batch_backward(g.astype(np.float32), conv3_input(parts, kind, np.float32),
                                       kernel, input_channels)
        gi_ref, gk_ref = conv2d_batch_backward(g, conv3_input(parts, kind, np.float64),
                                               kernel, input_channels)
        assert gk.dtype == np.float64
        self._check_close(gk, gk_ref)
        if input_channels == 0:
            assert gi is None
        else:
            assert gi.dtype == np.float32
            self._check_close(gi, gi_ref)

    def test_layer_gradients_are_float64(self, rng):
        conv = Conv2d("conv3", 24, 8)
        conv.init_he(rng)
        parts, _, g = self._case(rng)
        out = conv.forward(conv3_input(parts, "stack", np.float32), keep_cache=True)
        gi, grads = conv.backward(g.astype(np.float32))
        assert out.dtype == gi.dtype == np.float32
        assert all(v.dtype == np.float64 for v in grads.values())

    def test_band_rows_do_not_depend_on_dtype(self, rng):
        # conv3 of the default config: several bands per 96x96 image
        x = rng.normal_array(24 * 96 * 96).reshape(24, 1, 96, 96)
        bands = {dtype: [(r0, r1, slab.dtype, slab.nbytes)
                         for _, r0, r1, slab in layers._shift_bands(x.astype(dtype), 3)]
                 for dtype in (np.float32, np.float64)}
        assert len(bands[np.float32]) == len(bands[np.float64]) > 1
        for (r0, r1, dtype, nbytes), (q0, q1, _, nbytes64) in zip(bands[np.float32],
                                                                  bands[np.float64]):
            assert (r0, r1) == (q0, q1)
            assert dtype == np.float32 and 2 * nbytes == nbytes64 <= layers._BAND_BYTES


def softplus_slope(x):
    slope = np.empty_like(x)
    softplus(x, slope=slope)
    return slope


class TestConv2dLayer:
    def test_backward_needs_a_kept_input(self, rng):
        conv = Conv2d("c", 2, 3)
        conv.init_he(rng)
        x = rng.normal_array(2 * 1 * 4 * 4).reshape(2, 1, 4, 4)
        g = np.ones((3, 1, 4, 4))
        conv.forward(x, keep_cache=True)
        _, grads = conv.backward(g)
        conv.forward(x)         # forward-only: drops the kept input
        assert conv._x is None
        with pytest.raises(RuntimeError, match="c.backward needs a forward with keep_cache"):
            conv.backward(g)
        conv.forward(x, keep_cache=True)
        assert np.array_equal(conv.backward(g)[1]["c.kernel"], grads["c.kernel"])


    def test_forward_only_output_is_the_layers_buffer(self, rng):
        conv = Conv2d("c", 2, 3)
        conv.init_he(rng)
        x = rng.normal_array(2 * 2 * 5 * 5).reshape(2, 2, 5, 5).astype(np.float32)
        first = conv.forward(x)
        want = first.copy()
        # same shape: the same buffer, every element rewritten
        first.fill(np.nan)
        assert conv.forward(x) is first and np.array_equal(first, want)
        # another shape or dtype gets a new buffer and leaves the old one alone
        assert conv.forward(x[:, :1]).shape == (3, 1, 5, 5)
        assert conv.forward(x.astype(np.float64)).dtype == np.float64
        assert np.array_equal(first, want)
        # a training forward also returns the layer's buffer, and keeps its input
        kept = conv.forward(x, keep_cache=True)
        kept.fill(np.nan)
        assert conv.forward(x, keep_cache=True) is kept and conv._x is x
        assert np.array_equal(kept, want)

    def test_relu_layer_is_the_linear_layer_then_relu(self, rng):
        x = rng.normal_array(2 * 2 * 5 * 5).reshape(2, 2, 5, 5)
        g = rng.normal_array(3 * 2 * 5 * 5).reshape(3, 2, 5, 5)
        linear, rectified = Conv2d("c", 2, 3), Conv2d("c", 2, 3, relu=True)
        linear.init_he(Rng(5))
        rectified.init_he(Rng(5))
        pre = linear.forward(x, keep_cache=True).copy()
        out = rectified.forward(x, keep_cache=True)
        assert (pre < 0).any() and (pre > 0).any()
        assert np.array_equal(out, np.maximum(pre, 0.0))
        gi, grads = rectified.backward(g)
        gi_ref, grads_ref = linear.backward(g * (out > 0))
        assert np.array_equal(gi, gi_ref)
        for k, v in grads_ref.items():
            assert np.array_equal(grads[k], v), k


def ulps_apart(a, b):
    """Distance in units in the last place between same-sign doubles."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


class TestActivations:
    def test_softplus_at_zero(self):
        assert softplus(np.array([0.0]))[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_softplus_overflow_safe(self):
        assert softplus(np.array([50.0]))[0] == pytest.approx(50.0, abs=1e-9)
        assert softplus(np.array([700.0]))[0] == pytest.approx(700.0, abs=1e-9)

    def test_softplus_within_ulps_of_exact(self, rng):
        x = np.concatenate([5.0 * rng.normal_array(100_000),
                            np.linspace(-40.0, 40.0, 100_001)])
        ext = x.astype(np.longdouble)
        exact = (np.maximum(ext, 0) + np.log1p(np.exp(-np.abs(ext)))).astype(np.float64)
        # each form lies within 2 ulp of the extended-precision value, so
        # the two can differ by 3
        assert ulps_apart(softplus(x), exact).max() <= 2
        assert ulps_apart(softplus(x), np.logaddexp(0.0, x)).max() <= 3

    def test_softplus_extremes_without_warning(self):
        # a RuntimeWarning fails the test under the suite's filter
        x = np.array([1e3, -1e3, np.inf, -np.inf])
        assert np.array_equal(softplus(x), [1e3, 0.0, np.inf, 0.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softplus_slope_is_the_two_branch_sigmoid(self, dtype, rng):
        x = np.concatenate([8.0 * rng.normal_array(10_000),
                            [0.0, -0.0, 1e3, -1e3, np.inf, -np.inf]]).astype(dtype)
        pos = x >= 0
        sigmoid = np.empty_like(x)
        sigmoid[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        sigmoid[~pos] = ex / (1.0 + ex)
        slope = np.full_like(x, np.nan)
        y = softplus(x, slope=slope)
        assert y.dtype == slope.dtype == dtype
        assert np.array_equal(y, softplus(x))
        assert np.array_equal(slope, sigmoid)

    # the conv's ReLU is checked against the linear layer in TestConv2dLayer
    @pytest.mark.parametrize("kind", ["softplus"])
    def test_backward_matches_fd(self, kind, rng):
        x0 = rng.normal_array(40)

        def f(x):
            y = softplus(x)
            return 0.5 * (y ** 2).sum(), y * softplus_slope(x)

        assert grad_check(f, x0, 1e-5) < 1e-6


class TestPoolUpsample:
    def test_constant_invariance(self):
        c = np.full((1, 8, 8), 3.25)
        assert np.array_equal(pool2x_batch(c), np.full((1, 4, 4), 3.25))
        assert np.array_equal(upsample2x_batch(c), np.full((1, 16, 16), 3.25))

    def test_pool_arithmetic_mean(self):
        assert pool2x_batch(np.array([[1.0, 3.0], [5.0, 7.0]]))[0, 0] == 4.0

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError, match="even"):
            pool2x_batch(np.zeros((1, 5, 4)))

    def test_adjoint_up_to_factor_4(self, rng):
        x = rng.normal_array(16).reshape(4, 4)
        y = rng.normal_array(64).reshape(8, 8)
        lhs = (upsample2x_batch(x) * y).sum()
        rhs = (x * pool2x_batch(y)).sum() * 4.0
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_match_repeat_forms(self, rng):
        x = rng.normal_array(3 * 2 * 5 * 6).reshape(3, 2, 5, 6)
        assert np.array_equal(upsample2x_batch(x), x.repeat(2, axis=-2).repeat(2, axis=-1))
        assert np.array_equal(pool2x_batch_backward(x),
                              (0.25 * x).repeat(2, axis=-2).repeat(2, axis=-1))

    def test_backward_matches_fd(self, rng):
        x0 = rng.normal_array(64)
        target = rng.normal_array(64).reshape(8, 8)

        def f(x):
            up = upsample2x_batch(pool2x_batch(x.reshape(8, 8)))
            loss = 0.5 * ((up - target) ** 2).sum()
            grad = pool2x_batch_backward(upsample2x_batch_backward(up - target))
            return loss, grad.reshape(-1)

        assert grad_check(f, x0, 1e-5) < 1e-6


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax_rows(np.zeros((4, 3))), 0.25, atol=1e-15)

    def test_analytic(self):
        out = softmax_rows(np.array([[math.log(3)], [0.0]]))
        np.testing.assert_allclose(out[:, 0], [0.75, 0.25], atol=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
           st.floats(-100, 100))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance_and_normalization(self, logits, c):
        logits = np.array(logits)[:, None]
        p = softmax_rows(logits)
        q = softmax_rows(logits + c)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p > 0)
        np.testing.assert_allclose(p, q, atol=1e-12)
