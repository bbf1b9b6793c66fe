"""Tensor kernels against brute-force loop oracles and hand calculations."""

import threading
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from numpy.lib.stride_tricks import as_strided

from dtsnn import kernels, network
from dtsnn.errors import ShapeError
from dtsnn.kernels import (
    BLOCK_BYTES,
    BN_EPS,
    BN_MOMENTUM,
    ConvParams,
    avg_pool2d,
    avg_pool2d_backward,
    batch_norm,
    batch_norm_backward,
    batch_norm_train_cached,
    conv2d,
    conv2d_backward,
    fully_connected,
    fully_connected_backward,
    norm_params,
)
from dtsnn.network import LifConfig, lif_unroll

from oracles import (
    avg_pool2d_reference,
    conv2d_reference,
    conv2d_weight_grad_reference,
    fully_connected_reference,
)

rng = np.random.default_rng(20240511)


def random_conv_case(max_n=2, max_c=3, max_hw=6):
    n = int(rng.integers(1, max_n + 1))
    cin = int(rng.integers(1, max_c + 1))
    cout = int(rng.integers(1, max_c + 2))
    h = int(rng.integers(2, max_hw + 1))
    w = int(rng.integers(2, max_hw + 1))
    kh = int(rng.integers(1, min(3, h) + 1))
    kw = int(rng.integers(1, min(3, w) + 1))
    stride = int(rng.integers(1, 3))
    padding = int(rng.integers(0, 2))
    if (h + 2 * padding - kh) // stride + 1 < 1 or (w + 2 * padding - kw) // stride + 1 < 1:
        padding = kh  # guarantee a valid output
    x = rng.standard_normal((n, cin, h, w)).astype(np.float32)
    wts = rng.standard_normal((cout, cin, kh, kw)).astype(np.float32)
    params = ConvParams(cin, cout, kh, kw, stride, padding)
    return x, wts, params


def channels_last(x):
    """The same NCHW values as a view of an (N, H, W, C) buffer, the memory
    order the network passes between layers."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


# (kh, kw, stride, padding) cases beyond the random small-shape sweep,
# including padding >= kernel and non-square kernels at stride 1
WIDE_CONV_CASES = [
    (3, 3, 2, 0), (3, 3, 2, 2), (1, 1, 1, 0), (1, 1, 1, 1), (1, 1, 2, 0),
    (5, 5, 1, 2), (5, 5, 2, 2), (3, 1, 1, 0), (2, 3, 1, 1),
]


class TestConv2d:
    def test_zero_input_gives_zero_output(self):
        x = np.zeros((1, 2, 5, 5), dtype=np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        y = conv2d(x, w, ConvParams(2, 3, 3, 3, 1, 1))
        assert not y.any()

    def test_identity_kernel(self):
        x = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
        w = np.ones((1, 1, 1, 1), dtype=np.float32)
        y = conv2d(x, w, ConvParams(1, 1, 1, 1, 1, 0))
        npt.assert_array_equal(y, x)

    def test_against_loop_oracle_fixed_case(self):
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        params = ConvParams(2, 3, 3, 3, 1, 1)
        ref = conv2d_reference(x, w, 1, 1)
        got = conv2d(x, w, params)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) < 1e-5

    def test_against_loop_oracle_random_shapes(self):
        # Acceptance criterion: >= 100 random small shapes.
        for _ in range(120):
            x, w, params = random_conv_case()
            ref = conv2d_reference(x, w, params.stride, params.padding)
            got = conv2d(x, w, params)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) < 1e-5

    def test_linearity(self):
        for _ in range(20):
            x1, w, params = random_conv_case()
            x2 = rng.standard_normal(x1.shape).astype(np.float32)
            a, b = 0.7, -1.3
            lhs = conv2d(a * x1 + b * x2, w, params)
            rhs = a * conv2d(x1, w, params) + b * conv2d(x2, w, params)
            assert np.max(np.abs(lhs - rhs)) < 1e-4

    def test_channel_mismatch_raises(self):
        x = np.zeros((1, 3, 4, 4), dtype=np.float32)
        w = np.zeros((2, 2, 3, 3), dtype=np.float32)
        with pytest.raises(ShapeError, match="channel"):
            conv2d(x, w, ConvParams(2, 2, 3, 3, 1, 1))

    def test_too_small_input_raises(self):
        with pytest.raises(ShapeError, match="output size"):
            ConvParams(1, 1, 5, 5, 1, 0).output_hw(3, 3)

    def test_no_nan_inf_from_finite_inputs(self):
        for _ in range(20):
            x, w, params = random_conv_case()
            assert np.isfinite(conv2d(x * 100, w * 100, params)).all()

    def test_backward_matches_dense_jacobian(self):
        # Check dx and dw against finite differences of a scalar projection.
        x = rng.standard_normal((2, 2, 5, 5)).astype(np.float64)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float64)
        for stride, padding in [(1, 1), (2, 0), (2, 1)]:
            params = ConvParams(2, 3, 3, 3, stride, padding)
            proj = rng.standard_normal(conv2d(x, w, params).shape)

            def loss(xv=x, wv=w, p=params):
                return float((conv2d(xv, wv, p) * proj).sum())

            dx, dw = conv2d_backward(proj, x, w, params)
            eps = 1e-6
            for arr, grad in [(x, dx), (w, dw)]:
                flat, gflat = arr.reshape(-1), grad.reshape(-1)
                for idx in rng.choice(flat.size, size=12, replace=False):
                    orig = flat[idx]
                    flat[idx] = orig + eps
                    lp = loss()
                    flat[idx] = orig - eps
                    lm = loss()
                    flat[idx] = orig
                    npt.assert_allclose(gflat[idx], (lp - lm) / (2 * eps), rtol=1e-5, atol=1e-7)


    def test_backward_without_dx_gives_same_dw(self):
        x = rng.standard_normal((2, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        for stride, padding in [(1, 1), (2, 0)]:
            params = ConvParams(2, 3, 3, 3, stride, padding)
            dy = rng.standard_normal(conv2d(x, w, params).shape)
            _, dw_full = conv2d_backward(dy, x, w, params)
            dx, dw = conv2d_backward(dy, x, w, params, need_dx=False)
            assert dx is None
            npt.assert_array_equal(dw, dw_full)


    @pytest.mark.parametrize("kh,kw,stride,padding", WIDE_CONV_CASES)
    def test_channels_last_against_loop_oracle(self, kh, kw, stride, padding):
        x = rng.standard_normal((2, 3, 9, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, kh, kw)).astype(np.float32)
        params = ConvParams(3, 4, kh, kw, stride, padding)
        ref = conv2d_reference(x, w, stride, padding)
        got = conv2d(channels_last(x), w, params)
        assert np.max(np.abs(got - ref)) < 1e-5
        npt.assert_array_equal(got, conv2d(x, w, params))
        assert got.transpose(0, 2, 3, 1).flags.c_contiguous

    @pytest.mark.parametrize("kh,kw,stride,padding", WIDE_CONV_CASES)
    def test_channels_last_backward_matches_finite_differences(self, kh, kw, stride, padding):
        x = channels_last(rng.standard_normal((2, 3, 7, 6)))
        w = rng.standard_normal((4, 3, kh, kw))
        params = ConvParams(3, 4, kh, kw, stride, padding)
        proj = channels_last(rng.standard_normal(conv2d(x, w, params).shape))
        dx, dw = conv2d_backward(proj, x, w, params)
        assert dx.shape == x.shape and dw.shape == w.shape
        assert dw.flags.c_contiguous
        eps = 1e-6
        for arr, grad in [(x, dx), (w, dw)]:
            for idx in zip(*[rng.integers(0, d, size=10) for d in arr.shape]):
                orig = arr[idx]
                arr[idx] = orig + eps
                lp = float((conv2d(x, w, params) * proj).sum())
                arr[idx] = orig - eps
                lm = float((conv2d(x, w, params) * proj).sum())
                arr[idx] = orig
                npt.assert_allclose(grad[idx], (lp - lm) / (2 * eps), rtol=1e-5, atol=1e-7)


# (C_in, kh, kw, stride, padding): one to three channels, a non-square kernel
PLANE_CASES = [(c, kh, kw, stride, padding) for c in (1, 2, 3) for kh, kw in ((3, 3), (2, 3))
               for stride in (1, 2) for padding in (0, 1, 2)]
SINGLE_CHANNEL_CASES = [case[1:] for case in PLANE_CASES if case[0] == 1]


def reference_unfold(x, kh, kw, stride, padding, planes):
    """Sliding windows of x (N,C,H,W) as the rows of an (N*Ho*Wo, kh*kw*C)
    matrix in (kh, kw, C) column order, with Ho and Wo: by planes the
    transpose of a K-major matrix, else a C-order matrix."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    (n, c, h, w), (sn, sc, sh, sw) = xp.shape, xp.strides
    ho, wo = (h - kh) // stride + 1, (w - kw) // stride + 1
    sh_, sw_ = sh * stride, sw * stride
    if planes:
        windows = as_strided(xp, (kh, kw, c, n, ho, wo), (sh, sw, sc, sn, sh_, sw_))
        return np.ascontiguousarray(windows).reshape(kh * kw * c, n * ho * wo).T, ho, wo
    windows = as_strided(xp, (n, ho, wo, kh, kw, c), (sn, sh_, sw_, sh, sw, sc))
    return np.ascontiguousarray(windows).reshape(n * ho * wo, kh * kw * c), ho, wo


def kernel_unfold(x, params):
    """The unfolded matrix conv2d multiplies for x, a batch of one block."""
    ho, wo = params.output_hw(*x.shape[2:])
    out = np.empty((len(x), ho, wo, params.out_channels), x.dtype).transpose(0, 3, 1, 2)
    buffers = kernels.conv_buffers(x, params, x.dtype, out, kernels._new_array)
    assert len(buffers.blocks) == 1
    return kernels._unfold_block(x, buffers.scratch[0])


def channels_last_conv(x, w, params):
    """conv2d by the channels-last unfold and one row-major GEMM, the way
    every input was convolved before a single channel unfolded by planes."""
    cols, ho, wo = reference_unfold(x, params.kernel_h, params.kernel_w, params.stride,
                                    params.padding, planes=False)
    y = cols @ kernels._weight_matrix(w).T
    return y.reshape(len(x), ho, wo, -1).transpose(0, 3, 1, 2)


def channels_last_weight_grad(dy, x, w, params):
    """conv2d_backward's dW by the channels-last unfold, as it was computed
    before a single channel unfolded by planes."""
    cols, _, _ = reference_unfold(x, params.kernel_h, params.kernel_w, params.stride,
                                  params.padding, planes=False)
    dw = dy.transpose(0, 2, 3, 1).reshape(-1, w.shape[0]).T @ cols
    return dw.reshape(w.shape[0], w.shape[2], w.shape[3], w.shape[1]).transpose(0, 3, 1, 2)


class TestPlaneUnfold:
    """A single-channel input (the network's raw images) unfolds plane by
    plane into a K-major matrix; any other input unfolds channels-last."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c,kh,kw,stride,padding", PLANE_CASES)
    def test_same_matrix_as_channels_last_and_the_oracle(self, c, kh, kw, stride, padding, dtype):
        x = rng.standard_normal((3, c, 7, 6)).astype(dtype)
        w = rng.standard_normal((4, c, kh, kw)).astype(dtype)
        by_planes, ho, wo = reference_unfold(x, kh, kw, stride, padding, planes=True)
        by_rows = reference_unfold(x, kh, kw, stride, padding, planes=False)
        assert by_planes.T.flags.c_contiguous  # K-major: runs of Wo values
        assert (ho, wo) == by_rows[1:]
        npt.assert_array_equal(by_planes, by_rows[0])
        npt.assert_array_equal(kernel_unfold(x, ConvParams(c, 4, kh, kw, stride, padding)),
                               by_rows[0])
        y = (by_planes @ kernels._weight_matrix(w).T).reshape(3, ho, wo, 4).transpose(0, 3, 1, 2)
        assert np.max(np.abs(y - conv2d_reference(x, w, stride, padding))) < 1e-5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kh,kw,stride,padding", SINGLE_CHANNEL_CASES)
    def test_single_channel_conv_equals_the_channels_last_path(self, kh, kw, stride, padding,
                                                               dtype):
        x = rng.standard_normal((3, 1, 9, 8)).astype(dtype)
        w = rng.standard_normal((5, 1, kh, kw)).astype(dtype)
        params = ConvParams(1, 5, kh, kw, stride, padding)
        cols = kernel_unfold(x, params)
        assert cols.T.flags.c_contiguous  # conv2d took the plane-by-plane unfold
        got = conv2d(x, w, params)
        npt.assert_array_equal(got, channels_last_conv(x, w, params))
        npt.assert_array_equal(got, conv2d(channels_last(x), w, params))
        assert got.transpose(0, 2, 3, 1).flags.c_contiguous
        assert np.max(np.abs(got - conv2d_reference(x, w, stride, padding))) < 1e-5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kh,kw,stride,padding", SINGLE_CHANNEL_CASES)
    def test_stem_weight_gradient_equals_the_channels_last_path(self, kh, kw, stride, padding,
                                                                dtype):
        x = rng.standard_normal((3, 1, 9, 8)).astype(dtype)
        w = rng.standard_normal((5, 1, kh, kw)).astype(dtype)
        params = ConvParams(1, 5, kh, kw, stride, padding)
        dy = channels_last(rng.standard_normal(conv2d(x, w, params).shape).astype(dtype))
        dx, dw = conv2d_backward(dy, x, w, params, need_dx=False)
        assert dx is None and dw.flags.c_contiguous
        npt.assert_array_equal(dw, channels_last_weight_grad(dy, x, w, params))
        ref = conv2d_weight_grad_reference(dy, x, kh, kw, stride, padding)
        npt.assert_allclose(dw, ref, rtol=0, atol=1e-4 * np.abs(ref).max())

    def test_single_channel_blocks_equal_one_block(self, monkeypatch):
        x = rng.standard_normal((7, 1, 9, 8)).astype(np.float32)
        w = rng.standard_normal((5, 1, 3, 3)).astype(np.float32)
        params = ConvParams(1, 5, 3, 3, 1, 1)
        dy = channels_last(rng.standard_normal((7, 5, 9, 8)).astype(np.float32))
        whole = conv2d(x, w, params), conv2d_backward(dy, x, w, params, need_dx=False)[1]
        monkeypatch.setattr(kernels, "BLOCK_BYTES", 2 * 9 * 8 * 9 * 4)  # 2 samples a block
        npt.assert_array_equal(conv2d(x, w, params), whole[0])
        npt.assert_allclose(conv2d_backward(dy, x, w, params, need_dx=False)[1], whole[1],
                            rtol=1e-5, atol=1e-5)


def multi_block_batch(c, h, w, kh, kw, stride, padding, itemsize):
    """(batch, samples per block) for an input of c x h x w whose unfolded
    matrix spans three conv2d blocks of BLOCK_BYTES, the last one ragged."""
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    per_block = BLOCK_BYTES // (ho * wo * kh * kw * c * itemsize)
    assert per_block >= 2
    return 2 * per_block + per_block // 2, per_block


class TestConv2dMultiBlock:
    """Batches whose unfolded input spans several blocks of BLOCK_BYTES."""

    @pytest.mark.parametrize("kh,kw,stride,padding", WIDE_CONV_CASES)
    def test_against_loop_oracle(self, kh, kw, stride, padding):
        n, per_block = multi_block_batch(3, 9, 8, kh, kw, stride, padding, 4)
        x = channels_last(rng.standard_normal((n, 3, 9, 8)).astype(np.float32))
        w = rng.standard_normal((4, 3, kh, kw)).astype(np.float32)
        got = conv2d(x, w, ConvParams(3, 4, kh, kw, stride, padding))
        assert got.transpose(0, 2, 3, 1).flags.c_contiguous
        # the oracle is slow: check the samples on each side of every block edge
        edges = [0, per_block - 1, per_block, 2 * per_block - 1, 2 * per_block, n - 1]
        ref = conv2d_reference(x[edges], w, stride, padding)
        assert np.max(np.abs(got[edges] - ref)) < 1e-5

    @pytest.mark.parametrize("kh,kw,stride,padding", WIDE_CONV_CASES)
    def test_backward_equals_per_sample_calls_summed(self, kh, kw, stride, padding):
        n, _ = multi_block_batch(3, 9, 8, kh, kw, stride, padding, 4)
        x = channels_last(rng.standard_normal((n, 3, 9, 8)).astype(np.float32))
        w = rng.standard_normal((4, 3, kh, kw)).astype(np.float32)
        params = ConvParams(3, 4, kh, kw, stride, padding)
        dy = channels_last(rng.standard_normal(conv2d(x, w, params).shape).astype(np.float32))
        dx, dw = conv2d_backward(dy, x, w, params)
        per_sample = [conv2d_backward(dy[i : i + 1], x[i : i + 1], w, params) for i in range(n)]
        npt.assert_allclose(dx, np.concatenate([d for d, _ in per_sample]), rtol=1e-5, atol=1e-5)
        dw_sum = np.sum([g for _, g in per_sample], axis=0, dtype=np.float64)
        npt.assert_allclose(dw, dw_sum, rtol=1e-5, atol=1e-5 * np.abs(dw_sum).max())

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1)])
    def test_backward_matches_finite_differences(self, stride, padding):
        n, per_block = multi_block_batch(2, 7, 6, 3, 3, stride, padding, 8)
        x = channels_last(rng.standard_normal((n, 2, 7, 6)))
        w = rng.standard_normal((3, 2, 3, 3))
        params = ConvParams(2, 3, 3, 3, stride, padding)
        proj = channels_last(rng.standard_normal(conv2d(x, w, params).shape))
        dx, dw = conv2d_backward(proj, x, w, params)

        def loss():
            return float((conv2d(x, w, params) * proj).sum())

        eps = 1e-6
        x_entries = [(b, *(int(rng.integers(0, d)) for d in x.shape[1:]))
                     for b in (0, per_block - 1, per_block, 2 * per_block, n - 1)]
        w_entries = list(zip(*[rng.integers(0, d, size=6) for d in w.shape]))
        for arr, grad, entries in [(x, dx, x_entries), (w, dw, w_entries)]:
            for idx in entries:
                orig = arr[idx]
                arr[idx] = orig + eps
                lp = loss()
                arr[idx] = orig - eps
                lm = loss()
                arr[idx] = orig
                npt.assert_allclose(grad[idx], (lp - lm) / (2 * eps), rtol=1e-5, atol=1e-6)

    def test_never_allocates_the_full_unfolded_matrix(self):
        n, _ = multi_block_batch(8, 16, 16, 3, 3, 1, 1, 4)
        n *= 3  # about eight blocks
        unfolded_bytes = n * 16 * 16 * 9 * 8 * 4
        x = channels_last(rng.standard_normal((n, 8, 16, 16)).astype(np.float32))
        w = rng.standard_normal((4, 8, 3, 3)).astype(np.float32)
        params = ConvParams(8, 4, 3, 3, 1, 1)
        dy = channels_last(rng.standard_normal((n, 4, 16, 16)).astype(np.float32))
        tracemalloc.start()  # numpy reports its array buffers to tracemalloc
        try:
            peaks = []
            for call in (lambda: conv2d(x, w, params),
                         lambda: conv2d_backward(dy, x, w, params)):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                call()
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert max(peaks) < unfolded_bytes, (peaks, unfolded_bytes)


class TestFullyConnected:
    def test_identity_weights(self):
        x = rng.standard_normal((4, 5)).astype(np.float32)
        y = fully_connected(x, np.eye(5, dtype=np.float32), np.zeros(5, np.float32))
        npt.assert_array_equal(y, x)

    def test_zero_weights_bias_only(self):
        x = rng.standard_normal((3, 4)).astype(np.float32)
        b = np.array([1.0, -2.0], dtype=np.float32)
        y = fully_connected(x, np.zeros((2, 4), np.float32), b)
        npt.assert_array_equal(y, np.tile(b, (3, 1)))

    def test_against_loop_oracle(self):
        for _ in range(100):
            n = int(rng.integers(1, 5))
            fin = int(rng.integers(1, 8))
            fout = int(rng.integers(1, 8))
            x = rng.standard_normal((n, fin)).astype(np.float32)
            w = rng.standard_normal((fout, fin)).astype(np.float32)
            b = rng.standard_normal(fout).astype(np.float32)
            ref = fully_connected_reference(x, w, b)
            assert np.max(np.abs(fully_connected(x, w, b) - ref)) < 1e-5

    def test_fixed_random_case_tight_tolerance(self):
        x = rng.standard_normal((2, 5)).astype(np.float64)
        w = rng.standard_normal((3, 5)).astype(np.float64)
        b = np.zeros(3)
        ref = fully_connected_reference(x, w, b)
        assert np.max(np.abs(fully_connected(x, w, b) - ref)) < 1e-6

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError, match="inner dimensions"):
            fully_connected(np.zeros((2, 3), np.float32), np.zeros((4, 5), np.float32), np.zeros(4, np.float32))

    def test_linearity_zero_bias(self):
        x1 = rng.standard_normal((3, 6)).astype(np.float32)
        x2 = rng.standard_normal((3, 6)).astype(np.float32)
        w = rng.standard_normal((4, 6)).astype(np.float32)
        z = np.zeros(4, np.float32)
        lhs = fully_connected(2.0 * x1 - 0.5 * x2, w, z)
        rhs = 2.0 * fully_connected(x1, w, z) - 0.5 * fully_connected(x2, w, z)
        assert np.max(np.abs(lhs - rhs)) < 1e-4

    def test_backward(self):
        x = rng.standard_normal((4, 6))
        w = rng.standard_normal((3, 6))
        dy = rng.standard_normal((4, 3))
        dx, dw, db = fully_connected_backward(dy, x, w)
        npt.assert_allclose(dx, dy @ w)
        npt.assert_allclose(dw, dy.T @ x)
        npt.assert_allclose(db, dy.sum(axis=0))


class TestAvgPool:
    def test_constant_input(self):
        x = np.full((1, 2, 4, 4), 3.5, dtype=np.float32)
        npt.assert_array_equal(avg_pool2d(x, 2), np.full((1, 2, 2, 2), 3.5, np.float32))

    def test_two_by_two(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)
        npt.assert_array_equal(avg_pool2d(x, 2), np.array([[[[2.5]]]], np.float32))

    def test_against_loop_oracle(self):
        x = rng.standard_normal((1, 1, 4, 4)).astype(np.float32)
        ref = avg_pool2d_reference(x, 2)
        npt.assert_allclose(avg_pool2d(x, 2), ref, rtol=0, atol=1e-6)

    def test_random_shapes_against_oracle(self):
        for _ in range(100):
            window = int(rng.integers(1, 4))
            n = int(rng.integers(1, 3))
            c = int(rng.integers(1, 4))
            hw = window * int(rng.integers(1, 4))
            x = rng.standard_normal((n, c, hw, hw)).astype(np.float32)
            ref = avg_pool2d_reference(x, window)
            assert np.max(np.abs(avg_pool2d(x, window) - ref)) < 1e-5

    def test_non_divisible_raises(self):
        with pytest.raises(ShapeError, match="divisible"):
            avg_pool2d(np.zeros((1, 1, 5, 5), np.float32), 2)

    @pytest.mark.parametrize("window", range(1, 8))
    def test_channels_last_large_windows_against_oracle(self, window):
        x = channels_last(rng.standard_normal((2, 3, 2 * window, 3 * window)).astype(np.float32))
        got = avg_pool2d(x, window)
        assert np.max(np.abs(got - avg_pool2d_reference(x, window))) < 1e-5
        assert got.transpose(0, 2, 3, 1).flags.c_contiguous

    @pytest.mark.parametrize("window", [1, 2, 3, 7])
    def test_backward_is_adjoint(self, window):
        # <pool(x), dy> == <x, pool_backward(dy)> for every x and dy
        x = channels_last(rng.standard_normal((2, 3, 2 * window, window)))
        dy = channels_last(rng.standard_normal((2, 3, 2, 1)))
        lhs = float((avg_pool2d(x, window) * dy).sum())
        rhs = float((x * avg_pool2d_backward(dy, window)).sum())
        npt.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_backward_spreads_uniformly(self):
        dy = np.array([[[[4.0]]]], dtype=np.float32)
        dx = avg_pool2d_backward(dy, 2)
        npt.assert_array_equal(dx, np.full((1, 1, 2, 2), 1.0, np.float32))

    def test_bool_and_uint8_windows_are_sums_not_or_nor_wrapped(self):
        npt.assert_array_equal(avg_pool2d(np.ones((1, 1, 2, 2), bool), 2), [[[[1.0]]]])
        npt.assert_array_equal(avg_pool2d(np.full((1, 1, 2, 2), 200, np.uint8), 2),
                               [[[[200.0]]]])

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int8, np.uint16, np.int32,
                                       np.int64, np.uint64])
    @pytest.mark.parametrize("window", [1, 2, 3, 7, 16])
    @pytest.mark.parametrize("block_bytes", [1, BLOCK_BYTES])
    def test_integer_inputs_pool_as_their_float_values(self, dtype, window, block_bytes,
                                                       monkeypatch):
        # Both engines' pools, in one block and in blocks of one sample, on
        # values that include the dtype's extremes: a narrow sum would wrap
        # and a bool one saturate.
        monkeypatch.setattr(kernels, "BLOCK_BYTES", block_bytes)
        shape = (3, window, 2 * window, 3)  # (N, H, W, C) memory
        if dtype is bool:
            mem = rng.random(shape) < 0.6
        else:
            info = np.iinfo(dtype)
            mem = rng.integers(info.min, info.max, size=shape, dtype=dtype, endpoint=True)
            mem[0], mem[1, :, ::2] = info.max, info.min
        x = mem.transpose(0, 3, 1, 2)
        want = avg_pool2d(x.astype(np.result_type(x, 1.0)), window)
        assert want.dtype == np.float64
        got = avg_pool2d(x, window)
        assert got.dtype == want.dtype
        npt.assert_array_equal(got, want)
        out = np.empty_like(want)
        buffers = kernels.pool_buffers(x, window, out, lambda role, shape, dt: np.empty(shape, dt))
        assert avg_pool2d(x, window, buffers=buffers) is out
        npt.assert_array_equal(out, want)

    @pytest.mark.parametrize("window", [1, 2, 7])
    def test_bool_spikes_pool_into_a_float32_out_as_float32_spikes(self, window, monkeypatch):
        # The tape's pool after a strict LIF layer: bool spikes into the
        # potentials' float32, bit-equal to pooling float32 spikes.
        monkeypatch.setattr(kernels, "BLOCK_BYTES", 64)
        spikes = channels_last(rng.random((5, 3, 2 * window, window)) < 0.4)
        want = avg_pool2d(spikes.astype(np.float32), window)
        got = avg_pool2d(spikes, window, np.empty_like(want))
        assert got.dtype == np.float32
        npt.assert_array_equal(got, want)


class TestHandedOverSums:
    """A pool before a conv hands over its window sums; the conv's blocks
    divide them by the pool's own division into their bordered buffers, so
    the convolution, its weight gradient and its blocks are those on the
    pool's means, bit for bit."""

    @staticmethod
    def spikes(smooth, dtype, shape, seed):
        data = np.random.default_rng(seed)
        if smooth:  # floats in [0, 1], zeros included
            return channels_last(network.spike_ramp(
                data.standard_normal(shape) * 1.5 + 0.5, 1.0).astype(dtype))
        return channels_last(data.random(shape) < 0.4)

    @pytest.mark.parametrize("block_bytes", [1, 700, BLOCK_BYTES])
    @pytest.mark.parametrize("w_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("smooth", [False, True], ids=["strict", "smooth"])
    @pytest.mark.parametrize("window", [2, 7])  # 49 is not a power of two
    def test_a_conv_on_the_sums_equals_the_conv_on_the_means(self, window, smooth, dtype,
                                                            w_dtype, block_bytes, monkeypatch):
        monkeypatch.setattr(kernels, "BLOCK_BYTES", block_bytes)
        spikes = self.spikes(smooth, dtype, (5, 3, 2 * window, 3 * window), window)
        means = avg_pool2d(spikes, window, channels_last(np.empty((5, 3, 2, 3), dtype)))
        sums = avg_pool2d(spikes, window, sums=True)
        assert sums.dtype == (dtype if smooth else np.uint8)
        assert sums.transpose(0, 2, 3, 1).flags.c_contiguous
        assert sums.max() > 1  # the division is not a copy
        data = np.random.default_rng(window + 1)
        w = data.standard_normal((4, 3, 3, 3)).astype(w_dtype)
        params, pooled = ConvParams(3, 4, 3, 3, 1, 1), (window, means.dtype)
        want = conv2d(means, w, params)
        got = conv2d(sums, w, params, pooled=pooled)
        assert got.dtype == want.dtype
        npt.assert_array_equal(got, want)
        dy = channels_last(data.standard_normal(want.shape).astype(want.dtype))
        for a, b in zip(conv2d_backward(dy, sums, w, params, pooled=pooled),
                        conv2d_backward(dy, means, w, params), strict=True):
            assert a.dtype == b.dtype
            npt.assert_array_equal(a, b)
        # blocks of the means' samples, whatever the bytes of the sums
        on_sums = kernels.conv_buffers(sums, params, want.dtype, np.empty_like(want),
                                       kernels._new_array, pooled)
        on_means = kernels.conv_buffers(means, params, want.dtype, np.empty_like(want),
                                        kernels._new_array)
        assert [len(b[0]) for b in on_sums.blocks] == [len(b[0]) for b in on_means.blocks]
        def shapes(conv):
            return [{m: [a.shape for a in views] for m, views in worker.items()}
                    for worker in conv.scratch]

        assert shapes(on_sums) == shapes(on_means)

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_sums_go_into_a_channels_last_out_of_their_dtype(self, window):
        spikes = self.spikes(False, np.float32, (3, 2, 2 * window, window), 0)
        out = channels_last(np.empty((3, 2, 2, 1), np.uint8))
        assert avg_pool2d(spikes, window, out, sums=True) is out
        want = spikes.astype(np.int64).reshape(3, 2, 2, window, 1, window).sum(axis=(3, 5))
        npt.assert_array_equal(out, want)
        with pytest.raises(ShapeError, match="dtype float32"):
            avg_pool2d(spikes, window, channels_last(np.empty((3, 2, 2, 1), np.float32)),
                       sums=True)
        with pytest.raises(ShapeError, match="view of"):
            avg_pool2d(spikes, window, np.empty((3, 2, 2, 1), np.uint8), sums=True)


class TestBatchNorm:
    def test_eval_identity(self):
        state = norm_params(3)
        before = dict(state)
        x = rng.standard_normal((4, 3, 2, 2)).astype(np.float32)
        y = batch_norm(x, state)
        npt.assert_allclose(y, x, atol=1e-4)
        assert state.keys() == before.keys()
        assert all(state[name] is before[name] for name in before)

    def test_eval_bit_exact_to_formula(self):
        state = dict(
            gamma=rng.standard_normal(5).astype(np.float32),
            beta=rng.standard_normal(5).astype(np.float32),
            running_mean=rng.standard_normal(5).astype(np.float32),
            running_var=rng.uniform(0.5, 2.0, 5).astype(np.float32),
        )
        x = channels_last(rng.standard_normal((3, 5, 4, 6)).astype(np.float32))
        view = (1, 5, 1, 1)
        invstd = (1.0 / np.sqrt(state["running_var"] + BN_EPS)).reshape(view)
        expected = (
            state["gamma"].reshape(view) * ((x - state["running_mean"].reshape(view)) * invstd)
            + state["beta"].reshape(view)
        )
        y = batch_norm(x, state)
        assert y.dtype == np.float32
        npt.assert_array_equal(y, expected)
        assert y.transpose(0, 2, 3, 1).flags.c_contiguous

    def test_train_normalizes(self):
        state = norm_params(3)
        x = (rng.standard_normal((16, 3, 4, 4)) * 3.0 + 1.5).astype(np.float32)
        y, _, _ = batch_norm_train_cached(x, state)
        mu = y.mean(axis=(0, 2, 3))
        var = y.var(axis=(0, 2, 3))
        assert np.max(np.abs(mu)) < 1e-5
        assert np.max(np.abs(var - 1.0)) < 1e-3

    def test_running_stats_momentum_blend(self):
        # Hand calculation: start mean 0 / var 1, momentum 0.1, one batch.
        state = norm_params(1)
        x = np.array([[1.0], [2.0], [3.0], [4.0]], dtype=np.float32)
        _, new_state, _ = batch_norm_train_cached(x, state)
        batch_mean = 2.5
        batch_var_unbiased = np.var([1.0, 2.0, 3.0, 4.0], ddof=1)  # 5/3
        npt.assert_allclose(new_state["running_mean"], [0.9 * 0.0 + 0.1 * batch_mean], rtol=1e-6)
        npt.assert_allclose(new_state["running_var"], [0.9 * 1.0 + 0.1 * batch_var_unbiased], rtol=1e-6)

    @pytest.mark.parametrize("layout", ["channels_last", "nchw", "2d"])
    def test_batch_statistics_match_numpy_mean_and_var(self, layout):
        shape = (16, 5) if layout == "2d" else (12, 5, 6, 7)
        x = (rng.standard_normal(shape) * 2.0 + 3.0).astype(np.float32)
        if layout == "channels_last":
            x = channels_last(x)
        axes = (0,) if layout == "2d" else (0, 2, 3)
        view = (1, 5) + (1,) * (x.ndim - 2)
        state = dict(
            gamma=rng.standard_normal(5).astype(np.float32),
            beta=rng.standard_normal(5).astype(np.float32),
            running_mean=rng.standard_normal(5).astype(np.float32),
            running_var=rng.uniform(0.5, 2.0, 5).astype(np.float32),
        )
        repeats = 3
        y, new_state, (xhat, invstd, _, _) = batch_norm_train_cached(x, state, repeats)
        x64 = x.astype(np.float64)
        mean, var = x64.mean(axis=axes), x64.var(axis=axes)
        count = repeats * (x.size // 5)
        m = BN_MOMENTUM
        npt.assert_allclose(invstd, 1.0 / np.sqrt(var + BN_EPS), rtol=1e-5)
        npt.assert_allclose(
            xhat, (x64 - mean.reshape(view)) / np.sqrt(var + BN_EPS).reshape(view),
            rtol=1e-5, atol=1e-5,
        )
        npt.assert_allclose(
            y, xhat * state["gamma"].reshape(view) + state["beta"].reshape(view),
            rtol=1e-6, atol=1e-6,
        )
        npt.assert_allclose(
            new_state["running_mean"], (1 - m) * state["running_mean"] + m * mean,
            rtol=1e-5, atol=1e-6,
        )
        npt.assert_allclose(
            new_state["running_var"],
            (1 - m) * state["running_var"] + m * var * count / (count - 1),
            rtol=1e-5,
        )
        assert y.dtype == xhat.dtype == new_state["running_var"].dtype == np.float32
        assert y.strides == x.strides

    @pytest.mark.parametrize("block_bytes", [1, 700, BLOCK_BYTES])
    def test_xhat_written_over_x_equals_new_arrays(self, block_bytes, monkeypatch):
        # The tape's norm writes xhat over the conv output it reads.
        monkeypatch.setattr(kernels, "BLOCK_BYTES", block_bytes)
        x = channels_last((rng.standard_normal((6, 4, 5, 3)) * 2.0 + 1.0).astype(np.float32))
        state = dict(norm_params(4), gamma=rng.standard_normal(4).astype(np.float32))
        y, new_state, (xhat, invstd, _, _) = batch_norm_train_cached(x, state, 3)
        over = x.copy(order="K")
        out = (over, np.empty_like(over))
        got, got_state, cache = batch_norm_train_cached(over, state, 3, out)
        assert got is out[1] and cache[0] is over
        npt.assert_array_equal(got, y)
        npt.assert_array_equal(over, xhat)
        npt.assert_array_equal(cache[1], invstd)
        for name, value in new_state.items():
            npt.assert_array_equal(got_state[name], value)

    @pytest.mark.parametrize("block_bytes", [1, 700, BLOCK_BYTES])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_passes_over_per_sample_vectors_equal_the_broadcast_formula(self, dtype,
                                                                       block_bytes, monkeypatch):
        # The elementwise passes run against the vectors copied over one
        # sample; every element is the broadcast formula's, bit for bit.
        monkeypatch.setattr(kernels, "BLOCK_BYTES", block_bytes)
        data = np.random.default_rng(8)
        x = channels_last((data.standard_normal((6, 4, 5, 3)) * 2.0 + 1.0).astype(dtype))
        state = dict(norm_params(4, dtype), gamma=data.standard_normal(4).astype(dtype),
                     beta=data.standard_normal(4).astype(dtype))
        y, _, cache = batch_norm_train_cached(x, state)
        xhat, invstd, gamma, view = cache
        mean = np.einsum("nchw->c", x) / (x.size // 4)
        want_xhat = x - mean.reshape(view)
        want_xhat *= invstd.reshape(view)
        npt.assert_array_equal(xhat, want_xhat)
        npt.assert_array_equal(y, xhat * gamma.reshape(view) + state["beta"].reshape(view))
        dy = channels_last(data.standard_normal(x.shape).astype(dtype))
        dx, dgamma, dbeta = batch_norm_backward(dy, cache)
        m = x.size // 4
        want = dy - xhat * (dgamma / m).reshape(view)
        want -= (dbeta / m).reshape(view)
        want *= (gamma * invstd).reshape(view)
        npt.assert_array_equal(dx, want)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_backward_blocks_take_their_term_from_the_scratch(self, workers, monkeypatch):
        # Each worker's xhat * slope is its ``take`` scratch: a backward pass
        # over the gradient it receives allocates no block, where new
        # arrays allocate at least one block's term.
        monkeypatch.setattr(kernels, "BLOCK_BYTES", 256 * 1024)  # 32 samples a block
        monkeypatch.setattr(kernels, "_scan_workers", lambda: workers)
        data = np.random.default_rng(9)
        x = channels_last(data.standard_normal((64, 8, 16, 16)).astype(np.float32))
        _, _, cache = batch_norm_train_cached(x, norm_params(8))
        dy = channels_last(data.standard_normal(x.shape).astype(np.float32))
        want = batch_norm_backward(dy, cache)
        shapes = kernels.norm_scratch(64, x.shape[1:], x[0].nbytes)
        assert sorted(shapes) == [("term", k) for k in range(workers)]
        scratch = {role: np.empty(shape, np.float32) for role, shape in shapes.items()}
        taken, peaks = [], []
        for take in (lambda role, shape, dt: taken.append(role) or scratch[role],
                     kernels._new_array):
            grad = dy.copy(order="K")
            tracemalloc.start()
            got = batch_norm_backward(grad, cache, out=grad, take=take)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            assert got[0] is grad
            for a, b in zip(got, want, strict=True):
                npt.assert_array_equal(a, b)
        assert sorted(taken) == sorted(shapes)
        term = 32 * x[0].nbytes  # numpy's ufunc buffers and the vectors take the rest
        assert peaks[0] < term // 2 and peaks[1] - peaks[0] >= term * 3 // 4

    def test_zero_variance_is_finite(self):
        state = norm_params(2)
        x = np.ones((8, 2), dtype=np.float32)
        y, _, _ = batch_norm_train_cached(x, state)
        assert np.isfinite(y).all()

    def test_backward_against_finite_differences(self):
        state = norm_params(3)
        state = dict(
            gamma=rng.standard_normal(3),
            beta=rng.standard_normal(3),
            running_mean=np.zeros(3),
            running_var=np.ones(3),
        )
        x = rng.standard_normal((5, 3, 2, 2))
        proj = rng.standard_normal(x.shape)

        def loss():
            y, _, _ = batch_norm_train_cached(x, state)
            return float((y * proj).sum())

        _, _, cache = batch_norm_train_cached(x, state)
        dx, dgamma, dbeta = batch_norm_backward(proj, cache)
        eps = 1e-6
        flat, gflat = x.reshape(-1), dx.reshape(-1)
        for idx in rng.choice(flat.size, size=10, replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            lp = loss()
            flat[idx] = orig - eps
            lm = loss()
            flat[idx] = orig
            npt.assert_allclose(gflat[idx], (lp - lm) / (2 * eps), rtol=1e-4, atol=1e-7)
        npt.assert_allclose(dbeta, proj.sum(axis=(0, 2, 3)), rtol=1e-10)

    @pytest.mark.parametrize("shape", [(5, 3, 2, 4), (7, 3)])
    def test_backward_channels_last_against_finite_differences(self, shape):
        x = rng.standard_normal(shape)
        if x.ndim == 4:
            x = channels_last(x)
        state = dict(
            gamma=rng.standard_normal(3),
            beta=rng.standard_normal(3),
            running_mean=np.zeros(3),
            running_var=np.ones(3),
        )
        proj = rng.standard_normal(shape)

        def loss():
            y, _, _ = batch_norm_train_cached(x, state)
            return float((y * proj).sum())

        _, _, cache = batch_norm_train_cached(x, state)
        dx, dgamma, dbeta = batch_norm_backward(proj, cache)
        eps = 1e-6
        for arr, grad in [(x, dx), (state["gamma"], dgamma), (state["beta"], dbeta)]:
            for idx in zip(*[rng.integers(0, d, size=6) for d in arr.shape]):
                orig = arr[idx]
                arr[idx] = orig + eps
                lp = loss()
                arr[idx] = orig - eps
                lm = loss()
                arr[idx] = orig
                npt.assert_allclose(grad[idx], (lp - lm) / (2 * eps), rtol=1e-5, atol=1e-7)


def test_kernels_do_not_mutate_inputs():
    x = channels_last(rng.standard_normal((2, 3, 6, 6)).astype(np.float32))
    w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    state = dict(
        gamma=rng.standard_normal(3).astype(np.float32),
        beta=rng.standard_normal(3).astype(np.float32),
        running_mean=rng.standard_normal(3).astype(np.float32),
        running_var=rng.uniform(0.5, 2.0, 3).astype(np.float32),
    )
    fc_x = rng.standard_normal((4, 6)).astype(np.float32)
    fc_w = rng.standard_normal((3, 6)).astype(np.float32)
    fc_b = rng.standard_normal(3).astype(np.float32)
    inputs = [x, w, fc_x, fc_w, fc_b, state["gamma"], state["beta"],
              state["running_mean"], state["running_var"]]
    before = [a.copy() for a in inputs]
    for stride in (1, 2):
        params = ConvParams(3, 4, 3, 3, stride, 1)
        y = conv2d(x, w, params)
        dy = np.ones_like(y)
        dy_before = dy.copy()
        conv2d_backward(dy, x, w, params)
        npt.assert_array_equal(dy, dy_before)
    fully_connected(fc_x, fc_w, fc_b)
    dy = np.ones((4, 3), np.float32)
    fully_connected_backward(dy, fc_x, fc_w)
    pooled = avg_pool2d(x, 2)
    pooled_before = pooled.copy()
    avg_pool2d_backward(pooled, 2)
    npt.assert_array_equal(pooled, pooled_before)
    batch_norm(x, state)
    batch_norm_train_cached(x, state)
    _, _, cache = batch_norm_train_cached(x, state)
    cache_xhat = cache[0].copy()
    dy = channels_last(rng.standard_normal(x.shape).astype(np.float32))
    dy_before = dy.copy()
    batch_norm_backward(dy, cache)
    npt.assert_array_equal(dy, dy_before)
    npt.assert_array_equal(cache[0], cache_xhat)
    for a, b in zip(inputs, before):
        npt.assert_array_equal(a, b)


needs_helpers = pytest.mark.skipif(kernels.blas_threads() is None,
                                   reason="helpers run only where BLAS can be held at one thread")


class Boom(RuntimeError):
    pass


def count_submits(monkeypatch):
    """List that receives one entry per task submitted to the helper pool."""
    pool, submits = kernels._helper_pool(), []
    submit = pool.submit
    monkeypatch.setattr(pool, "submit", lambda *a: submits.append(a) or submit(*a))
    return submits


class TestRunBlocks:
    def test_batch_one_runs_inline_without_a_hold(self, monkeypatch):
        holds, submits = [], count_submits(monkeypatch)
        hold = kernels.one_blas_thread
        monkeypatch.setattr(kernels, "one_blas_thread", lambda: holds.append(1) or hold())
        x = channels_last(rng.standard_normal((1, 12, 14, 14)).astype(np.float32))
        y = conv2d(x, rng.standard_normal((24, 12, 3, 3)).astype(np.float32),
                   ConvParams(12, 24, 3, 3, 1, 1))
        lif_unroll(avg_pool2d(y, 2)[None], LifConfig())
        assert holds == [] and submits == []

    def test_blocks_write_the_one_output_whatever_the_worker_count(self, monkeypatch):
        x = channels_last(rng.standard_normal((11, 3, 9, 8)).astype(np.float32))
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        params = ConvParams(3, 4, 3, 3, 1, 1)
        monkeypatch.setattr(kernels, "BLOCK_BYTES", 3 * 9 * 8 * 9 * 4 * 2)  # 2 samples a block
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(kernels, "_scan_workers", lambda: workers)
            results.append(conv2d(x, w, params))
        for got in results[1:]:
            npt.assert_array_equal(got, results[0])
            assert got.transpose(0, 2, 3, 1).flags.c_contiguous

    @needs_helpers
    @pytest.mark.parametrize("kernel", ["conv2d", "lif_unroll"])
    def test_helper_error_is_raised_as_is_and_the_next_call_is_fresh(self, kernel, monkeypatch):
        x = channels_last(rng.standard_normal((6, 3, 9, 8)).astype(np.float32))
        if kernel == "conv2d":
            w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
            module, attr = kernels, "_unfold_block"
            call = lambda: [conv2d(x, w, ConvParams(3, 4, 3, 3, 1, 1))]  # noqa: E731
        else:
            currents = np.stack([x, -x, x])
            module, attr = network, "_lif_rows"
            call = lambda: list(lif_unroll(currents, LifConfig())[1])  # noqa: E731
        monkeypatch.setattr(kernels, "BLOCK_BYTES", 1)  # one sample a block
        monkeypatch.setattr(kernels, "_scan_workers", lambda: 2)
        fresh = call()
        before, boom, raised = kernels.blas_threads(), Boom("in a helper"), threading.Event()
        original = getattr(module, attr)

        def failing(*args):
            if threading.current_thread() is not threading.main_thread():
                raised.set()
                raise boom
            assert raised.wait(10)  # the caller's first block waits for the helper
            return original(*args)

        monkeypatch.setattr(module, attr, failing)
        with pytest.raises(Boom) as info:
            call()
        assert info.value is boom
        assert kernels.blas_threads() == before
        monkeypatch.setattr(module, attr, original)
        submits = count_submits(monkeypatch)
        again = call()
        assert len(submits) == 1  # the caller is not left marked as a worker
        for got, want in zip(again, fresh, strict=True):
            npt.assert_array_equal(got, want)


class TestOneKernelPath:
    """A public conv2d, conv2d_backward or avg_pool2d call builds the blocks
    an inference step builds once on its workspace, and runs them on the
    same body: the results agree bit for bit for any block size and worker
    count, on NCHW and on channels-last input."""

    @staticmethod
    def on_workspace(ws, scratch, dtype, out_shape=None):
        """Lay ``ws`` out for one kernel call: its scratch ({role: shape}
        of ``dtype``) and, of ``out_shape``, its out array, at visit 0.
        Returns the scratch's ``take`` and the out array."""
        plan = network.TapePlan({}, {}, np.dtype(dtype))
        plan.scratch(0, (scratch, dtype))
        if out_shape is not None:
            plan.new((0, "y"), out_shape, dtype, 0)
        ws.lay_out(plan)
        return ws.scratch(0), None if out_shape is None else ws.planned((0, "y"))

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, channels_last], ids=["nchw", "nhwc"])
    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("samples", [None, 1, 3], ids=["default", "one", "three"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_public_calls_equal_calls_on_workspace_buffers(self, layout, c, samples, workers,
                                                           monkeypatch):
        data = np.random.default_rng(c * 10 + workers)
        x = layout(data.standard_normal((7, c, 8, 6)).astype(np.float32))
        w = data.standard_normal((4, c, 3, 3)).astype(np.float32)
        params = ConvParams(c, 4, 3, 3, 1, 1)
        dy = layout(data.standard_normal((7, 4, 8, 6)).astype(np.float32))
        ws = network.Workspace()
        monkeypatch.setattr(kernels, "_scan_workers", lambda: workers)

        def blocks_of(row_bytes):
            monkeypatch.setattr(kernels, "BLOCK_BYTES",
                                BLOCK_BYTES if samples is None else samples * row_bytes)

        blocks_of(8 * 6 * 9 * c * 4)  # one sample's unfolded input
        y = conv2d(x, w, params)
        take, out = self.on_workspace(ws, kernels.conv_scratch(7, (c, 8, 6), params, 4),
                                      y.dtype, y.shape)
        conv = kernels.conv_buffers(x, params, y.dtype, out, take)
        assert len(conv.blocks) == (1 if samples is None else -(-7 // samples))
        assert conv2d(x, w, params, buffers=conv) is out
        npt.assert_array_equal(y, out)
        assert y.transpose(0, 2, 3, 1).flags.c_contiguous

        dx, dw = conv2d_backward(dy, x, w, params)
        assert dw.shape == w.shape and dw.flags.c_contiguous
        assert dx.shape == x.shape and dx.transpose(0, 2, 3, 1).flags.c_contiguous
        take, _ = self.on_workspace(ws, kernels.conv_scratch(7, (c, 8, 6), params, 4), dw.dtype)
        conv = kernels.conv_buffers(x, params, dw.dtype, channels_last(dy), take)
        parts = [rows.T @ kernels._unfold_block(xb, conv.scratch[0]) for xb, rows in conv.blocks]
        npt.assert_array_equal(dw, sum(parts).reshape(4, 3, 3, c).transpose(0, 3, 1, 2))
        w_flip = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        back = ConvParams(4, c, 3, 3, 1, 1)
        blocks_of(8 * 6 * 9 * 4 * 4)  # one sample's unfolded output gradient
        take, out = self.on_workspace(ws, kernels.conv_scratch(7, (4, 8, 6), back, 4),
                                      dx.dtype, dx.shape)
        conv = kernels.conv_buffers(dy, back, dx.dtype, out, take)
        npt.assert_array_equal(dx, conv2d(dy, w_flip, back, buffers=conv))

        blocks_of(x[0].nbytes)
        pooled = avg_pool2d(x, 2)
        mem = pooled if layout is np.ascontiguousarray else pooled.transpose(0, 2, 3, 1)
        assert mem.flags.c_contiguous  # x's memory order
        x_mem = channels_last(x)
        out = np.empty_like(pooled)
        take, _ = self.on_workspace(ws, kernels.pool_scratch(7, (c, 8, 6), 2, x.dtype),
                                    kernels._window_sum_dtype(x.dtype, 2))
        pool = kernels.pool_buffers(x_mem, 2, out, take)
        assert len(pool.scratch[0]) == (1 if samples is None else -(-7 // samples))
        assert avg_pool2d(x_mem, 2, buffers=pool) is out
        npt.assert_array_equal(pooled, out)

    @needs_helpers
    def test_buffers_built_for_one_worker_run_on_more(self, monkeypatch):
        # A worker past the scratch the buffers were built with gets new
        # scratch of its own, never another worker's.
        x = channels_last(rng.standard_normal((9, 3, 8, 6)).astype(np.float32))
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        params = ConvParams(3, 4, 3, 3, 1, 1)
        monkeypatch.setattr(kernels, "BLOCK_BYTES", 1)  # one sample a block
        monkeypatch.setattr(kernels, "_scan_workers", lambda: 1)
        want = conv2d(x, w, params), avg_pool2d(x, 2)
        conv = kernels.conv_buffers(x, params, x.dtype, np.empty_like(want[0]),
                                    kernels._new_array)
        pool = kernels.pool_buffers(x, 2, np.empty_like(want[1]), kernels._new_array)
        assert len(conv.scratch) == len(pool.scratch) == 1
        monkeypatch.setattr(kernels, "_scan_workers", lambda: 3)
        submits = count_submits(monkeypatch)
        npt.assert_array_equal(conv2d(x, w, params, buffers=conv), want[0])
        npt.assert_array_equal(avg_pool2d(x, 2, buffers=pool), want[1])
        assert len(submits) == 4  # two helpers per call
