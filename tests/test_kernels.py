"""Tensor kernels against brute-force loop oracles and hand calculations."""

import numpy as np
import numpy.testing as npt
import pytest

from dtsnn.errors import ShapeError
from dtsnn.kernels import (
    BatchNormState,
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
)

from oracles import (
    avg_pool2d_reference,
    conv2d_reference,
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


class TestBatchNorm:
    def test_eval_identity(self):
        state = BatchNormState.create(3)
        x = rng.standard_normal((4, 3, 2, 2)).astype(np.float32)
        y, new_state = batch_norm(x, state, "eval")
        npt.assert_allclose(y, x, atol=1e-4)
        assert new_state is state

    def test_eval_bit_exact_to_formula(self):
        state = BatchNormState(
            gamma=rng.standard_normal(5).astype(np.float32),
            beta=rng.standard_normal(5).astype(np.float32),
            running_mean=rng.standard_normal(5).astype(np.float32),
            running_var=rng.uniform(0.5, 2.0, 5).astype(np.float32),
        )
        x = channels_last(rng.standard_normal((3, 5, 4, 6)).astype(np.float32))
        view = (1, 5, 1, 1)
        invstd = (1.0 / np.sqrt(state.running_var + state.eps)).reshape(view)
        expected = (
            state.gamma.reshape(view) * ((x - state.running_mean.reshape(view)) * invstd)
            + state.beta.reshape(view)
        )
        y, _ = batch_norm(x, state, "eval")
        assert y.dtype == np.float32
        npt.assert_array_equal(y, expected)
        assert y.transpose(0, 2, 3, 1).flags.c_contiguous

    def test_train_normalizes(self):
        state = BatchNormState.create(3)
        x = (rng.standard_normal((16, 3, 4, 4)) * 3.0 + 1.5).astype(np.float32)
        y, _ = batch_norm(x, state, "train")
        mu = y.mean(axis=(0, 2, 3))
        var = y.var(axis=(0, 2, 3))
        assert np.max(np.abs(mu)) < 1e-5
        assert np.max(np.abs(var - 1.0)) < 1e-3

    def test_running_stats_momentum_blend(self):
        # Hand calculation: start mean 0 / var 1, momentum 0.1, one batch.
        state = BatchNormState.create(1, momentum=0.1)
        x = np.array([[1.0], [2.0], [3.0], [4.0]], dtype=np.float32)
        _, new_state = batch_norm(x, state, "train")
        batch_mean = 2.5
        batch_var_unbiased = np.var([1.0, 2.0, 3.0, 4.0], ddof=1)  # 5/3
        npt.assert_allclose(new_state.running_mean, [0.9 * 0.0 + 0.1 * batch_mean], rtol=1e-6)
        npt.assert_allclose(new_state.running_var, [0.9 * 1.0 + 0.1 * batch_var_unbiased], rtol=1e-6)

    def test_zero_variance_is_finite(self):
        state = BatchNormState.create(2)
        x = np.ones((8, 2), dtype=np.float32)
        y, _ = batch_norm(x, state, "train")
        assert np.isfinite(y).all()

    def test_backward_against_finite_differences(self):
        state = BatchNormState.create(3, momentum=0.1)
        state = BatchNormState(
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
        state = BatchNormState(
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
        for arr, grad in [(x, dx), (state.gamma, dgamma), (state.beta, dbeta)]:
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
    state = BatchNormState(
        gamma=rng.standard_normal(3).astype(np.float32),
        beta=rng.standard_normal(3).astype(np.float32),
        running_mean=rng.standard_normal(3).astype(np.float32),
        running_var=rng.uniform(0.5, 2.0, 3).astype(np.float32),
    )
    fc_x = rng.standard_normal((4, 6)).astype(np.float32)
    fc_w = rng.standard_normal((3, 6)).astype(np.float32)
    fc_b = rng.standard_normal(3).astype(np.float32)
    inputs = [x, w, fc_x, fc_w, fc_b, state.gamma, state.beta,
              state.running_mean, state.running_var]
    before = [a.copy() for a in inputs]
    for stride in (1, 2):
        params = ConvParams(3, 4, 3, 3, stride, 1)
        cols = []
        y = conv2d(x, w, params, cols_out=cols)
        dy = np.ones_like(y)
        dy_before = dy.copy()
        conv2d_backward(dy, x, w, params)
        conv2d_backward(dy, x, w, params, cols=cols[0])
        npt.assert_array_equal(dy, dy_before)
    fully_connected(fc_x, fc_w, fc_b)
    dy = np.ones((4, 3), np.float32)
    fully_connected_backward(dy, fc_x, fc_w)
    pooled = avg_pool2d(x, 2)
    pooled_before = pooled.copy()
    avg_pool2d_backward(pooled, 2)
    npt.assert_array_equal(pooled, pooled_before)
    batch_norm(x, state, "eval")
    batch_norm(x, state, "train")
    _, _, cache = batch_norm_train_cached(x, state)
    cache_xhat = cache[0].copy()
    dy = channels_last(rng.standard_normal(x.shape).astype(np.float32))
    dy_before = dy.copy()
    batch_norm_backward(dy, cache)
    npt.assert_array_equal(dy, dy_before)
    npt.assert_array_equal(cache[0], cache_xhat)
    for a, b in zip(inputs, before):
        npt.assert_array_equal(a, b)
