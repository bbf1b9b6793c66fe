"""Losses, surrogate-gradient BPTT, and the SGD training loop."""

import copy
import itertools
import math
import os
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtsnn import kernels, network, training
from dtsnn.config import parse_config
from dtsnn.errors import ConfigError, DataFormatError, StateError, TrainingError
from dtsnn.kernels import (
    avg_pool2d,
    avg_pool2d_backward,
    batch_norm_backward,
    batch_norm_train_cached,
)
from dtsnn.network import (
    LayerSpec,
    LifConfig,
    NetworkSpec,
    Workspace,
    build_instance,
    forward_timestep,
    inference_params,
    pack,
    scan_timesteps,
    tape_plan,
)
from dtsnn.training import (
    TrainConfig,
    backward_through_time,
    commit_norm_updates,
    cosine_lr,
    evaluate_per_timestep,
    forward_with_tape,
    lif_unroll,
    lif_unroll_backward,
    loss_and_grad,
    loss_per_timestep,
    loss_standard,
    running_means,
    sgd_step,
    spike_ramp,
    surrogate_grad,
    train,
)

from conftest import INPUT_FORMS, input_form, mean_after
from oracles import cross_entropy_reference, finite_difference_grad, replicated_tape_grads
from test_network import PLAN_CASES

rng = np.random.default_rng(99)


def toy_spec(t_max=4, hw=6, channels=2, num_classes=3, norm=True):
    return NetworkSpec(
        input_shape=(1, hw, hw),
        num_classes=num_classes,
        t_max=t_max,
        layers=(
            LayerSpec("conv", out_channels=channels, kernel=3, stride=1, padding=1),
            *([LayerSpec("norm")] if norm else []),
            LayerSpec("lif"),
            LayerSpec("pool", window=2),
            LayerSpec("classifier"),
        ),
        lif=LifConfig(tau=0.5, v_th=1.0),
    )


class TestSurrogate:
    def test_peak_at_threshold(self):
        assert surrogate_grad(np.array(1.0), 1.0) == 1.0

    def test_zero_at_origin(self):
        assert surrogate_grad(np.array(0.0), 1.0) == 0.0

    def test_half_at_one_and_a_half(self):
        assert surrogate_grad(np.array(1.5), 1.0) == 0.5

    def test_support_is_zero_to_two_vth(self):
        u = np.linspace(-2, 4, 601)
        g = surrogate_grad(u, 1.0)
        assert (g[u <= 0] == 0).all() and (g[u >= 2] == 0).all()
        assert (g[(u > 0) & (u < 2)] > 0).all()

    def test_ramp_derivative_is_surrogate(self):
        u = rng.uniform(-1, 3, size=200)
        eps = 1e-6
        fd = (spike_ramp(u + eps, 1.0) - spike_ramp(u - eps, 1.0)) / (2 * eps)
        npt.assert_allclose(fd, surrogate_grad(u, 1.0), atol=1e-5)

    def test_ramp_range(self):
        u = np.linspace(-5, 5, 1001)
        r = spike_ramp(u, 1.0)
        assert r.min() == 0.0 and r.max() == 1.0


class TestLosses:
    def test_uniform_logits_is_log_k(self):
        logits = np.zeros((4, 10), dtype=np.float32)
        npt.assert_allclose(loss_standard(logits, np.zeros(4, int)), math.log(10), rtol=1e-7)

    def test_margin_drives_loss_to_zero(self):
        losses = []
        for margin in (1.0, 5.0, 20.0):
            logits = np.zeros((1, 4))
            logits[0, 2] = margin
            losses.append(loss_standard(logits, [2]))
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-6

    def test_random_case_matches_scalar_oracle(self):
        logits = rng.standard_normal((2, 4))
        labels = np.array([3, 1])
        expected = np.mean(
            [cross_entropy_reference(logits[i], labels[i]) for i in range(2)]
        )
        npt.assert_allclose(loss_standard(logits, labels), expected, atol=1e-6)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="labels"):
            loss_standard(np.zeros((2, 3)), [0, 3])

    def test_per_timestep_with_one_step_equals_standard(self):
        logits = rng.standard_normal((3, 5))
        labels = np.array([0, 4, 2])
        assert loss_per_timestep([logits], labels) == loss_standard(logits, labels)

    def test_per_timestep_constant_outputs(self):
        logits = rng.standard_normal((3, 5))
        labels = np.array([1, 2, 3])
        got = loss_per_timestep([logits, logits, logits], labels)
        npt.assert_allclose(got, loss_standard(logits, labels), rtol=1e-12)

    def test_per_timestep_two_steps_is_mean(self):
        a = rng.standard_normal((2, 4))
        b = rng.standard_normal((2, 4))
        labels = np.array([0, 3])
        expected = 0.5 * (loss_standard(a, labels) + loss_standard(b, labels))
        npt.assert_allclose(loss_per_timestep([a, b], labels), expected, atol=1e-6)

    def test_empty_list_raises(self):
        with pytest.raises(ValueError):
            loss_per_timestep([], np.array([0]))

    def test_losses_nonnegative(self):
        for _ in range(50):
            logits = rng.standard_normal((4, 6)) * rng.uniform(0.1, 10)
            labels = rng.integers(0, 6, size=4)
            assert loss_standard(logits, labels) >= 0.0
            steps = [rng.standard_normal((4, 6)) for _ in range(3)]
            assert loss_per_timestep(steps, labels) >= 0.0

    def test_running_means(self):
        steps = rng.standard_normal((3, 2, 4)).astype(np.float32)
        f = running_means(steps)
        npt.assert_allclose(f[0], steps[0], atol=1e-7)
        npt.assert_allclose(f[1], (steps[0] + steps[1]) / 2, atol=1e-7)
        npt.assert_allclose(f[2], steps.mean(axis=0), atol=1e-7)

    # Both losses are taken on running means: the last one, or every one.
    @pytest.mark.parametrize("mode", ["standard", "per_timestep"],
                             ids=["standard-running_mean", "per_timestep-running_mean"])
    def test_loss_grad_matches_finite_differences(self, mode):
        steps = rng.standard_normal((3, 2, 4))
        labels = np.array([1, 3])
        loss, dstep = loss_and_grad(steps, labels, mode)

        def f():
            return loss_and_grad(steps, labels, mode)[0]

        fd = finite_difference_grad(f, steps, eps=1e-6)
        npt.assert_allclose(dstep, fd, rtol=1e-5, atol=1e-9)


def stored_potentials(currents, cfg, smooth):
    """The (T, B, ...) potentials before each reset, step by step as the
    forward pass's `_lif_update` computes them: what a tape that stored
    them would keep."""
    u, kept = np.zeros_like(currents[0]), []
    keep, spike = np.empty(u.shape, bool), np.empty_like(u)
    for current in currents:
        kept.append(u * cfg.tau + current)
        network._lif_update(current, u, cfg, smooth, keep, spike)
    return np.stack(kept)


def stored_gradient(dspikes, u_pre, cfg, smooth, step_sum):
    """The LIF backward on stored potentials, with ``step_sum`` summed over
    T in step order (as the kernel does, zeros keeping their sign)."""
    d = np.empty_like(dspikes)
    training._lif_rows_backward(dspikes, u_pre, smooth, cfg, d)
    if not step_sum:
        return d
    total = d[0].copy()
    for step in d[1:]:
        total += step
    return total


def assert_bits_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    npt.assert_array_equal(got.view(f"u{got.itemsize}"), want.view(f"u{want.itemsize}"))


class TestLifBackward:
    def test_two_step_scalar_recurrence_by_hand(self):
        # Hand-derived chain for two timesteps of one neuron:
        #   u1 = i1;  s1 = H(u1);  u1' = u1 * (1 - s1)
        #   u2 = tau * u1' + i2;  s2 = H(u2)
        # With upstream gradients (g1, g2) on (s1, s2):
        #   di2 = g2 * sg(u2)
        #   di1 = g1 * sg(u1) + tau * di2 * (1 - s1)
        cfg = LifConfig(tau=0.5, v_th=1.0)
        i1, i2 = 1.3, 0.4
        currents = np.array([[[i1]], [[i2]]])
        spikes, cache = lif_unroll(currents, cfg)
        u1 = i1
        s1 = 1.0 if u1 > 1.0 else 0.0
        u2 = 0.5 * u1 * (1 - s1) + i2
        npt.assert_allclose(spikes[:, 0, 0], [s1, 1.0 if u2 > 1 else 0.0])
        g1, g2 = 0.7, -1.1
        d = lif_unroll_backward(np.array([[[g1]], [[g2]]]), cache, cfg)
        sg = lambda u: max(0.0, 1.0 - abs(u - 1.0))
        di2 = g2 * sg(u2)
        di1 = g1 * sg(u1) + 0.5 * di2 * (1 - s1)
        npt.assert_allclose(d[:, 0, 0], [di1, di2], rtol=1e-12)

    @pytest.mark.parametrize("block_bytes", [1, 700, kernels.BLOCK_BYTES])
    @pytest.mark.parametrize("t_steps", [1, 4])
    def test_in_place_and_step_sum_equal_the_plain_backward(self, t_steps, block_bytes,
                                                            monkeypatch):
        # backward_through_time writes over the gradient it receives and sums
        # the first LIF layer's result over T inside the blocks; both must
        # keep every bit of a new array and its sum(axis=0).
        monkeypatch.setattr(kernels, "BLOCK_BYTES", block_bytes)
        data = np.random.default_rng(t_steps)
        currents = (data.standard_normal((t_steps, 7, 6, 6, 4)) * 1.5).astype(np.float32)
        currents = currents.transpose(0, 1, 4, 2, 3)  # channels-last (T, B, C, H, W)
        dspikes = data.standard_normal(currents.shape).astype(np.float32)
        cfg = LifConfig(tau=0.5, v_th=1.0)
        _, cache = lif_unroll(currents, cfg)
        plain = lif_unroll_backward(dspikes, cache, cfg)
        overwritten = dspikes.copy()
        npt.assert_array_equal(lif_unroll_backward(overwritten, cache, cfg, out=overwritten),
                               plain)
        npt.assert_array_equal(overwritten, plain)
        overwritten = dspikes.copy()
        total = lif_unroll_backward(overwritten, cache, cfg, out=overwritten,
                                    step_sum=np.empty_like(dspikes[0]))
        npt.assert_array_equal(total, plain.sum(axis=0))

    @pytest.mark.parametrize("block_bytes", [1, 700, kernels.BLOCK_BYTES])
    @pytest.mark.parametrize("step_sum", [False, True])
    @pytest.mark.parametrize("smooth", [False, True], ids=["strict", "smooth"])
    def test_the_potentials_give_the_spikes_reset_multiplier(self, smooth, step_sum,
                                                             block_bytes, monkeypatch):
        # The tape keeps no spikes: the backward pass takes the reset
        # multiplier from the potentials, and it must be 1 - s of the spikes
        # the forward pass wrote, as bool or as floats, bit for bit.
        monkeypatch.setattr(kernels, "BLOCK_BYTES", block_bytes)
        data = np.random.default_rng(11)
        currents = (data.standard_normal((4, 7, 6, 6, 4)) * 1.5).astype(np.float32)
        currents = currents.transpose(0, 1, 4, 2, 3)  # channels-last (T, B, C, H, W)
        dspikes = data.standard_normal(currents.shape).astype(np.float32)
        cfg = LifConfig(tau=0.5, v_th=1.0)
        spikes, cache = lif_unroll(currents, cfg, smooth)
        assert 0 < spikes.mean() < 1 and cache[1] is None and cache[2] is smooth
        u_pre = network._lif_potentials(cache[0], cache[1], cfg, smooth,
                                        np.empty(currents.size, currents.dtype))
        total = np.empty_like(dspikes[0]) if step_sum else None
        got = lif_unroll_backward(dspikes, cache, cfg, step_sum=total)
        for s in [spikes] if smooth else [spikes, spikes.astype(bool)]:
            want = np.empty_like(dspikes)  # step by step, in lif_unroll_backward's order
            for t in reversed(range(len(want))):
                np.multiply(surrogate_grad(u_pre[t], cfg.v_th), dspikes[t], out=want[t])
                if t + 1 < len(want):
                    carry = want[t + 1] * cfg.tau
                    carry *= 1.0 - s[t]
                    want[t] += carry
            npt.assert_array_equal(got, want.sum(axis=0) if step_sum else want)

    @pytest.mark.parametrize("block_bytes", [1, 700, kernels.BLOCK_BYTES])
    @pytest.mark.parametrize("step_sum", [False, True])
    @pytest.mark.parametrize("t_steps", [1, 4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("smooth", [False, True], ids=["strict", "smooth"])
    def test_kept_currents_give_the_kept_potentials_gradient(self, smooth, dtype, t_steps,
                                                             step_sum, block_bytes, monkeypatch):
        # A LIF layer not after a norm keeps its currents: the stem's B rows
        # that stand for every step, or (T, B) currents, from which every
        # block of the backward pass recomputes the potentials.  The
        # gradient is the one of the stored potentials, bit for bit.
        monkeypatch.setattr(kernels, "BLOCK_BYTES", block_bytes)
        data = np.random.default_rng(t_steps)
        rows = (data.standard_normal((7, 6, 6, 4)) * 1.5).astype(dtype)
        rows = rows.transpose(0, 3, 1, 2)  # channels-last (B, C, H, W)
        dspikes = data.standard_normal((t_steps, 7, 6, 6, 4)).astype(dtype)
        dspikes = dspikes.transpose(0, 1, 4, 2, 3)
        cfg = LifConfig(tau=0.5, v_th=1.0)
        steps = np.broadcast_to(rows, (t_steps,) + rows.shape)
        spikes, kept = lif_unroll(steps, cfg, smooth)
        want_spikes, currents = lif_unroll(steps.copy(), cfg, smooth)
        assert kept[0].shape == rows.shape and np.shares_memory(kept[0], rows)
        assert currents[0].shape == steps.shape and kept[1] is currents[1] is None
        assert kept[2] is currents[2] is smooth
        assert 0 < spikes.mean() < 1
        npt.assert_array_equal(spikes, want_spikes)
        want = stored_gradient(dspikes, stored_potentials(steps, cfg, smooth), cfg, smooth,
                               step_sum)

        def backward(cache):
            total = np.empty_like(dspikes[0]) if step_sum else None
            return lif_unroll_backward(dspikes, cache, cfg, step_sum=total)

        assert_bits_equal(backward(kept), want)
        assert_bits_equal(backward(currents), want)

    @pytest.mark.parametrize("block_bytes", [1, 700, kernels.BLOCK_BYTES])
    @pytest.mark.parametrize("step_sum", [False, True])
    @pytest.mark.parametrize("t_steps", [1, 4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("smooth", [False, True], ids=["strict", "smooth"])
    @pytest.mark.parametrize("stem", [True, False], ids=["stem", "later"])
    def test_rebuilt_currents_give_the_kept_potentials_gradient(self, stem, smooth, dtype,
                                                                t_steps, step_sum, block_bytes,
                                                                monkeypatch):
        # A LIF layer after a train-mode norm keeps no currents: its cache
        # holds the norm's xhat (B rows in the stem, T x B rows later), from
        # which every block of the backward pass rebuilds them by the norm's
        # formula, xhat * gamma + beta, then recomputes the potentials.  The
        # gradient is the one of the stored potentials, bit for bit.
        monkeypatch.setattr(kernels, "BLOCK_BYTES", block_bytes)
        data = np.random.default_rng(t_steps)
        x = data.standard_normal((7 if stem else 7 * t_steps, 6, 6, 4)) * 1.5 + 0.3
        x = x.astype(dtype).transpose(0, 3, 1, 2)  # channels-last (N, C, H, W)
        norm = {"gamma": (1 + 0.5 * data.standard_normal(4)).astype(dtype),
                "beta": (0.5 * data.standard_normal(4)).astype(dtype),
                "running_mean": np.zeros(4, dtype), "running_var": np.ones(4, dtype)}
        y, _, (xhat, _, gamma, view) = batch_norm_train_cached(x, norm, t_steps if stem else 1)
        steps = np.broadcast_to(y, (t_steps,) + y.shape) if stem else \
            y.reshape((t_steps, 7) + y.shape[1:])
        dspikes = data.standard_normal((t_steps, 7, 6, 6, 4)).astype(dtype)
        dspikes = dspikes.transpose(0, 1, 4, 2, 3)
        cfg = LifConfig(tau=0.5, v_th=1.0)
        spikes, cache = lif_unroll(steps, cfg, smooth, norm=(
            xhat, gamma.reshape(view), norm["beta"].reshape(view)))
        kept, (kept_gamma, kept_beta), kept_smooth = cache
        assert kept.shape == (steps.shape[1:] if stem else steps.shape) and kept_smooth is smooth
        assert np.shares_memory(kept, xhat) and not np.shares_memory(kept, y)
        for got, vector in ((kept_gamma, gamma), (kept_beta, norm["beta"])):  # over one sample
            npt.assert_array_equal(got, np.broadcast_to(vector.reshape(view)[0], x.shape[1:]))
        assert 0 < spikes.mean() < 1
        npt.assert_array_equal(spikes, lif_unroll(steps.copy(), cfg, smooth)[0])
        total = np.empty_like(dspikes[0]) if step_sum else None
        got = lif_unroll_backward(dspikes, cache, cfg, step_sum=total)
        assert_bits_equal(got, stored_gradient(dspikes, stored_potentials(steps, cfg, smooth),
                                               cfg, smooth, step_sum))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("block_bytes", [1, 700, kernels.BLOCK_BYTES])
    @pytest.mark.parametrize("window", [2, 3])
    @pytest.mark.parametrize("t_steps", [1, 4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("smooth", [False, True], ids=["strict", "smooth"])
    @pytest.mark.parametrize("rebuilt", [True, False], ids=["after_norm", "currents"])
    def test_the_first_lif_spreads_its_pools_gradient_as_the_pool_backward_does(
            self, rebuilt, smooth, dtype, t_steps, window, block_bytes, workers, monkeypatch):
        # The first LIF layer before a pool takes the pool's input gradient
        # and its window: each block spreads its rows into its own scratch.
        # The T-summed gradient is that of avg_pool2d_backward followed by
        # the backward on the spread gradient, bit for bit.
        monkeypatch.setattr(kernels, "BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(kernels, "_scan_workers", lambda: workers)
        data = np.random.default_rng(t_steps * window)
        x = data.standard_normal((7, 6, 6, 4)) * 1.5 + 0.3
        x = x.astype(dtype).transpose(0, 3, 1, 2)  # channels-last (B, C, H, W)
        cfg = LifConfig(tau=0.5, v_th=1.0)
        if rebuilt:
            norm = {"gamma": (1 + 0.5 * data.standard_normal(4)).astype(dtype),
                    "beta": (0.5 * data.standard_normal(4)).astype(dtype),
                    "running_mean": np.zeros(4, dtype), "running_var": np.ones(4, dtype)}
            y, _, (xhat, _, gamma, view) = batch_norm_train_cached(x, norm, t_steps)
            steps = np.broadcast_to(y, (t_steps,) + y.shape)
            _, cache = lif_unroll(steps, cfg, smooth,
                                  norm=(xhat, gamma.reshape(view), norm["beta"].reshape(view)))
        else:
            _, cache = lif_unroll(np.broadcast_to(x, (t_steps,) + x.shape), cfg, smooth)
        pooled = data.standard_normal((t_steps * 7, 6 // window, 6 // window, 4)).astype(dtype)
        pooled = pooled.transpose(0, 3, 1, 2)  # the next conv's channels-last input gradient
        spread = avg_pool2d_backward(pooled, window)
        want = lif_unroll_backward(spread.reshape((t_steps, 7) + spread.shape[1:]), cache, cfg,
                                   step_sum=np.empty_like(x))
        got = lif_unroll_backward(pooled.reshape((t_steps, 7) + pooled.shape[1:]), cache, cfg,
                                  step_sum=np.empty_like(x), window=window)
        assert_bits_equal(got, want)

    def test_a_spread_gradient_needs_the_step_sum(self):
        cfg = LifConfig(tau=0.5, v_th=1.0)
        _, cache = lif_unroll(np.ones((2, 3, 1, 4, 4)), cfg)
        with pytest.raises(ValueError, match="needs step_sum"):
            lif_unroll_backward(np.ones((2, 3, 1, 2, 2)), cache, cfg, window=2)

    @pytest.mark.parametrize("smooth", [False, True], ids=["strict", "smooth"])
    def test_the_backward_pass_runs_no_lif_update(self, smooth, monkeypatch):
        # Its recompute writes the potentials and nothing else: no spikes
        # and no reset after the last step, which nothing reads.
        net = build_instance(stem_specs()["mnist"], seed=1)
        net.smooth_spikes = smooth
        x = np.random.default_rng(3).standard_normal((4,) + net.spec.input_shape)
        logits, tape = forward_with_tape(net, x.astype(np.float32), 3)
        calls, update = [], network._lif_update
        monkeypatch.setattr(network, "_lif_update", lambda *a: calls.append(1) or update(*a))
        backward_through_time(net, tape, np.ones_like(logits))
        assert calls == []

    def test_smooth_mode_matches_finite_differences(self):
        cfg = LifConfig(tau=0.7, v_th=1.0)
        currents = rng.uniform(0.1, 0.9, size=(1, 4))  # single step: reset unused
        proj = rng.standard_normal((1, 4))

        def f():
            s, _ = lif_unroll(currents, cfg, smooth=True)
            return float((s * proj).sum())

        _, cache = lif_unroll(currents, cfg, smooth=True)
        d = lif_unroll_backward(proj, cache, cfg)
        fd = finite_difference_grad(f, currents, eps=1e-6)
        npt.assert_allclose(d, fd, rtol=1e-4, atol=1e-9)


class TestGradientChecks:
    def make_net(self, seed=3, smooth=False):
        spec = toy_spec()
        net = build_instance(spec, seed=seed, dtype=np.float64)
        net.smooth_spikes = smooth
        return net

    @staticmethod
    def rel_err(a, b):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
        return np.abs(a - b) / denom

    def test_classifier_gradients_vs_finite_differences(self):
        # Spikes do not depend on classifier weights, so central differences
        # of the true (hard-threshold) loss are valid here.
        net = self.make_net(seed=3)
        x = rng.standard_normal((4, 1, 6, 6)) * 1.5
        labels = np.array([0, 1, 2, 1])
        t_steps = 3

        def f():
            step_logits, _ = forward_with_tape(net, x, t_steps)
            return loss_and_grad(step_logits, labels, "per_timestep")[0]

        step_logits, tape = forward_with_tape(net, x, t_steps)
        _, dstep = loss_and_grad(step_logits, labels, "per_timestep")
        grads = backward_through_time(net, tape, dstep)
        ci = len(net.spec.layers) - 1
        for name in ("w", "b"):
            fd = finite_difference_grad(f, net.params[ci][name], eps=1e-5)
            assert self.rel_err(grads[ci][name], fd).max() < 1e-3

    def test_conv_gradients_single_timestep_smooth(self):
        # One timestep and the C1 firing ramp make the whole forward pass
        # differentiable, validating the conv/norm backward plumbing against
        # finite differences of the loss.
        net = self.make_net(seed=5, smooth=True)
        x = rng.standard_normal((3, 1, 6, 6)) * 1.2
        labels = np.array([2, 0, 1])

        step_logits, tape = forward_with_tape(net, x, 1)
        # No pre-activation may sit on a kink of the ramp (0, v_th, 2*v_th),
        # otherwise central differences degrade there.  The stem LIF keeps
        # its currents, which at one timestep are its potentials.
        u_pre = tape["caches"][2][2][0]
        dist = np.min(
            np.abs(u_pre[..., None] - np.array([0.0, 1.0, 2.0])), axis=-1
        )
        assert dist.min() > 1e-3

        def f():
            logits, _ = forward_with_tape(net, x, 1)
            return loss_and_grad(logits, labels, "standard")[0]

        _, dstep = loss_and_grad(step_logits, labels, "standard")
        grads = backward_through_time(net, tape, dstep)
        for layer_idx, name in [(0, "w"), (1, "gamma"), (1, "beta")]:
            fd = finite_difference_grad(
                f,
                net.params[layer_idx][name]
                if isinstance(net.params[layer_idx], dict)
                else getattr(net.params[layer_idx], name),
                eps=1e-5,
            )
            assert self.rel_err(grads[layer_idx][name], fd).max() < 1e-3

    def test_gradient_shapes_mirror_weights(self):
        net = self.make_net(seed=1)
        x = rng.standard_normal((2, 1, 6, 6))
        labels = np.array([0, 2])
        step_logits, tape = forward_with_tape(net, x, 2)
        _, dstep = loss_and_grad(step_logits, labels, "per_timestep")
        grads = backward_through_time(net, tape, dstep)
        for i, p in enumerate(net.params):
            if p is not None and "w" in p:
                for name, arr in p.items():
                    assert grads[i][name].shape == arr.shape
            elif p is not None and i in grads:
                assert grads[i]["gamma"].shape == p["gamma"].shape
                assert grads[i]["beta"].shape == p["beta"].shape

    def test_saturated_predictions_give_zero_gradients(self):
        net = self.make_net(seed=2)
        ci = len(net.spec.layers) - 1
        net.params[ci]["b"][0] = 60.0  # force class-0 probability to ~1
        x = rng.standard_normal((4, 1, 6, 6))
        labels = np.zeros(4, dtype=int)
        step_logits, tape = forward_with_tape(net, x, 2)
        loss, dstep = loss_and_grad(step_logits, labels, "per_timestep")
        grads = backward_through_time(net, tape, dstep)
        assert loss < 1e-6
        for layer_grads in grads.values():
            for g in layer_grads.values():
                assert np.max(np.abs(g)) < 1e-6


class TestSchedule:
    def test_cosine_endpoints_exact(self):
        assert abs(cosine_lr(0.1, 0, 30) - 0.1) < 1e-9
        assert abs(cosine_lr(0.1, 30, 30) - 0.0) < 1e-9
        assert abs(cosine_lr(0.1, 15, 30) - 0.05) < 1e-9

    def test_monotone_decay(self):
        vals = [cosine_lr(0.1, e, 40) for e in range(41)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def separable_blobs(n_per_class, hw=8, seed=0):
    """Two trivially separable image classes: bright patch top-left vs bottom-right."""
    r = np.random.default_rng(seed)
    images, labels = [], []
    for label in (0, 1):
        for _ in range(n_per_class):
            img = r.normal(0.0, 0.05, size=(1, hw, hw))
            if label == 0:
                img[0, 1:4, 1:4] += 1.5
            else:
                img[0, 4:7, 4:7] += 1.5
            images.append(img)
            labels.append(label)
    order = r.permutation(len(images))
    return (
        np.asarray(images, dtype=np.float32)[order],
        np.asarray(labels, dtype=np.int64)[order],
    )


class TestTrainLoop:
    def small_spec(self):
        return NetworkSpec(
            input_shape=(1, 8, 8),
            num_classes=2,
            t_max=4,
            layers=(
                LayerSpec("conv", out_channels=4, kernel=3, stride=1, padding=1),
                LayerSpec("norm"),
                LayerSpec("lif"),
                LayerSpec("pool", window=2),
                LayerSpec("classifier"),
            ),
        )

    def test_separable_blobs_reach_99_percent(self):
        images, labels = separable_blobs(64)
        net = build_instance(self.small_spec(), seed=0)
        cfg = TrainConfig(epochs=12, batch_size=32, lr0=0.05, t_train=2, seed=0)
        train(net, images, labels, images, labels, cfg)
        acc = evaluate_per_timestep(net, images, labels, 2)
        assert acc[-1] >= 0.99

    def test_evaluate_rejects_zero_timesteps(self):
        images, labels = separable_blobs(4)
        net = build_instance(self.small_spec(), seed=0)
        with pytest.raises(ValueError, match="t_steps must be in"):
            evaluate_per_timestep(net, images, labels, 0)

    def test_same_seed_identical_weights(self):
        images, labels = separable_blobs(16)
        final = []
        for _ in range(2):
            net = build_instance(self.small_spec(), seed=7)
            cfg = TrainConfig(epochs=2, batch_size=16, lr0=0.05, t_train=2, seed=11)
            train(net, images, labels, images, labels, cfg)
            final.append([p["w"].copy() for p in net.params if p is not None and "w" in p])
        for a, b in zip(final[0], final[1]):
            npt.assert_array_equal(a, b)

    def test_log_schema(self):
        images, labels = separable_blobs(8)
        net = build_instance(self.small_spec(), seed=0)
        cfg = TrainConfig(epochs=2, batch_size=8, lr0=0.05, t_train=2, seed=0)
        log = train(net, images, labels, images, labels, cfg)
        rows = log.csv_rows()
        assert rows[0] == ["epoch", "lr", "train_loss", "eval_acc_t1", "eval_acc_t2", "batch_hash"]
        assert len(rows) == 3
        assert rows[1][0] == 0 and rows[2][0] == 1

    def test_divergence_raises_training_error(self):
        images, labels = separable_blobs(16)
        net = build_instance(self.small_spec(), seed=0)
        cfg = TrainConfig(epochs=3, batch_size=16, lr0=1e9, t_train=2, seed=0)
        with pytest.raises((TrainingError, FloatingPointError)):
            with np.errstate(over="raise", invalid="raise"):
                train(net, images, labels, images, labels, cfg)

    def test_divergence_raises_training_error_without_errstate(self):
        # At this rate the loss stays finite while a running variance
        # overflows; the parameter check catches it.
        images, labels = separable_blobs(16)
        net = build_instance(self.small_spec(), seed=0)
        cfg = TrainConfig(epochs=3, batch_size=16, lr0=1e9, t_train=2, seed=0)
        with pytest.raises(TrainingError, match="non-finite"):
            train(net, images, labels, images, labels, cfg)

    def test_non_finite_input_rejected(self):
        images, labels = separable_blobs(8)
        images[3, 0, 2, 2] = np.nan
        net = build_instance(self.small_spec(), seed=0)
        cfg = TrainConfig(epochs=1, batch_size=16, t_train=2, seed=0)
        with pytest.raises(DataFormatError, match="1 non-finite"):
            train(net, images, labels, images, labels, cfg)

    def test_evaluate_rejects_empty_batch(self):
        net = build_instance(self.small_spec(), seed=0)
        with pytest.raises(ValueError, match="requires a non-empty batch"):
            evaluate_per_timestep(net, np.zeros((0, 1, 8, 8), np.float32), np.zeros(0, int), 2)

    def test_evaluate_counts_no_activity_and_restores_the_flag(self, monkeypatch):
        images, labels = separable_blobs(8)
        net = build_instance(self.small_spec(), seed=0)
        net.record_activity = True
        want = evaluate_per_timestep(build_instance(self.small_spec(), seed=0), images, labels, 2)
        counted, count = [], network._count_inputs
        monkeypatch.setattr(network, "_count_inputs", lambda *a, **k: counted.append(1) or count(*a, **k))
        npt.assert_array_equal(evaluate_per_timestep(net, images, labels, 2), want)
        assert counted == [] and net.record_activity
        with pytest.raises(ValueError, match="requires a non-empty batch"):
            evaluate_per_timestep(net, images[:0], labels[:0], 2)
        assert net.record_activity
        forward_timestep(net, images)  # the flag still counts outside the eval scan
        assert counted

    def test_training_a_clone_leaves_the_source_untouched(self):
        images, labels = separable_blobs(16)
        source, twin = (build_instance(self.small_spec(), seed=5) for _ in range(2))
        forward_timestep(source, images)  # builds the inference plan the clone shares
        clone = source.clone_state()
        assert inference_params(clone) is inference_params(source)
        cfg = TrainConfig(epochs=1, batch_size=8, lr0=0.05, t_train=2, seed=0)
        train(clone, images, labels, images, labels, cfg)
        assert any(not np.array_equal(p["w"], q["w"])
                   for p, q in zip(clone.params, source.params) if p is not None and "w" in p)
        for p, q in zip(source.params, twin.params, strict=True):
            assert (p is None) == (q is None)
            for name in p or {}:
                npt.assert_array_equal(p[name], q[name])

    @pytest.mark.parametrize("empty", ["training", "evaluation"])
    def test_empty_split_rejected_before_the_first_epoch(self, empty, monkeypatch):
        images, labels = separable_blobs(8)
        none = (images[:0], labels[:0])
        splits = (none + (images, labels)) if empty == "training" else ((images, labels) + none)
        net = build_instance(self.small_spec(), seed=0)
        steps = []
        monkeypatch.setattr(training, "forward_with_tape", lambda *a, **kw: steps.append(a))
        cfg = TrainConfig(epochs=1, batch_size=8, t_train=2, seed=0)
        with pytest.raises(ValueError, match=f"non-empty {empty} split"):
            train(net, *splits, cfg)
        assert steps == []

    def test_t_train_cannot_exceed_t_max(self):
        images, labels = separable_blobs(8)
        net = build_instance(self.small_spec(), seed=0)
        cfg = TrainConfig(epochs=1, batch_size=8, t_train=5, seed=0)
        with pytest.raises(ValueError, match="t_max"):
            train(net, images, labels, images, labels, cfg)

    @pytest.mark.parametrize("form", INPUT_FORMS)
    def test_evaluate_takes_an_array_of_real_numbers(self, form):
        images, labels = separable_blobs(8)
        net = build_instance(self.small_spec(), seed=0)
        given = input_form(images, form)
        if form != "list":
            with pytest.raises(DataFormatError):
                evaluate_per_timestep(net, given, labels.tolist(), 2)
            return
        npt.assert_array_equal(evaluate_per_timestep(net, given, labels.tolist(), 2),
                               evaluate_per_timestep(net, np.asarray(given), labels, 2))

    @pytest.mark.parametrize("split", ["training", "evaluation"])
    @pytest.mark.parametrize("form", INPUT_FORMS)
    def test_train_takes_splits_of_real_numbers(self, split, form, monkeypatch):
        images, labels = separable_blobs(8)
        given = (input_form(images, form), labels.tolist())
        as_array = (np.asarray(images.tolist()), labels)
        splits = given + as_array if split == "training" else as_array + given
        cfg = TrainConfig(epochs=1, batch_size=8, lr0=0.05, t_train=2, seed=0)
        net = build_instance(self.small_spec(), seed=0)
        if form != "list":
            steps = []
            monkeypatch.setattr(training, "forward_with_tape", lambda *a, **kw: steps.append(a))
            with pytest.raises(DataFormatError):
                train(net, *splits, cfg)
            assert steps == []  # both splits are checked before the first step
            return
        ref = build_instance(self.small_spec(), seed=0)
        got, want = train(net, *splits, cfg), train(ref, *as_array, *as_array, cfg)
        assert got.csv_rows() == want.csv_rows()
        for p, q in zip(net.params, ref.params, strict=True):
            for name in p or {}:
                npt.assert_array_equal(p[name], q[name])


class TestStackedForwardAgainstStepwise:
    # The layer-major stacked unroll and the per-timestep stateful path are
    # independent routes to the same T-step mean output.  The spec has no
    # norm layer: the tape's norms use batch statistics, inference's the
    # running ones.

    def test_mean_logits_agree_between_implementations(self):
        net = build_instance(toy_spec(t_max=4, norm=False), seed=21)
        x = rng.standard_normal((5, 1, 6, 6)).astype(np.float32)
        stacked, _ = forward_with_tape(net, x, 4)
        npt.assert_allclose(stacked.mean(axis=0), mean_after(net, x, 4), atol=1e-5)

    def test_smooth_firing_agrees_between_implementations(self):
        net = build_instance(toy_spec(t_max=4, norm=False), seed=21, dtype=np.float64)
        net.smooth_spikes = True
        x = rng.standard_normal((5, 1, 6, 6))
        stacked, _ = forward_with_tape(net, x, 4)
        npt.assert_allclose(stacked.mean(axis=0), mean_after(net, x, 4), rtol=1e-12)

    def test_tape_leaves_inference_state_alone(self):
        net, ref = (build_instance(toy_spec(t_max=4), seed=21) for _ in range(2))
        x = rng.standard_normal((5, 1, 6, 6)).astype(np.float32)
        for n in (net, ref):
            for _ in range(2):
                forward_timestep(n, x)
        before = (net.t, net.stem, {i: s.u for i, s in net.lif_states.items()})
        forward_with_tape(net, x, 3)
        assert net.t == before[0] and net.stem is before[1]
        assert net.lif_states.keys() == before[2].keys()
        for i, u in before[2].items():
            assert net.lif_states[i].u is u
        npt.assert_array_equal(forward_timestep(net, x), forward_timestep(ref, x))


def stem_specs():
    """The mnist.yaml model, a stem of conv -> norm -> pool, an empty stem,
    and layers fed by a LIF layer."""
    mnist = parse_config(Path(__file__).resolve().parents[1] / "configs" / "mnist.yaml")
    stem_pool = NetworkSpec(
        input_shape=(2, 8, 8),
        num_classes=3,
        t_max=4,
        layers=(
            LayerSpec("conv", out_channels=4, kernel=3, stride=1, padding=1, bias=True),
            LayerSpec("norm"),
            LayerSpec("pool", window=2),
            LayerSpec("lif"),
            LayerSpec("conv", out_channels=5, kernel=3, stride=2, padding=1),
            LayerSpec("norm"),
            LayerSpec("lif"),
            LayerSpec("pool", window=2),
            LayerSpec("classifier"),
        ),
    )
    lif_first = NetworkSpec(
        input_shape=(2, 6, 6),
        num_classes=3,
        t_max=4,
        layers=(
            LayerSpec("lif"),
            LayerSpec("conv", out_channels=3, kernel=3, stride=1, padding=1, bias=True),
            LayerSpec("norm"),
            LayerSpec("lif"),
            LayerSpec("pool", window=2),
            LayerSpec("classifier"),
        ),
        lif=LifConfig(tau=0.5, v_th=0.5),
    )
    # A norm and a LIF layer right after a LIF layer: their input is spikes
    # that no tape entry holds, which they write their xhat and potentials
    # over.
    after_lif = NetworkSpec(
        input_shape=(2, 6, 6),
        num_classes=3,
        t_max=4,
        layers=(
            LayerSpec("conv", out_channels=3, kernel=3, stride=1, padding=1),
            LayerSpec("norm"),
            LayerSpec("lif"),
            LayerSpec("norm"),
            LayerSpec("lif", v_th=1.2),  # fires on fewer inputs than the first
            LayerSpec("lif", v_th=1.5),
            LayerSpec("pool", window=2),
            LayerSpec("classifier"),
        ),
        lif=LifConfig(tau=0.5, v_th=0.5),
    )
    return {"mnist": mnist.network, "stem_pool": stem_pool, "lif_first": lif_first,
            "after_lif": after_lif}


class TestStemRouteAgainstReplicatedOracle:
    # forward_with_tape runs the stem on B rows and backward_through_time sums
    # over T at the first LIF; the oracle replicates every layer over T*B rows.
    @pytest.mark.parametrize("name", ["mnist", "stem_pool", "lif_first", "after_lif"])
    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-4)])
    def test_logits_grads_and_running_stats_match(self, name, dtype, rtol):
        spec = stem_specs()[name]
        t_steps, batch = 3, 8
        net = build_instance(spec, seed=17, dtype=dtype)
        r = np.random.default_rng(5)
        x = (r.standard_normal((batch,) + spec.input_shape) * 1.5).astype(dtype)

        step_logits, tape = forward_with_tape(net, x, t_steps)
        dstep = r.standard_normal(step_logits.shape).astype(dtype)
        grads = backward_through_time(net, tape, dstep)
        ref_logits, ref_grads, ref_norms = replicated_tape_grads(net, x, t_steps, dstep)

        def close(actual, expected, scale=None):
            # Elements that are zero in exact arithmetic (a conv bias feeding
            # a norm) hold rounding noise, so the absolute tolerance is taken
            # relative to the largest gradient of the same layer.
            scale = np.abs(expected).max() if scale is None else scale
            npt.assert_allclose(actual, expected, rtol=rtol, atol=rtol * scale)

        close(step_logits, ref_logits)
        assert grads.keys() == ref_grads.keys()
        for i, ref in ref_grads.items():
            assert grads[i].keys() == ref.keys()
            scale = max(np.abs(g).max() for g in ref.values())
            for param, g in ref.items():
                close(grads[i][param], g, scale)
        assert tape["norm_updates"].keys() == ref_norms.keys()
        for i, ref in ref_norms.items():
            close(tape["norm_updates"][i]["running_mean"], ref["running_mean"])
            close(tape["norm_updates"][i]["running_var"], ref["running_var"])


def row_parallel_spec():
    """Two conv blocks (the second on the T*B stacked rows), a 2-d norm and a
    2-d LIF layer: every kernel that splits its rows into blocks."""
    return NetworkSpec(
        input_shape=(1, 8, 8),
        num_classes=3,
        t_max=4,
        layers=(
            LayerSpec("conv", out_channels=4, kernel=3, stride=1, padding=1),
            LayerSpec("norm"),
            LayerSpec("lif"),
            LayerSpec("pool", window=2),
            LayerSpec("conv", out_channels=6, kernel=3, stride=1, padding=1),
            LayerSpec("norm"),
            LayerSpec("lif"),
            LayerSpec("pool", window=2),
            LayerSpec("fc", out_features=10),
            LayerSpec("norm"),
            LayerSpec("lif"),
            LayerSpec("classifier"),
        ),
    )


def training_steps(batches, t_steps, dtype, smooth, loss_mode, seed, workspace=None):
    """One forward_with_tape -> loss_and_grad -> backward_through_time ->
    commit_norm_updates -> sgd_step per batch size, on one fresh instance,
    the tapes drawn from ``workspace``; returns copies of what each step
    produced."""
    net = build_instance(row_parallel_spec(), seed=seed, dtype=dtype)
    net.smooth_spikes = smooth
    data = np.random.default_rng(seed)
    velocities, steps = {}, []
    for batch in batches:
        x = (data.standard_normal((batch, 1, 8, 8)) * 1.5).astype(dtype)
        labels = data.integers(0, 3, size=batch)
        step_logits, tape = forward_with_tape(net, x, t_steps, workspace=workspace)
        # copied before the backward pass writes its input gradients over them
        lif_caches = copy.deepcopy([cache[2] for cache in tape["caches"] if cache[0] == "lif"])
        conv_inputs = copy.deepcopy([cache[2:] for cache in tape["caches"] if cache[0] == "conv"])
        loss, dstep = loss_and_grad(step_logits, labels, loss_mode)
        grads = backward_through_time(net, tape, dstep)
        commit_norm_updates(net, tape)
        norms = {i: net.params[i] for i in tape["norm_updates"]}
        steps.append(copy.deepcopy((loss, step_logits, grads, norms, lif_caches, conv_inputs)))
        sgd_step(net, grads, velocities, lr=0.1, momentum=0.9, weight_decay=5e-4)
    return steps


def assert_steps_equal(got, want):
    assert got[0] == want[0]
    npt.assert_array_equal(got[1], want[1])
    assert got[2].keys() == want[2].keys()
    for i in want[2]:
        for name in want[2][i]:
            npt.assert_array_equal(got[2][i][name], want[2][i][name])
    assert got[3].keys() == want[3].keys()
    for i in want[3]:
        for name in want[3][i]:
            npt.assert_array_equal(got[3][i][name], want[3][i][name])
    for (kept, affine, smooth), (ref_kept, ref_affine, ref_smooth) in zip(got[4], want[4],
                                                                          strict=True):
        npt.assert_array_equal(kept, ref_kept)
        assert (affine is None) == (ref_affine is None)
        for a, b in zip(affine or (), ref_affine or (), strict=True):
            npt.assert_array_equal(a, b)
        assert smooth is ref_smooth
    # each conv's kept input: a pool's window sums (bytes for strict spikes)
    # and (window, the means' dtype), or its input and None
    for (x, pooled), (ref_x, ref_pooled) in zip(got[5], want[5], strict=True):
        assert x.dtype == ref_x.dtype and pooled == ref_pooled
        npt.assert_array_equal(x, ref_x)


class TestRowParallelStep:
    """A training step splits its kernels' rows into blocks across workers;
    the result does not depend on the worker count, nor on whether its
    arrays are new or a workspace's, overwritten from the step before."""

    # Per sample the first conv unfolds 2.3 KB and its LIF layer holds 1 KB
    # (float32): budgets from one row per block to one block per batch.  The
    # second step's batch may be smaller: it takes a prefix of the buffers.
    @settings(max_examples=30, deadline=None)
    @given(batch=st.integers(1, 13), batch2=st.integers(1, 13), t_steps=st.integers(1, 4),
           block_bytes=st.sampled_from([1, 700, 2500, 5000, kernels.BLOCK_BYTES]),
           dtype=st.sampled_from([np.float32, np.float64]), smooth=st.booleans(),
           loss_mode=st.sampled_from(["standard", "per_timestep"]))
    def test_step_is_bit_identical_for_any_worker_count(self, batch, batch2, t_steps,
                                                        block_bytes, dtype, smooth, loss_mode):
        runs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "BLOCK_BYTES", block_bytes)
            for workers in (1, 2, 3):
                mp.setattr(kernels, "_scan_workers", lambda: workers)
                for workspace in (None, Workspace()):
                    runs.append(training_steps((batch, batch2), t_steps, dtype, smooth,
                                               loss_mode, seed=5, workspace=workspace))
        for got in runs[1:]:
            for got_step, want_step in zip(got, runs[0], strict=True):
                assert_steps_equal(got_step, want_step)

    @settings(max_examples=30, deadline=None)
    @given(batch=st.integers(1, 13), block_bytes=st.sampled_from([1, 300, 700, 2500]),
           workers=st.integers(1, 3), smooth=st.booleans())
    def test_elementwise_kernels_are_independent_of_the_block_size(self, batch, block_bytes,
                                                                   workers, smooth):
        # LIF, pooling and the train-mode norm treat every element alone, so
        # their blocks change neither a value nor a reduction.
        data = np.random.default_rng(batch)
        currents = (data.standard_normal((4, batch, 8, 8, 4)) * 1.5).astype(np.float32)
        currents = currents.transpose(0, 1, 4, 2, 3)  # channels-last (T, B, C, H, W)
        dspikes = data.standard_normal(currents.shape).astype(np.float32)
        cfg = LifConfig(tau=0.5, v_th=1.0)
        norm = {"gamma": data.standard_normal(4).astype(np.float32), "beta": np.ones(4, np.float32),
                "running_mean": np.zeros(4, np.float32), "running_var": np.ones(4, np.float32)}

        def run():
            spikes, cache = lif_unroll(currents, cfg, smooth)
            d = lif_unroll_backward(dspikes, cache, cfg)
            flat = spikes.reshape((-1,) + spikes.shape[2:])
            y, new, norm_cache = batch_norm_train_cached(flat, norm, repeats=2)
            dx, dgamma, dbeta = batch_norm_backward(flat, norm_cache)
            return [spikes, *cache, d, avg_pool2d(flat, 2),
                    avg_pool2d_backward(flat, 2), y, new["running_mean"], new["running_var"],
                    dx, dgamma, dbeta]

        whole = run()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "BLOCK_BYTES", block_bytes)
            mp.setattr(kernels, "_scan_workers", lambda: workers)
            blocked = run()
        for got, want in zip(blocked, whole, strict=True):
            npt.assert_array_equal(got, want)


def tape_arrays(obj):
    """Every array held by a tape, a cache entry or a gradient dict."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in tape_arrays(item)]
    return []


def workspace_bytes(spec, batch, t_steps, itemsize):
    """Bytes of the tape arrays a strict step on ``spec``, where every norm
    follows a conv and every pool a LIF layer, requests from its workspace,
    from its layer plan: each conv's and norm's output (a norm's xhat is
    the conv output), each pool's (its window sums, a byte each, before a
    conv), each LIF layer's spikes (bool before a pool; no LIF layer keeps
    currents or potentials of its own: it rebuilds its currents from the
    norm's xhat and recomputes its potentials), and the input gradients of
    the pools but the one after the first LIF layer (whose backward blocks
    spread that pool's gradient), the convs after the first layer and the
    first LIF layer (B rows).  The kernels' scratch is `scratch_bytes`.
    The arena they are packed into is smaller: arrays that are never alive
    at once share bytes."""
    s, total = spec.first_lif, 0
    for i, (layer, plan) in enumerate(zip(spec.layers, spec.layer_plan)):
        rows = batch if i < s else t_steps * batch
        size_in, size_out = math.prod(plan.in_shape), math.prod(plan.out_shape)
        if layer.kind in ("conv", "norm"):
            total += rows * size_out * itemsize
        if layer.kind == "pool":
            total += rows * size_out * (1 if spec.layers[i + 1].kind == "conv" else itemsize)
        if layer.kind == "lif":
            total += rows * size_out * (1 if spec.layers[i + 1].kind == "pool" else itemsize)
        if i == s:
            total += batch * size_in * itemsize
        if (layer.kind == "pool" and i - 1 != s) or (layer.kind == "conv" and i > 0):
            total += rows * size_in * itemsize
    return total


def scratch_bytes(spec, batch, t_steps, itemsize):
    """Bytes of the kernels' scratch a step on ``spec``, of one dtype and a
    conv first, plans for each worker: each conv's at its forward visit
    and, at its backward visit, per role the larger of its weight
    gradient's and (after the first layer) its input gradient's; each LIF
    layer's potentials at its backward visit, and the first one's spread
    gradient when a pool follows it; each norm's xhat * slope at its
    backward visit."""
    s, elems = spec.first_lif, 0
    for i, (layer, plan) in enumerate(zip(spec.layers, spec.layer_plan)):
        rows = batch if i < s else t_steps * batch
        if layer.kind == "conv":
            forward = kernels.conv_scratch(rows, plan.in_shape, plan.config, itemsize)
            backward = {role: math.prod(shape) for role, shape in forward.items()}
            input_grad = kernels.input_gradient_conv(plan.config)
            if i > 0 and input_grad is not None:
                for role, shape in kernels.conv_scratch(rows, plan.out_shape, input_grad,
                                                        itemsize).items():
                    backward[role] = max(backward.get(role, 0), math.prod(shape))
            elems += sum(math.prod(shape) for shape in forward.values()) + sum(backward.values())
        elif layer.kind == "lif":
            spread = i == s and spec.layers[i + 1].kind == "pool"
            shapes = network._lif_scratch(t_steps, batch, plan.in_shape, itemsize, spread)[1]
            elems += sum(math.prod(shape) for shape in shapes.values())
        elif layer.kind == "norm":
            shapes = kernels.norm_scratch(rows, plan.in_shape, math.prod(plan.in_shape) * itemsize)
            elems += sum(math.prod(shape) for shape in shapes.values())
    return elems * itemsize


class TestTapeLayout:
    """A training step keeps bool spikes before a pool, writes a norm's xhat
    over the conv output, and keeps the xhat, not the currents, of the
    norm before a LIF layer."""

    def test_bool_spikes_before_a_pool_and_xhat_over_the_conv_output(self):
        spec = stem_specs()["mnist"]
        x = np.random.default_rng(4).standard_normal((6,) + spec.input_shape).astype(np.float32)
        for smooth in (False, True):
            net = build_instance(spec, seed=2)
            net.smooth_spikes = smooth
            ws = Workspace()
            _, tape = forward_with_tape(net, x, 3, workspace=ws)
            for i, layer in enumerate(spec.layers):
                cache = tape["caches"][i]
                if layer.kind == "lif":
                    # no spikes, currents or potentials on the tape: the
                    # cache keeps the norm's xhat, over the conv output (B
                    # rows in the stem), and the norm's gamma and beta
                    kept, (gamma, beta), kept_smooth = cache[2]
                    assert spec.layers[i + 1].kind == "pool" and kept_smooth is smooth
                    assert ws.plan.slots[(i, "spikes")][1] == (np.float32 if smooth else bool)
                    assert kept.dtype == np.float32
                    assert kept.shape == ((6,) if i == spec.first_lif else (3, 6)) + \
                        spec.layer_plan[i].in_shape
                    assert spec.layers[i - 1].kind == "norm"
                    assert np.shares_memory(kept, ws.planned((i - 2, "y")))
                    for got, name in ((gamma, "gamma"), (beta, "beta")):  # over one sample
                        vector = net.params[i - 1][name].reshape(-1, 1, 1)
                        npt.assert_array_equal(got, np.broadcast_to(vector, kept.shape[-3:]))
                elif layer.kind == "norm":
                    assert spec.layers[i - 1].kind == "conv"
                    assert np.shares_memory(cache[1][0], ws.planned((i - 1, "y")))
                    assert (i, "xhat") not in ws.plan.slots

    def test_a_train_call_leaves_the_workspace_the_layout_predicts(self):
        # The workspace's one arena is that of the last step's plan, at its
        # packed size; the plan holds the arrays the layout predicts, packed
        # into fewer bytes.
        spec = stem_specs()["mnist"]
        batch, t_steps = 8, 4
        data = np.random.default_rng(3)
        x = data.standard_normal((batch,) + spec.input_shape).astype(np.float32)
        y = data.integers(0, spec.num_classes, batch)
        net = build_instance(spec, seed=1)
        train(net, x, y, x[:4], y[:4], TrainConfig(epochs=1, batch_size=batch, t_train=t_steps))
        plan = tape_plan(net, batch, t_steps, np.float32)
        assert net.workspace._arena.nbytes == pack(plan)[1] and net.workspace.plan == plan
        assert plan_bytes(plan) == workspace_bytes(spec, batch, t_steps, 4) + \
            scratch_bytes(spec, batch, t_steps, 4)
        assert pack(plan)[1] < 0.7 * plan_bytes(plan)


def plan_bytes(plan):
    """Bytes of every array of a `tape_plan`, each on bytes of its own."""
    return sum(math.prod(shape) * dtype.itemsize for shape, dtype in plan.slots.values())


def zoo_specs():
    """stem_specs(), row_parallel_spec() and the inference-plan cases: convs
    with and without a bias, a pool or a LIF layer first, fc layers, norms
    after a conv, a pool, an fc and a LIF layer."""
    specs = dict(stem_specs(), row_parallel=row_parallel_spec())
    for name, (layers, input_shape, _) in PLAN_CASES.items():
        specs[f"plan_{name}"] = NetworkSpec(input_shape=input_shape, num_classes=3, t_max=4,
                                            layers=layers)
    return specs


class TestTapePlan:
    """A training step runs on arrays laid out by lifetime: every array it
    requests is planned, arrays alive at the same visit never share bytes,
    and the step computes what it computes on new arrays."""

    @staticmethod
    def steps(spec, dtype, smooth, workspace):
        """Copies of the logits, gradients and proposed running statistics
        of two training steps, on a full batch and a smaller last one."""
        net = build_instance(spec, seed=7, dtype=dtype)
        net.smooth_spikes = smooth
        data = np.random.default_rng(11)
        out = []
        for batch in (5, 3):
            x = (data.standard_normal((batch,) + spec.input_shape) * 1.5).astype(dtype)
            labels = data.integers(0, spec.num_classes, batch)
            logits, tape = forward_with_tape(net, x, 3, workspace=workspace)
            _, dstep = loss_and_grad(logits, labels, "per_timestep")
            grads = backward_through_time(net, tape, dstep)
            out.append(copy.deepcopy((logits, grads, tape["norm_updates"])))
            commit_norm_updates(net, tape)
            sgd_step(net, grads, {}, lr=0.1, momentum=0.9, weight_decay=5e-4)
        return out

    @pytest.mark.parametrize("name", list(zoo_specs()))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("smooth", [False, True], ids=["strict", "smooth"])
    def test_a_packed_step_equals_a_step_on_new_arrays(self, name, dtype, smooth, monkeypatch):
        spec = zoo_specs()[name]

        def apart(*args):  # every array alive throughout: each on bytes of its own
            plan = tape_plan(*args)
            return plan._replace(spans=dict.fromkeys(plan.spans, (0, 2 * len(spec.layers))))

        with monkeypatch.context() as mp:
            mp.setattr(training, "tape_plan", apart)
            want = self.steps(spec, dtype, smooth, None)
        plans, requested = [], []
        lay_out, planned = Workspace.lay_out, Workspace.planned

        def laying_out(ws, plan):
            lay_out(ws, plan)
            plans.append(plan)
            requested.append(set())
            sizes = {key: math.prod(shape) * dt.itemsize for key, (shape, dt) in plan.slots.items()}
            for a, b in itertools.combinations(plan.slots, 2):
                (first_a, last_a), (first_b, last_b) = plan.spans[a], plan.spans[b]
                if first_a <= last_b and first_b <= last_a:  # alive at one visit
                    start_a, start_b = ws._regions[a][0], ws._regions[b][0]
                    assert start_a + sizes[a] <= start_b or start_b + sizes[b] <= start_a, (a, b)

        monkeypatch.setattr(Workspace, "lay_out", laying_out)
        monkeypatch.setattr(Workspace, "planned", lambda ws, key, like=None:
                            requested[-1].add(key) or planned(ws, key, like))
        got = self.steps(spec, dtype, smooth, Workspace())
        assert len(plans) == 2
        for plan, keys in zip(plans, requested, strict=True):
            assert keys == plan.slots.keys()
        for (logits, grads, norms), (want_logits, want_grads, want_norms) in zip(got, want,
                                                                                 strict=True):
            npt.assert_array_equal(logits, want_logits)
            assert grads.keys() == want_grads.keys() and norms.keys() == want_norms.keys()
            for i in want_grads:
                for param in want_grads[i]:
                    npt.assert_array_equal(grads[i][param], want_grads[i][param])
            for i in want_norms:
                for stat in want_norms[i]:
                    npt.assert_array_equal(norms[i][stat], want_norms[i][stat])

    def test_the_mnist_step_packs_into_less_than_three_tenths_of_its_arrays(self, monkeypatch):
        # At the bench's B=128, T=4 on two workers: 98.5 MiB of arrays
        # (71.9 MiB of tape arrays, 26.7 MiB of kernel scratch), 27.0 MiB of
        # arena, against 26.7 MiB alive at the busiest visit (the last
        # norm's backward visit: the xhat of norms 1, 5 and 9, the sums
        # the convs keep, the last LIF layer's gradient and the norm's
        # scratch).
        monkeypatch.setattr(kernels, "_scan_workers", lambda: 2)
        net = build_instance(stem_specs()["mnist"], seed=0)
        plan = tape_plan(net, 128, 4, np.float32)
        assert plan_bytes(plan) == workspace_bytes(net.spec, 128, 4, 4) + \
            scratch_bytes(net.spec, 128, 4, 4)
        assert pack(plan)[1] <= 27.5 * 2**20 < 0.3 * plan_bytes(plan)

    @pytest.mark.parametrize("name", list(zoo_specs()))
    @pytest.mark.parametrize("smooth", [False, True], ids=["strict", "smooth"])
    def test_spikes_last_until_the_next_layer_unless_it_keeps_them(self, name, smooth):
        # No LIF tape entry holds spikes or potentials: a layer's spikes
        # live until the next layer's forward visit, or its backward visit
        # when that layer keeps its input (a conv, fc or classifier) or
        # writes over it (a norm's xhat).  A LIF layer after a norm keeps
        # the norm's xhat, so the norm's output lives until the LIF layer
        # has read it; any other keeps its currents.
        spec = zoo_specs()[name]
        net = build_instance(spec, seed=0)
        net.smooth_spikes = smooth
        plan = tape_plan(net, 5, 3, np.float32)
        back = 2 * len(spec.layers) - 1
        assert [key for key in plan.slots if key[1] == "u_pre"] == []
        for i, layer in enumerate(spec.layers):
            if layer.kind == "lif":
                nxt, shape = spec.layers[i + 1].kind, spec.layer_plan[i].out_shape
                copied = nxt in ("fc", "classifier") and len(shape) == 3 and \
                    shape[0] > 1 and shape[1] * shape[2] > 1  # channels-last, after a conv
                last = i + 1 if nxt == "pool" or copied else back - (i + 1)
                assert plan.spans[(i, "spikes")] == (i, last)
        first_param = next(i for i, p in enumerate(net.params) if p)
        for i, layer in enumerate(spec.layers):
            if layer.kind == "lif" and (i - 1, "y") in plan.slots:
                rebuilt = spec.layers[i - 1].kind == "norm"
                assert rebuilt <= (i >= first_param)  # a norm has parameters
                kept = i >= first_param and not rebuilt
                assert plan.spans[(i - 1, "y")][1] == (back - i if kept else i)

    @pytest.mark.parametrize("name", list(zoo_specs()))
    @pytest.mark.parametrize("smooth", [False, True], ids=["strict", "smooth"])
    def test_pools_hand_convs_their_sums_and_the_first_lif_spreads_its_pools_gradient(
            self, name, smooth):
        # A pool before a conv writes its window sums, bytes for strict
        # spikes, which last until the conv's backward visit; any other
        # pool writes float means.  The pool after the first LIF layer has
        # no input gradient: that LIF layer's backward blocks spread the
        # pool's incoming gradient, which lasts until then, in scratch.
        spec = zoo_specs()[name]
        net = build_instance(spec, seed=0)
        net.smooth_spikes = smooth
        plan = tape_plan(net, 5, 3, np.float32)
        layers, s, back = spec.layers, spec.first_lif, 2 * len(spec.layers) - 1
        for i, layer in enumerate(layers):
            if layer.kind == "pool" and (i, "y") in plan.slots:
                spikes = i > 0 and layers[i - 1].kind == "lif" and not smooth
                before_conv = layers[i + 1].kind == "conv"
                assert plan.slots[(i, "y")][1] == (np.uint8 if spikes and before_conv
                                                    else np.float32)
                if before_conv:
                    assert plan.spans[(i, "y")][1] == back - (i + 1)
        first_param = next(i for i, p in enumerate(net.params) if p)
        spreads = layers[s + 1].kind == "pool" and s >= first_param
        if layers[s + 1].kind == "pool":
            assert (s + 1, "dx") not in plan.slots
        scratch = {key[2][0] for key in plan.slots if key[:2] == (back - s, "scratch")}
        assert ("dspikes" in scratch) == spreads
        if spreads and layers[s + 2].kind == "conv":  # its input gradient is the pool's
            assert plan.spans[(s + 2, "dx")] == (back - (s + 2), back - s)

    def test_the_mnist_pools_before_convs_keep_bytes(self):
        net = build_instance(stem_specs()["mnist"], seed=0)
        plan = tape_plan(net, 128, 4, np.float32)
        assert plan.slots[(3, "y")] == ((512, 12, 14, 14), np.uint8)
        assert plan.slots[(7, "y")] == ((512, 24, 7, 7), np.uint8)
        assert plan.slots[(11, "y")] == ((512, 48, 1, 1), np.float32)
        assert (3, "dx") not in plan.slots and (7, "dx") in plan.slots

    @pytest.mark.parametrize("smooth", [False, True], ids=["strict", "smooth"])
    def test_the_loops_request_what_the_plan_lays_out(self, smooth, monkeypatch):
        # tape_plan re-encodes the rules of run_layers and
        # backward_through_time.  Every array a B=8 step requests is a slot
        # of the plan with its shape and dtype, every slot is requested, and
        # the kernels' scratch requests fill each planned scratch exactly.
        # The kernels check each array they write against the shape and
        # dtype they compute, so a rule changed on one side only (a pool's
        # dtype, say) raises in the step.
        monkeypatch.setattr(kernels, "_scan_workers", lambda: 2)
        monkeypatch.setattr(kernels, "BLOCK_BYTES", 16 * 1024)  # several blocks a layer
        spec = stem_specs()["mnist"]
        requests, scratch = {}, {}
        planned, scratch_of = Workspace.planned, Workspace.scratch

        def recording(ws, key, like=None):
            array = planned(ws, key, like)
            if key[1] != "scratch":
                requests.setdefault(key, set()).add((array.shape, array.dtype))
            return array

        def recording_scratch(ws, visit):
            take = scratch_of(ws, visit)

            def recorded(role, shape, dtype):
                key, nbytes = (visit, "scratch", role), math.prod(shape) * np.dtype(dtype).itemsize
                scratch[key] = max(scratch.get(key, 0), nbytes)
                return take(role, shape, dtype)

            return recorded

        monkeypatch.setattr(Workspace, "planned", recording)
        monkeypatch.setattr(Workspace, "scratch", recording_scratch)
        net = build_instance(spec, seed=0)
        net.smooth_spikes = smooth
        x = np.random.default_rng(5).standard_normal((8,) + spec.input_shape).astype(np.float32)
        logits, tape = forward_with_tape(net, x, 4)
        backward_through_time(net, tape, np.ones_like(logits))
        plan = tape_plan(net, 8, 4, np.float32)
        assert requests == {key: {slot} for key, slot in plan.slots.items()
                            if key[1] != "scratch"}
        assert scratch == {key: shape[0] for key, (shape, _) in plan.slots.items()
                           if key[1] == "scratch"}

    def test_an_fc_input_the_flattening_copies_lasts_until_the_fc_reads_it(self):
        # The second pool's output is channels-last with 6 channels of 2x2:
        # the fc's tape entry holds the copy its flattening makes.
        net = build_instance(row_parallel_spec(), seed=0)
        assert net.spec.layers[8].kind == "fc"
        assert tape_plan(net, 5, 3, np.float32).spans[(7, "y")] == (7, 8)

    def test_a_request_the_plan_lacks_raises(self):
        ws = Workspace()
        with pytest.raises(StateError, match="not in the step's tape plan"):
            ws.planned((0, "y"))
        net = build_instance(row_parallel_spec(), seed=0)
        ws.lay_out(tape_plan(net, 2, 2, np.float32))
        with pytest.raises(StateError, match="not in the step's tape plan"):
            ws.planned((0, "dx"))  # the first conv computes no input gradient

    def test_a_tape_is_walked_back_once(self):
        net = build_instance(row_parallel_spec(), seed=0)
        x = np.random.default_rng(1).standard_normal((4, 1, 8, 8)).astype(np.float32)
        logits, tape = forward_with_tape(net, x, 2)
        dstep = np.ones_like(logits)
        backward_through_time(net, tape, dstep)
        with pytest.raises(StateError, match="walked back before"):
            backward_through_time(net, tape, dstep)
        _, tape = forward_with_tape(net, x, 2)
        with pytest.raises(StateError, match="dtype float64 for logits of dtype float32"):
            backward_through_time(net, tape, dstep.astype(np.float64))
        backward_through_time(net, tape, dstep)  # the tape is still whole

    def test_a_step_too_large_to_allocate_raises_config_error(self):
        # 2**56 steps of a 4-channel LIF layer: a 2**60-byte arena, past any
        # address space, on parameters of a few bytes.
        spec = NetworkSpec(input_shape=(1, 1, 1), num_classes=2, t_max=2**56, layers=(
            LayerSpec("conv", out_channels=4, kernel=1, padding=0), LayerSpec("lif"),
            LayerSpec("classifier")))
        net = build_instance(spec, seed=0)
        with pytest.raises(ConfigError, match=r"needs a workspace of \d+ bytes"):
            forward_with_tape(net, np.zeros((1, 1, 1, 1), np.float32), 2**56)


class TestPoolFirst:
    def test_uint8_images_give_the_float64_images_logits_in_both_engines(self):
        # The pool sums the bytes exactly: no window wraps past 255.
        spec = NetworkSpec(
            input_shape=(1, 8, 8),
            num_classes=3,
            t_max=2,
            layers=(
                LayerSpec("pool", window=2),
                LayerSpec("conv", out_channels=2, kernel=3, stride=1, padding=1),
                LayerSpec("lif", v_th=200.0),
                LayerSpec("classifier"),
            ),
        )
        images = np.random.default_rng(6).integers(150, 256, size=(3, 1, 8, 8), dtype=np.uint8)
        net = build_instance(spec, seed=0)
        for engine in (lambda x: mean_after(net, x, 2),
                       lambda x: forward_with_tape(net, x, 2)[0]):
            want = engine(images.astype(np.float64))
            npt.assert_array_equal(engine(images), want)


class TestWorkspace:
    """`train` draws every step's tape and input gradients from the
    instance's workspace, shared with its clones; direct tape callers get
    new arrays, on an arena of their own per tape."""

    def batch(self, spec, n):
        data = np.random.default_rng(2)
        x = data.standard_normal((n,) + spec.input_shape).astype(np.float32)
        return x, data.integers(0, spec.num_classes, n)

    def test_later_calls_and_clones_allocate_a_fraction_of_the_first(self):
        # The first call allocates the workspace, about one step's arrays and
        # most of the call's peak.  A second call on the instance, and a first
        # call on a new clone of it, draw those arrays from it: each must peak
        # (above what was allocated before it) below a quarter of the first
        # call's peak.  At the bench's B=128, T=4 they peak near a twelfth.
        spec = stem_specs()["mnist"]
        x, y = self.batch(spec, 32)
        cfg = TrainConfig(epochs=1, batch_size=32, t_train=4, seed=0)
        net = build_instance(spec, seed=1)
        peaks = []
        tracemalloc.start()
        try:
            for inst in (net, net, net.clone_state()):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                train(inst, x, y, x[:4], y[:4], cfg)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert peaks[1] < peaks[0] / 4, peaks
        assert peaks[2] < peaks[0] / 4, peaks

    def test_a_first_call_peaks_at_the_arena_not_at_the_sum_of_its_arrays(self, monkeypatch):
        # Tier-1 guard against a return to a buffer per array: a first call
        # at B=32, T=4 peaks within the arena plus a slack of 7 MiB for the
        # temporaries the workspace does not hold (1.6-2.3 MiB measured at two
        # workers); the tape's arrays on bytes of their own would need 14.4
        # MiB more than the arena.
        monkeypatch.setattr(kernels, "_scan_workers", lambda: 2)
        spec = stem_specs()["mnist"]
        x, y = self.batch(spec, 32)
        net = build_instance(spec, seed=1)
        plan = tape_plan(net, 32, 4, np.float32)
        arena, slack = pack(plan)[1], 7 * 2**20
        assert arena + slack < plan_bytes(plan)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            train(net, x, y, x[:4], y[:4], TrainConfig(epochs=1, batch_size=32, t_train=4))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert net.workspace._arena.nbytes == arena
        assert peak < arena + slack, (peak, arena)

    def test_direct_tape_and_gradients_survive_later_training(self):
        spec = row_parallel_spec()
        x, y = self.batch(spec, 9)
        net = build_instance(spec, seed=3)
        logits, tape = forward_with_tape(net, x, 3)
        loss, dstep = loss_and_grad(logits, y, "per_timestep")
        grads = backward_through_time(net, tape, dstep)
        held = [logits, dstep] + tape_arrays(tape) + tape_arrays(grads)
        before = [a.copy() for a in held]
        cfg = TrainConfig(epochs=2, batch_size=9, lr0=0.05, t_train=3, seed=0)
        train(net, x, y, x, y, cfg)
        for a, b in zip(held, before, strict=True):
            npt.assert_array_equal(a, b)

    def test_concurrent_calls_on_clones_match_a_lone_call(self):
        # More threads than cores, each training its own clone (own params,
        # shared workspace) at a short switch interval: one call holds the
        # workspace, the others run on new arrays, and every result equals
        # a call made alone.
        spec = row_parallel_spec()
        x, y = self.batch(spec, 16)
        cfg = TrainConfig(epochs=3, batch_size=4, lr0=0.05, t_train=3, seed=0)
        source = build_instance(spec, seed=3)
        alone = source.clone_state()
        want = train(alone, x, y, x[:4], y[:4], cfg).csv_rows()
        clones = [source.clone_state() for _ in range(len(os.sched_getaffinity(0)) + 2)]
        results = [None] * len(clones)

        def run(k):
            results[k] = train(clones[k], x, y, x[:4], y[:4], cfg).csv_rows()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(len(clones))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [want] * len(clones)
        for clone in clones:
            for p, q in zip(clone.params, alone.params, strict=True):
                for name in p or {}:
                    npt.assert_array_equal(p[name], q[name])

    def test_a_call_finding_the_workspace_held_runs_on_new_arrays(self):
        # Another thread holds the workspace (the thread that holds it gets
        # it again): a call here draws nothing from it.
        spec = row_parallel_spec()
        x, y = self.batch(spec, 9)
        cfg = TrainConfig(epochs=2, batch_size=4, lr0=0.05, t_train=3, seed=0)
        net, ref = (build_instance(spec, seed=3) for _ in range(2))
        holds, taken, release = [], threading.Event(), threading.Event()

        def hold():
            with net.workspace.take() as held:
                with net.workspace.take() as again:
                    holds.append((held, again))
                taken.set()
                release.wait(60)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert taken.wait(60)
            with net.workspace.take() as other:
                assert other is None
            clone = net.clone_state()
            got = train(clone, x, y, x, y, cfg)
            assert net.workspace._arena is None  # the clone's steps and evals drew nothing from it
        finally:
            release.set()
            holder.join(60)
        assert holds == [(net.workspace, net.workspace)]
        assert got.csv_rows() == train(ref, x, y, x, y, cfg).csv_rows()
        for p, q in zip(clone.params, ref.params, strict=True):
            for name in p or {}:
                npt.assert_array_equal(p[name], q[name])

    def test_a_scan_of_the_instance_fails_the_backward_pass_of_a_tape_on_its_workspace(self):
        # The scan lends the arena the tape lies in to its tiles.
        spec = stem_specs()["mnist"]
        x, y = self.batch(spec, 4)
        net = build_instance(spec, seed=1)
        for scan in (False, True):
            logits, tape = forward_with_tape(net, x, 4, workspace=net.workspace)
            _, dstep = loss_and_grad(logits, y, "per_timestep")
            if not scan:
                backward_through_time(net, tape, dstep)
                continue
            scan_timesteps(net, x, 4)
            with pytest.raises(StateError, match="lent to a scan"):
                backward_through_time(net, tape, dstep)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_scans_after_training_equal_scans_on_a_workspace_of_their_own(self, workers,
                                                                          monkeypatch):
        # Training tapes write over the bytes a scan lends its tiles, the
        # convolutions' zero-bordered scratch included.  The evals of a train
        # call, and a later scan, equal those of an instance on the same
        # parameters with a workspace of its own, bit for bit.
        monkeypatch.setattr(kernels, "_scan_workers", lambda: workers)
        spec = stem_specs()["mnist"]
        x, y = self.batch(spec, 48)
        data = np.random.default_rng(5)
        images = data.standard_normal((64,) + spec.input_shape).astype(np.float32)
        labels = data.integers(0, spec.num_classes, 64)
        net = build_instance(spec, seed=1)
        want = []

        def own(net):
            return network.SnnInstance(spec=spec, params=list(net.params),
                                       record_activity=True)

        def progress(record):
            want.append(tuple(float(a) for a in evaluate_per_timestep(own(net), images, labels, 4)))

        log = train(net, x, y, images, labels,
                    TrainConfig(epochs=2, batch_size=48, lr0=0.05, t_train=4), progress)
        # the scans' parts lie in the training arena, which they did not grow
        assert net.workspace._arena.nbytes == pack(tape_plan(net, 48, 4, np.float32))[1]
        assert [record.eval_acc for record in log.records] == want
        net.record_activity = True
        got, ref = scan_timesteps(net, images, 4), scan_timesteps(own(net), images, 4)
        npt.assert_array_equal(got["mean_logits"], ref["mean_logits"])
        npt.assert_array_equal(got["activity"], ref["activity"])

    def test_the_eval_of_a_call_allocates_no_part(self, monkeypatch):
        # Once the training arena exists, each epoch's eval scan runs its two
        # workers' tiles on parts of it: the eval peaks below one part.
        monkeypatch.setattr(kernels, "_scan_workers", lambda: 2)
        spec = stem_specs()["mnist"]
        x, y = self.batch(spec, 48)
        net = build_instance(spec, seed=1)
        with kernels.inline_blocks(True):
            part = pack(network.step_plan(spec, inference_params(build_instance(spec)),
                                          (27, np.dtype(np.float32), False, False)))[1]
        assert 2 * network._page_up(part) <= pack(tape_plan(net, 48, 4, np.float32))[1]
        evaluate, peaks = training.evaluate_per_timestep, []

        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            accuracy = evaluate(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            return accuracy

        monkeypatch.setattr(training, "evaluate_per_timestep", measured)
        images = np.concatenate([x, x[:16]])
        tracemalloc.start()
        try:
            train(net, x, y, images, np.concatenate([y, y[:16]]),
                  TrainConfig(epochs=2, batch_size=48, t_train=4))
        finally:
            tracemalloc.stop()
        assert len(peaks) == 2 and max(peaks) < part, (peaks, part)
