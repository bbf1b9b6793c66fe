"""LIF dynamics and the per-timestep forward pass of the spiking network."""

import dataclasses
import functools
import math
import os
import sys
import threading
import tracemalloc
import types
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtsnn import kernels, network
from dtsnn.config import parse_config
from dtsnn.errors import ConfigError, DataFormatError, ShapeError, StateError
from dtsnn.hardware import perturbed_instance
from dtsnn.kernels import avg_pool2d, batch_norm, conv2d, fully_connected
from dtsnn.network import (
    LayerSpec,
    LifConfig,
    LifState,
    NetworkSpec,
    SnnInstance,
    build_instance,
    forward_timestep,
    inference_params,
    lif_step,
    lif_unroll,
    mean_output,
    reset_states,
    scan_timesteps,
)
from dtsnn.training import (
    backward_through_time,
    commit_norm_updates,
    forward_with_tape,
    loss_and_grad,
    sgd_step,
)

from conftest import INPUT_FORMS, input_form, mean_after
from oracles import lif_sequence_reference, pack_reference

rng = np.random.default_rng(7)


def tiny_conv_spec(t_max=4, num_classes=3):
    return NetworkSpec(
        input_shape=(1, 8, 8),
        num_classes=num_classes,
        t_max=t_max,
        layers=(
            LayerSpec("conv", out_channels=4, kernel=3, stride=1, padding=1),
            LayerSpec("norm"),
            LayerSpec("lif"),
            LayerSpec("pool", window=2),
            LayerSpec("conv", out_channels=6, kernel=3, stride=1, padding=1),
            LayerSpec("lif"),
            LayerSpec("pool", window=4),
            LayerSpec("classifier"),
        ),
    )


class TestLifStep:
    def test_charge_fire_reset(self):
        cfg = LifConfig(tau=0.5, v_th=1.0)
        state = LifState(u=np.zeros(1))
        spikes = lif_step(state, np.array([2.0]), cfg)
        npt.assert_array_equal(spikes, [1.0])
        npt.assert_array_equal(state.u, [0.0])

    def test_subthreshold_decay(self):
        cfg = LifConfig(tau=0.5, v_th=1.0)
        state = LifState(u=np.array([0.4]))
        spikes = lif_step(state, np.array([0.0]), cfg)
        npt.assert_array_equal(spikes, [0.0])
        npt.assert_allclose(state.u, [0.2])

    def test_threshold_is_strict(self):
        cfg = LifConfig(tau=1.0, v_th=1.0)
        state = LifState(u=np.zeros(1))
        spikes = lif_step(state, np.array([1.0]), cfg)
        npt.assert_array_equal(spikes, [0.0])  # u == v_th does not fire

    def test_eight_step_sequence_matches_scalar_oracle(self):
        cfg = LifConfig(tau=0.5, v_th=1.0)
        currents = rng.uniform(-0.5, 1.5, size=8)
        ref_spikes, ref_u = lif_sequence_reference(currents, 0.5, 1.0)
        state = LifState(u=np.zeros(1))
        for t in range(8):
            s = lif_step(state, np.array([currents[t]]), cfg)
            assert s[0] == ref_spikes[t]
            assert state.u[0] == ref_u[t]

    def test_batch_of_sequences_matches_oracle(self):
        cfg = LifConfig(tau=0.7, v_th=0.9)
        currents = rng.uniform(-0.5, 1.5, size=(8, 32))
        state = LifState(u=np.zeros(32))
        refs = [lif_sequence_reference(currents[:, j], 0.7, 0.9) for j in range(32)]
        for t in range(8):
            s = lif_step(state, currents[t], cfg)
            for j in range(32):
                assert s[j] == refs[j][0][t]
                assert state.u[j] == refs[j][1][t]

    def test_spikes_are_binary_and_hard_reset(self):
        cfg = LifConfig()
        state = LifState(u=np.zeros(100))
        for _ in range(10):
            s = lif_step(state, rng.uniform(-1, 2, size=100), cfg)
            assert set(np.unique(s)).issubset({0.0, 1.0})
            assert not state.u[s == 1.0].any()

    def test_geometric_decay_without_input(self):
        cfg = LifConfig(tau=0.8, v_th=10.0)
        u0 = 0.5
        state = LifState(u=np.array([u0]))
        zero = np.array([0.0])
        for t in range(1, 6):
            lif_step(state, zero, cfg)
            npt.assert_allclose(state.u, [u0 * 0.8**t], rtol=1e-12)

    def test_shape_mismatch(self):
        state = LifState(u=np.zeros(3))
        with pytest.raises(ShapeError):
            lif_step(state, np.zeros(4), LifConfig())

    def test_invalid_config(self):
        with pytest.raises(ValueError, match="tau"):
            LifConfig(tau=1.5)
        with pytest.raises(ValueError, match="v_th"):
            LifConfig(v_th=0.0)


def lif_formula(currents, tau, v_th, u0):
    """u <- tau*u + I; s = u > v_th; u <- u*(1 - s), one fresh array per op.

    Returns (spikes, pre-reset potentials, final potentials)."""
    u, spikes, u_pre = u0.copy(), [], []
    for current in currents:
        u = tau * u + current
        s = (u > v_th).astype(u.dtype)
        u_pre.append(u)
        spikes.append(s)
        u = u * (1 - s)
    return np.stack(spikes), np.stack(u_pre), u


class TestLifUnroll:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_formula_with_and_without_state(self, dtype):
        cfg = LifConfig(tau=0.5, v_th=1.0)
        currents = rng.uniform(-1.5, 2.0, size=(5, 6, 3, 4)).astype(dtype)
        currents[0, 0, 0, :2] = 1.0    # from rest u == v_th exactly: no spike
        currents[:, 1, 0, 0] = -0.75   # potentials stay negative
        currents = currents.transpose(0, 1, 3, 2)  # a non-contiguous layout
        rest = np.zeros(currents.shape[1:], dtype=dtype)
        ref_spikes, ref_u_pre, _ = lif_formula(currents, cfg.tau, cfg.v_th, rest)
        assert ref_u_pre[0, 0, :2, 0].tolist() == [1.0, 1.0]
        assert ref_spikes[0, 0, :2, 0].tolist() == [0.0, 0.0]
        assert (ref_u_pre[:, 1, 0, 0] < 0).all()
        spikes, (kept, affine, smooth) = lif_unroll(currents, cfg)
        assert kept is currents and affine is None and smooth is False
        u_pre = network._lif_potentials(kept, affine, cfg, smooth,  # the backward pass's
                                        np.empty(kept.size, dtype))
        assert spikes.dtype == u_pre.dtype == dtype
        npt.assert_array_equal(spikes, ref_spikes)
        npt.assert_array_equal(u_pre, ref_u_pre)

        u0 = rng.uniform(-1.0, 1.0, size=currents.shape[1:]).astype(dtype)
        u0[0, 0, 0] = 0.0
        ref_spikes, _, ref_u = lif_formula(currents, cfg.tau, cfg.v_th, u0)
        state = LifState(u0.copy())
        spikes = np.stack([lif_step(state, current, cfg) for current in currents])
        npt.assert_array_equal(spikes, ref_spikes)
        npt.assert_array_equal(state.u, ref_u)


    @pytest.mark.parametrize("block_bytes", [1, 200, kernels.BLOCK_BYTES])
    def test_bool_spikes_equal_new_arrays_and_the_currents_stay(self, block_bytes,
                                                                monkeypatch):
        # The tape's LIF layer before a pool: spikes as bool into the array
        # it is given, every block from rest, and nothing written over the
        # currents, which its cache keeps.
        monkeypatch.setattr(kernels, "BLOCK_BYTES", block_bytes)
        cfg = LifConfig(tau=0.5, v_th=1.0)
        currents = rng.uniform(-1.5, 2.5, size=(4, 9, 5, 5, 3)).astype(np.float32)
        currents = currents.transpose(0, 1, 4, 2, 3)  # channels-last (T, B, C, H, W)
        want, _ = lif_unroll(currents.copy(), cfg)
        before = currents.copy()
        out = np.empty(currents.shape, bool)
        spikes, (kept, affine, smooth) = lif_unroll(currents, cfg, out=out)
        assert spikes is out and kept is currents and affine is None and smooth is False
        npt.assert_array_equal(currents, before)
        npt.assert_array_equal(spikes, want)

    @pytest.mark.parametrize("broadcast", [False, True], ids=["steps", "rows"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("smooth", [False, True], ids=["strict", "smooth"])
    def test_the_recomputed_potentials_are_the_updates(self, smooth, dtype, broadcast,
                                                       monkeypatch):
        # The backward pass recomputes the potentials (`_lif_potentials`)
        # without spikes or the last step's reset: every bit, the sign of a
        # zero too, is that of v after `_lif_update`'s tau*v + current.
        cfg = LifConfig(tau=0.5, v_th=1.0)
        currents = rng.uniform(-1.5, 2.5, size=(4, 9, 5, 5, 3)).astype(dtype)
        currents[:, 0, 0, 0] = -0.0  # from rest: 0 + -0 is +0
        currents = currents.transpose(0, 1, 4, 2, 3)  # channels-last (T, B, C, H, W)
        if broadcast:  # the stem's B rows at every step
            currents = np.broadcast_to(currents[0], currents.shape)
        updates = []
        update = network._lif_update

        def recording(current, v, *args):
            updates.append(v * cfg.tau + current)
            return update(current, v, *args)

        monkeypatch.setattr(network, "_lif_update", recording)
        spikes, cache = lif_unroll(currents, cfg, smooth)
        monkeypatch.setattr(network, "_lif_update", update)
        want = np.stack(updates).transpose(0, 1, 4, 2, 3)  # one block: (N,H,W,C) views
        assert 0 < spikes.mean() < 1 and (want[:, 0, 0, 0, 0] == 0).all()
        kept, affine, _ = cache
        steps = np.broadcast_to(kept, currents.shape) if broadcast else kept
        u_pre = network._lif_potentials(steps, affine, cfg, smooth, np.empty(steps.size, dtype))
        assert u_pre.shape == currents.shape and u_pre.dtype == dtype
        assert u_pre.transpose(0, 1, 3, 4, 2).flags.c_contiguous  # kept's memory order
        npt.assert_array_equal(u_pre.view(f"u{u_pre.itemsize}"), want.view(f"u{want.itemsize}"))

def reference_logits(spec, params, x, t_steps, smooth=False, inputs=None):
    """Per-step logits and the current entering every LIF layer at every
    step, from the kernels on unfolded parameters: conv2d, batch_norm with
    running statistics, avg_pool2d, fully_connected, and `lif_formula` (with
    ``smooth``, the same update firing by `network.spike_ramp`).  ``inputs``,
    when a list, receives the input of every weighted layer at every step."""
    u = {}
    logits, currents = [], []
    for _ in range(t_steps):
        h = x
        for i, (layer, par, plan) in enumerate(zip(spec.layers, params, spec.layer_plan)):
            if inputs is not None and plan.weight_shape is not None:
                inputs.append(h)
            if layer.kind == "lif" and smooth:
                currents.append(h)
                cfg = plan.config
                v = cfg.tau * u.get(i, np.zeros_like(h)) + h
                h = network.spike_ramp(v, cfg.v_th)
                u[i] = v * (1 - h)
            elif layer.kind == "conv":
                h = conv2d(h, par["w"], plan.config)
                if "b" in par:
                    h = h + par["b"].reshape(1, -1, 1, 1)
            elif layer.kind == "norm":
                h = batch_norm(h, par)
            elif layer.kind == "pool":
                h = avg_pool2d(h, layer.window)
            elif layer.kind == "lif":
                currents.append(h)
                u0 = u.get(i, np.zeros_like(h))
                spikes, _, u[i] = lif_formula(h[None], plan.config.tau, plan.config.v_th, u0)
                h = spikes[0]
            else:
                h = fully_connected(h.reshape(h.shape[0], -1), par["w"], par["b"])
        logits.append(h)
    return np.stack(logits), currents


def randomize_norms(net, seed=0):
    """Replace every norm's arrays with random statistics, so that a fold is
    not close to the identity."""
    gen = np.random.default_rng(seed)
    for i, p in enumerate(net.params):
        if p is not None and "gamma" in p:
            n, dtype = p["gamma"].shape[0], p["gamma"].dtype
            net.params[i] = {
                "gamma": gen.uniform(0.5, 2.0, n).astype(dtype),
                "beta": gen.uniform(-0.5, 0.5, n).astype(dtype),
                "running_mean": gen.uniform(-0.5, 0.5, n).astype(dtype),
                "running_var": gen.uniform(0.2, 3.0, n).astype(dtype),
            }
    return net


# name -> (layers, input shape, indices of the norms that fold)
PLAN_CASES = {
    "conv_norm": ((LayerSpec("conv", out_channels=4), LayerSpec("norm"), LayerSpec("lif"),
                   LayerSpec("pool", window=2), LayerSpec("classifier")), (2, 6, 6), [1]),
    "biased_conv_norm": ((LayerSpec("conv", out_channels=4, bias=True), LayerSpec("norm"),
                          LayerSpec("lif"), LayerSpec("classifier")), (2, 6, 6), [1]),
    "fc_norm": ((LayerSpec("fc", out_features=12), LayerSpec("norm"), LayerSpec("lif"),
                 LayerSpec("classifier")), (1, 4, 4), [1]),
    # no conv: the pool keeps the input's C-order layout, which the fc flattens as a view
    "pool_fc": ((LayerSpec("pool", window=2), LayerSpec("fc", out_features=12),
                 LayerSpec("norm"), LayerSpec("lif"), LayerSpec("classifier")), (2, 6, 6), [2]),
    "pool_norm": ((LayerSpec("pool", window=2), LayerSpec("norm"), LayerSpec("lif"),
                   LayerSpec("conv", out_channels=3), LayerSpec("lif"),
                   LayerSpec("classifier")), (2, 6, 6), []),
    "lif_first": ((LayerSpec("lif"), LayerSpec("norm"), LayerSpec("conv", out_channels=3),
                   LayerSpec("norm"), LayerSpec("lif"), LayerSpec("classifier")),
                  (2, 6, 6), [3]),
    # the second LIF layer's keep array outgrows the first one's (200 > 4*6*6)
    "wide_fc_after_pool": ((LayerSpec("conv", out_channels=4), LayerSpec("lif"),
                            LayerSpec("pool", window=2), LayerSpec("fc", out_features=200),
                            LayerSpec("lif"), LayerSpec("classifier")), (2, 6, 6), []),
}


def step_arrays(net):
    """Every array the calls of the instance's step program are bound to
    (partial arguments, lambda defaults and closure cells), but for the
    parameters and the activity counts."""
    program = net.step_buffers._program
    params = {id(a) for p in program.params if p is not None for a in p.values()}
    found, items = [], list(program.stem + program.step)
    while items:
        item = items.pop()
        if isinstance(item, np.ndarray):
            if id(item) not in params and (program.counts is None
                                           or not np.shares_memory(item, program.counts)):
                found.append(item)
        elif isinstance(item, functools.partial):
            items.extend(item.args)
            items.extend(item.keywords.values())
        elif isinstance(item, types.FunctionType):
            items.extend(item.__defaults__ or ())
            items.extend(cell.cell_contents for cell in item.__closure__ or ())
        elif isinstance(item, tuple):
            items.extend(item)
    return found


def assert_on_the_arena(net):
    """Every array of the built step lies in the arena of the workspace its
    program runs on: the step allocates none of its own."""
    arena = net.step_buffers._program.memory._arena
    arrays = step_arrays(net)
    assert arrays
    for a in arrays:
        assert np.shares_memory(a, arena)


class TestInferencePlan:
    T_STEPS = 3

    def make(self, case, dtype, seed=4):
        layers, input_shape, folded = PLAN_CASES[case]
        spec = NetworkSpec(input_shape=input_shape, num_classes=3, t_max=4, layers=layers)
        net = randomize_norms(build_instance(spec, seed=seed, dtype=dtype), seed)
        x = (rng.standard_normal((5,) + input_shape) * 1.5).astype(dtype)
        return net, x, folded

    def run(self, net, x, monkeypatch):
        """Per-step logits of forward_timestep plus every current it passes
        to a LIF layer, in the order `reference_logits` records them."""
        currents = []
        update = network._lif_update

        def recording(current, *args, **kwargs):
            # 4-d arrays arrive as (N,H,W,C) views of their channels-last memory
            c = np.array(current)
            currents.append(c.transpose(0, 3, 1, 2) if c.ndim == 4 else c)
            return update(current, *args, **kwargs)

        monkeypatch.setattr(network, "_lif_update", recording)
        reset_states(net)
        logits = np.stack([forward_timestep(net, x) for _ in range(self.T_STEPS)])
        return logits, currents

    @pytest.mark.parametrize("case", list(PLAN_CASES))
    @pytest.mark.parametrize("dtype, rtol, atol", [
        (np.float64, 1e-12, 0.0),
        (np.float32, 1e-5, 1e-5),  # float32 rounding of w*s against (conv - mean)*s
    ], ids=["float64", "float32"])
    def test_folded_forward_matches_unfolded_reference(self, case, dtype, rtol, atol,
                                                       monkeypatch):
        net, x, _ = self.make(case, dtype)
        ref_logits, ref_currents = reference_logits(net.spec, net.params, x, self.T_STEPS)
        logits, currents = self.run(net, x, monkeypatch)
        assert len(currents) == len(ref_currents)
        for got, want in zip(currents, ref_currents):
            assert got.dtype == dtype
            npt.assert_allclose(got, want, rtol=rtol, atol=atol)
        npt.assert_allclose(logits, ref_logits, rtol=rtol, atol=atol)

    def test_only_norms_after_conv_or_fc_fold(self, monkeypatch):
        calls = []
        monkeypatch.setattr(network, "batch_norm",
                            lambda *a, **kw: calls.append(1) or batch_norm(*a, **kw))
        for case, (layers, _, folded) in PLAN_CASES.items():
            net, x, _ = self.make(case, np.float32)
            calls.clear()
            forward_timestep(net, x)
            norms = [i for i, layer in enumerate(layers) if layer.kind == "norm"]
            assert [i for i in norms if inference_params(net)[i] is None] == folded, case
            assert len(calls) == len(norms) - len(folded), case

    def test_plan_is_reused_while_params_are_unchanged(self):
        net, x, _ = self.make("conv_norm", np.float32)
        forward_timestep(net, x)
        plan = net.inference_plan
        forward_timestep(net, x)
        assert net.inference_plan is plan

    def train_one_step(self, net, x):
        step_logits, tape = forward_with_tape(net, x, 2)
        _, dstep = loss_and_grad(step_logits, np.arange(len(x)) % 3, "per_timestep")
        grads = backward_through_time(net, tape, dstep)
        commit_norm_updates(net, tape)
        sgd_step(net, grads, {}, lr=0.5, momentum=0.9, weight_decay=5e-4)

    def test_training_between_inferences_uses_the_new_weights(self):
        net, x, _ = self.make("conv_norm", np.float32)
        before = mean_after(net, x, 2)
        self.train_one_step(net, x)
        after = mean_after(net, x, 2)
        fresh = SnnInstance(spec=net.spec, params=net.params)
        npt.assert_array_equal(after, mean_after(fresh, x, 2))
        assert not np.array_equal(before, after)

    def test_training_mid_inference_recomputes_the_stem(self):
        net, x, _ = self.make("conv_norm", np.float32)
        ref = SnnInstance(spec=net.spec, params=net.params)  # shares the params list
        npt.assert_array_equal(forward_timestep(net, x), forward_timestep(ref, x))
        self.train_one_step(net, x)
        # the same input array: the stem cached on the old weights is dropped
        npt.assert_array_equal(forward_timestep(net, x), forward_timestep(ref, x.copy()))

    def test_writing_into_a_parameter_after_inference_raises(self):
        net, x, _ = self.make("biased_conv_norm", np.float32)
        net.params[0]["w"][:] = 0.5  # writable before the first inference
        forward_timestep(net, x)
        for p in net.params:
            for arr in (p or {}).values():
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 0.0

    def test_clone_shares_the_built_plan_and_firing_mode(self):
        net, x, _ = self.make("conv_norm", np.float64)
        net.smooth_spikes = True
        logits = mean_after(net, x, 3)
        clone = net.clone_state()
        assert clone.smooth_spikes
        assert clone.inference_plan is net.inference_plan
        assert inference_params(clone) is inference_params(net)  # not rebuilt
        npt.assert_array_equal(mean_after(clone, x, 3), logits)

    @pytest.mark.parametrize("case", list(PLAN_CASES))
    @pytest.mark.parametrize("smooth", [False, True], ids=["strict", "smooth"])
    @pytest.mark.parametrize("dtype, rtol, atol", [
        (np.float64, 1e-12, 0.0),
        (np.float32, 1e-5, 1e-5),
    ], ids=["float64", "float32"])
    def test_step_buffers_match_the_reference_at_every_batch(self, case, smooth, dtype, rtol,
                                                             atol, monkeypatch):
        # The step's arrays are built per batch size: one row, two, a whole
        # scan tile and a tile plus one.  Activity counts the reference's
        # layer inputs, and no bool spike array reaches a GEMM or a norm.
        net, _, _ = self.make(case, dtype)
        net.smooth_spikes, net.record_activity = smooth, True
        if smooth:  # ramp outputs near zero carry the fold's absolute rounding
            atol = max(atol, rtol)
        tile = network._scan_rows(net.spec, np.dtype(dtype).itemsize, 512)
        seen = []
        for name in ("conv2d", "fully_connected", "batch_norm"):
            kernel = getattr(network, name)
            monkeypatch.setattr(network, name, lambda x, *a, kernel=kernel, **kw:
                                seen.append(x.dtype) or kernel(x, *a, **kw))
        s = net.spec.first_lif
        for rows in (1, 2, tile, tile + 1):
            x = (rng.standard_normal((rows,) + net.spec.input_shape) * 1.5).astype(dtype)
            inputs = []
            ref_logits, _ = reference_logits(net.spec, net.params, x, self.T_STEPS, smooth, inputs)
            reset_states(net)
            logits = np.stack([forward_timestep(net, x) for _ in range(self.T_STEPS)])
            npt.assert_allclose(logits, ref_logits, rtol=rtol, atol=atol)
            assert_on_the_arena(net)
            mapped = [i for i, plan in enumerate(net.spec.layer_plan) if plan.weight_shape]
            for t, row in enumerate(net.activity):
                for j, (i, h) in enumerate(zip(mapped, inputs[t * len(mapped):])):
                    want = (np.full(rows, h[0].size) if i < s
                            else [np.count_nonzero(sample) for sample in h])
                    npt.assert_array_equal(row[:, j], want)
        assert seen and bool not in seen

    def test_perturbed_instance_gets_its_own_plan(self):
        net, x, _ = self.make("conv_norm", np.float64)
        clean = mean_after(net, x, 3)
        noisy = perturbed_instance(net, 0.3, seed=2)
        noisy_logits = mean_after(noisy, x, 3)
        assert noisy.inference_plan is not net.inference_plan
        assert not np.array_equal(inference_params(noisy)[0]["w"], inference_params(net)[0]["w"])
        ref_logits, _ = reference_logits(noisy.spec, noisy.params, x, 3)
        npt.assert_allclose(noisy_logits, ref_logits.mean(axis=0), rtol=1e-12)
        npt.assert_array_equal(mean_after(net, x, 3), clean)


class TestForwardTimestep:
    def test_zero_weights_emit_bias(self):
        spec = tiny_conv_spec()
        net = build_instance(spec, seed=1)
        for i, layer in enumerate(spec.layers):
            if layer.kind in ("conv", "fc", "classifier"):
                net.params[i]["w"][:] = 0.0
        bias = np.array([0.3, -0.1, 0.8], dtype=np.float32)
        net.params[-1]["b"][:] = bias
        x = rng.standard_normal((2, 1, 8, 8)).astype(np.float32)
        reset_states(net)
        for _ in range(spec.t_max):
            logits = forward_timestep(net, x)
            npt.assert_allclose(logits, np.tile(bias, (2, 1)), atol=1e-6)

    def test_hand_unrolled_two_timesteps(self):
        # Two-neuron single-block network, weights set by hand; the expected
        # values below were worked out on paper from the update rules.
        spec = NetworkSpec(
            input_shape=(2,),
            num_classes=2,
            t_max=4,
            layers=(
                LayerSpec("fc", out_features=2),
                LayerSpec("lif"),
                LayerSpec("classifier"),
            ),
            lif=LifConfig(tau=0.5, v_th=1.0),
        )
        net = build_instance(spec, seed=0)
        net.params[0]["w"][:] = np.eye(2, dtype=np.float32)
        net.params[0]["b"][:] = 0.0
        net.params[2]["w"][:] = np.eye(2, dtype=np.float32)
        net.params[2]["b"][:] = np.array([0.1, -0.2], dtype=np.float32)
        x = np.array([[1.2, 0.6]], dtype=np.float32)

        reset_states(net)
        l1 = forward_timestep(net, x)
        # t=1: u = (1.2, 0.6) -> spikes (1, 0), membranes reset to (0, 0.6)
        npt.assert_allclose(l1, [[1.1, -0.2]], atol=1e-6)
        npt.assert_allclose(net.lif_states[1].u[0], [0.0, 0.6], atol=1e-6)

        l2 = forward_timestep(net, x)
        # t=2: u = 0.5*(0, 0.6) + (1.2, 0.6) = (1.2, 0.9) -> spikes (1, 0)
        npt.assert_allclose(l2, [[1.1, -0.2]], atol=1e-6)
        npt.assert_allclose(net.lif_states[1].u[0], [0.0, 0.9], atol=1e-6)
        npt.assert_allclose(mean_output(net), [[1.1, -0.2]], atol=1e-6)

    def test_accumulator_is_exact_sum_of_steps(self):
        net = build_instance(tiny_conv_spec(), seed=3)
        x = rng.standard_normal((3, 1, 8, 8)).astype(np.float32)
        reset_states(net)
        steps = [forward_timestep(net, x) for _ in range(4)]
        npt.assert_array_equal(net.accumulated_logits, steps[0] + steps[1] + steps[2] + steps[3])

    def test_step_beyond_t_max_raises(self):
        net = build_instance(tiny_conv_spec(t_max=2), seed=0)
        x = np.zeros((1, 1, 8, 8), dtype=np.float32)
        reset_states(net)
        forward_timestep(net, x)
        forward_timestep(net, x)
        with pytest.raises(StateError, match="t_max"):
            forward_timestep(net, x)

    def test_wrong_input_shape_raises(self):
        net = build_instance(tiny_conv_spec(), seed=0)
        with pytest.raises(ShapeError, match="input shape"):
            forward_timestep(net, np.zeros((1, 1, 7, 7), dtype=np.float32))

    def test_empty_batch_raises(self):
        net = build_instance(tiny_conv_spec(), seed=0)
        with pytest.raises(ShapeError, match="requires a non-empty batch"):
            forward_timestep(net, np.zeros((0, 1, 8, 8), dtype=np.float32))
        assert net.t == 0 and net.stem is None

    def test_deterministic_across_runs(self):
        x = rng.standard_normal((2, 1, 8, 8)).astype(np.float32)
        outs = []
        for _ in range(2):
            net = build_instance(tiny_conv_spec(), seed=42)
            reset_states(net)
            outs.append(np.stack([forward_timestep(net, x) for _ in range(4)]))
        npt.assert_array_equal(outs[0], outs[1])


class TestResetAndMean:
    def test_reset_then_reinfer_is_bit_identical(self):
        net = build_instance(tiny_conv_spec(), seed=5)
        x = rng.standard_normal((2, 1, 8, 8)).astype(np.float32)
        a = mean_after(net, x, 4)
        b = mean_after(net, x, 4)
        npt.assert_array_equal(a, b)

    def test_reset_equals_fresh_instance(self):
        x1 = rng.standard_normal((2, 1, 8, 8)).astype(np.float32)
        x2 = rng.standard_normal((2, 1, 8, 8)).astype(np.float32)
        reused = build_instance(tiny_conv_spec(), seed=9)
        out1 = mean_after(reused, x1, 4)
        out2 = mean_after(reused, x2, 4)
        fresh1 = build_instance(tiny_conv_spec(), seed=9)
        fresh2 = build_instance(tiny_conv_spec(), seed=9)
        npt.assert_array_equal(out1, mean_after(fresh1, x1, 4))
        npt.assert_array_equal(out2, mean_after(fresh2, x2, 4))

    def test_reset_on_fresh_instance_is_noop(self):
        net = build_instance(tiny_conv_spec(), seed=0)
        reset_states(net)
        assert net.t == 0 and net.accumulated_logits is None and not net.lif_states

    def test_mean_output_after_one_step(self):
        net = build_instance(tiny_conv_spec(), seed=2)
        x = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
        reset_states(net)
        step = forward_timestep(net, x)
        npt.assert_array_equal(mean_output(net), step)

    def test_mean_output_two_steps(self):
        net = build_instance(tiny_conv_spec(), seed=2)
        x = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
        reset_states(net)
        a = forward_timestep(net, x)
        b = forward_timestep(net, x)
        npt.assert_allclose(mean_output(net), (a + b) / 2.0, rtol=1e-6)

    def test_mean_output_without_steps_raises(self):
        net = build_instance(tiny_conv_spec(), seed=2)
        reset_states(net)
        with pytest.raises(StateError):
            mean_output(net)

    def test_t1_scan_equals_single_step(self):
        net = build_instance(tiny_conv_spec(), seed=2)
        x = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
        out = scan_timesteps(net, x, 1)["mean_logits"][:, 0]
        reset_states(net)
        step = forward_timestep(net, x)
        npt.assert_array_equal(out, step)


class TestScan:
    def test_scan_matches_manual_unroll(self):
        net = build_instance(tiny_conv_spec(), seed=11)
        x = rng.standard_normal((5, 1, 8, 8)).astype(np.float32)
        scan = scan_timesteps(net, x, 4, batch_size=5)
        reset_states(net)
        for t in range(4):
            forward_timestep(net, x)
            npt.assert_array_equal(scan["mean_logits"][:, t], mean_output(net))

    def test_scan_batch_split_invariant(self):
        net = build_instance(tiny_conv_spec(), seed=11)
        x = rng.standard_normal((7, 1, 8, 8)).astype(np.float32)
        a = scan_timesteps(net, x, 3, batch_size=7)["mean_logits"]
        b = scan_timesteps(net, x, 3, batch_size=2)["mean_logits"]
        npt.assert_allclose(a, b, atol=1e-6)

    @pytest.mark.parametrize("t_steps", [0, -1, 5])
    def test_t_steps_outside_range_rejected_before_any_step(self, t_steps, monkeypatch):
        net = build_instance(tiny_conv_spec(t_max=4), seed=11)
        calls = []
        monkeypatch.setattr(network, "forward_timestep", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=r"t_steps must be in \[1, 4\]"):
            scan_timesteps(net, np.zeros((3, 1, 8, 8), np.float32), t_steps)
        assert calls == []

    @pytest.mark.parametrize("batch_size", [0, -2])
    def test_batch_size_below_one_rejected(self, batch_size):
        net = build_instance(tiny_conv_spec(), seed=11)
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            scan_timesteps(net, np.zeros((3, 1, 8, 8), np.float32), 2, batch_size=batch_size)

    def test_empty_batch_rejected(self):
        net = build_instance(tiny_conv_spec(), seed=11)
        net.record_activity = True
        with pytest.raises(ValueError, match="requires a non-empty batch"):
            scan_timesteps(net, np.zeros((0, 1, 8, 8), np.float32), 2)

    @pytest.mark.parametrize("form", INPUT_FORMS)
    def test_images_are_taken_as_an_array_of_real_numbers(self, form):
        net = build_instance(tiny_conv_spec(), seed=11)
        net.record_activity = True
        x = rng.standard_normal((4, 1, 8, 8)).astype(np.float32)
        images = input_form(x, form)
        if form != "list":
            with pytest.raises(DataFormatError):
                scan_timesteps(net, images, 2)
            return
        got, want = scan_timesteps(net, images, 2), scan_timesteps(net, np.asarray(images), 2)
        npt.assert_array_equal(got["mean_logits"], want["mean_logits"])
        npt.assert_array_equal(got["activity"], want["activity"])

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_error_in_last_tile_is_raised_and_blas_restored(self, workers, monkeypatch):
        monkeypatch.setattr(kernels, "_scan_workers", lambda: workers)
        net, ref = (build_instance(tiny_conv_spec(), seed=11) for _ in range(2))
        net.record_activity = ref.record_activity = True
        x = rng.standard_normal((10, 1, 8, 8)).astype(np.float32)
        bad = x.copy()
        bad[-1, 0, 4, 4] = np.nan  # tiles of 3 rows: the NaN is in the last one
        before = kernels.blas_threads()
        with pytest.raises(DataFormatError, match="1 non-finite"):
            scan_timesteps(net, bad, 4, batch_size=3)
        assert kernels.blas_threads() == before
        assert net.t == 0 and net.lif_states == {} and net.stem is None
        got, want = (scan_timesteps(n, x, 4, batch_size=3) for n in (net, ref))
        npt.assert_array_equal(got["mean_logits"], want["mean_logits"])
        npt.assert_array_equal(got["activity"], want["activity"])

    def test_more_workers_than_cores_take_each_tile_once(self, monkeypatch):
        net = build_instance(tiny_conv_spec(), seed=11)
        net.record_activity = True
        x = rng.standard_normal((40, 1, 8, 8)).astype(np.float32)
        monkeypatch.setattr(kernels, "_scan_workers", lambda: 1)
        alone = scan_timesteps(net, x, 4, batch_size=1)
        tiles, step = [], network.forward_timestep  # a tile is known by its first row's address
        monkeypatch.setattr(network, "forward_timestep", lambda inst, chunk: tiles.append(
            chunk.__array_interface__["data"][0]) or step(inst, chunk))
        monkeypatch.setattr(kernels, "_scan_workers", lambda: len(os.sched_getaffinity(0)) + 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = scan_timesteps(net, x, 4, batch_size=1)
        finally:
            sys.setswitchinterval(interval)
        steps_per_tile = Counter(tiles)
        assert len(steps_per_tile) == 40 and set(steps_per_tile.values()) == {4}
        npt.assert_array_equal(got["mean_logits"], alone["mean_logits"])
        npt.assert_array_equal(got["activity"], alone["activity"])

    def test_helpers_fire_smooth_like_the_caller(self, monkeypatch):
        net = build_instance(tiny_conv_spec(), seed=11, dtype=np.float64)
        net.smooth_spikes = True
        x = rng.standard_normal((10, 1, 8, 8))
        scans = []
        for workers in (1, 3):
            monkeypatch.setattr(kernels, "_scan_workers", lambda: workers)
            scans.append(scan_timesteps(net, x, 4, batch_size=2)["mean_logits"])
        npt.assert_array_equal(scans[1], scans[0])
        net.smooth_spikes = False
        assert not np.array_equal(scan_timesteps(net, x, 4, batch_size=2)["mean_logits"], scans[0])

    def test_tile_rows_from_block_bytes(self):
        # The first block of configs/mnist.yaml: its widest activation,
        # conv0's 12x28x28 output (37.6 KB in float32), sets the tile.
        spec = NetworkSpec(
            input_shape=(1, 28, 28), num_classes=10, t_max=4,
            layers=(LayerSpec("conv", out_channels=12), LayerSpec("norm"), LayerSpec("lif"),
                    LayerSpec("pool", window=2), LayerSpec("classifier")),
        )
        assert network._scan_rows(spec, 4, 512) == 27
        assert network._scan_rows(spec, 8, 512) == 13
        assert network._scan_rows(spec, 4, 10) == 10  # batch_size caps the tile
        assert network._scan_rows(spec, 4 * kernels.BLOCK_BYTES, 512) == 1

    def test_tiles_stay_within_byte_budget(self, monkeypatch):
        net = build_instance(tiny_conv_spec(), seed=11)
        net.record_activity = True
        x = rng.standard_normal((10, 1, 8, 8)).astype(np.float32)
        whole = scan_timesteps(net, x, 4, batch_size=10)
        # The widest activation is the first conv's 4x8x8 float32 output, 1 KB.
        monkeypatch.setattr(kernels, "BLOCK_BYTES", 3 * 1024 + 1000)
        rows, step = [], network.forward_timestep
        monkeypatch.setattr(network, "forward_timestep",
                            lambda net, x: rows.append(len(x)) or step(net, x))
        for cap, tiles in ((512, [3, 3, 3, 1]), (2, [2] * 5)):
            rows.clear()
            tiled = scan_timesteps(net, x, 4, batch_size=cap)
            # workers take tiles concurrently: the calls come in no set order
            assert Counter(rows) == Counter(r for r in tiles for _ in range(4))
            npt.assert_array_equal(tiled["activity"], whole["activity"])
            npt.assert_allclose(tiled["mean_logits"], whole["mean_logits"], atol=1e-6)

    @pytest.mark.skipif(kernels.blas_threads() is None,
                        reason="helpers run only where BLAS can be held at one thread")
    def test_kernels_inside_a_tile_run_inline_on_its_worker(self, monkeypatch):
        net = build_instance(tiny_conv_spec(), seed=11)
        net.record_activity = True
        x = rng.standard_normal((40, 1, 8, 8)).astype(np.float32)
        # Tiles of 3 samples; the first conv unfolds 2.3 KB a sample, so each
        # of its calls has 3 blocks.
        monkeypatch.setattr(kernels, "BLOCK_BYTES", 3 * 1024 + 1000)
        monkeypatch.setattr(kernels, "_scan_workers", lambda: 1)
        alone = scan_timesteps(net, x, 4)
        monkeypatch.setattr(kernels, "_scan_workers", lambda: 2)
        scan_timesteps(net, x, 4)  # the pool starts its helper
        pool = kernels._helper_pool()
        threads, submits, submit = len(pool._threads), [], pool.submit
        monkeypatch.setattr(pool, "submit", lambda *a: submits.append(a) or submit(*a))
        tile, calls = threading.local(), []
        step, conv = network.forward_timestep, network.conv2d

        def tile_step(inst, chunk):
            tile.thread = threading.get_ident()
            return step(inst, chunk)

        def recorded_conv(x, *args, buffers):
            calls.append((getattr(tile, "thread", None), threading.get_ident(), len(x),
                          len(buffers.blocks)))
            return conv(x, *args, buffers=buffers)

        monkeypatch.setattr(network, "forward_timestep", tile_step)
        monkeypatch.setattr(network, "conv2d", recorded_conv)
        done = {}
        scanner = threading.Thread(target=lambda: done.update(scan=scan_timesteps(net, x, 4)))
        scanner.start()
        scanner.join(60)
        assert not scanner.is_alive()
        assert len(submits) == 1 and len(pool._threads) == threads
        # several blocks per call, of one sample each; the last tile has one sample
        assert {(rows, blocks) for _, _, rows, blocks in calls} == {(3, 3), (1, 1)}
        assert all(owner == thread for owner, thread, _, _ in calls)
        npt.assert_array_equal(done["scan"]["mean_logits"], alone["mean_logits"])
        npt.assert_array_equal(done["scan"]["activity"], alone["activity"])

    def test_activity_counts_spikes(self):
        net = build_instance(tiny_conv_spec(), seed=13)
        net.record_activity = True
        x = rng.standard_normal((3, 1, 8, 8)).astype(np.float32)
        scan = scan_timesteps(net, x, 2, batch_size=3)
        act = scan["activity"]
        assert act.shape == (3, 2, 3)  # two convs + classifier are mapped
        npt.assert_array_equal(act[:, :, 0], 64.0)  # analog first layer: all 64 pixels

    def test_only_stem_layers_count_analog_input(self):
        # A LIF-first net has no stem: its first conv sees spikes, and an
        # all-zero input presents none.
        spec = NetworkSpec(
            input_shape=(2, 6, 6),
            num_classes=3,
            t_max=2,
            layers=(
                LayerSpec("lif"),
                LayerSpec("conv", out_channels=3, kernel=3, stride=1, padding=1),
                LayerSpec("lif"),
                LayerSpec("pool", window=2),
                LayerSpec("classifier"),
            ),
        )
        net = build_instance(spec, seed=0)
        net.record_activity = True
        scan = scan_timesteps(net, np.zeros((2, 2, 6, 6), dtype=np.float32), 2)
        npt.assert_array_equal(scan["activity"], 0.0)

    def test_batch_one_count_matches_batched_count(self):
        h = (rng.random((3, 12, 14, 14)) < 0.4).astype(np.float32)
        batched = network._count_inputs(h, analog=False)
        for i in range(3):
            one = network._count_inputs(h[i : i + 1], analog=False)
            assert one.dtype == np.float64 and one.shape == (1,)
            npt.assert_array_equal(one, batched[i : i + 1])


class TestStemCache:
    # tiny_conv_spec's stem is conv -> norm; forward_timestep computes it once
    # per input array and serves it from the instance on later timesteps.
    def make_pair(self, seed=3):
        nets = [build_instance(tiny_conv_spec(), seed=seed) for _ in range(2)]
        for net in nets:
            net.record_activity = True
        return nets

    def test_reused_input_matches_fresh_copies(self):
        net, ref = self.make_pair()
        x = rng.standard_normal((5, 1, 8, 8)).astype(np.float32)
        for _ in range(4):
            npt.assert_array_equal(forward_timestep(net, x), forward_timestep(ref, x.copy()))
        npt.assert_array_equal(mean_output(net), mean_output(ref))
        assert len(net.activity) == len(ref.activity) == 4
        for a, b in zip(net.activity, ref.activity):
            npt.assert_array_equal(a, b)

    def test_new_array_mid_run_is_recomputed(self):
        net, ref = self.make_pair()
        x1, x2 = rng.standard_normal((2, 5, 1, 8, 8)).astype(np.float32)
        for x in (x1, x2, x2):
            npt.assert_array_equal(forward_timestep(net, x), forward_timestep(ref, x.copy()))
        assert net.stem[0] is x2
        for a, b in zip(net.activity, ref.activity):
            npt.assert_array_equal(a, b)

    def test_recording_switched_on_mid_input_counts_the_stem(self):
        net, ref = self.make_pair()
        net.record_activity = False
        x = rng.standard_normal((5, 1, 8, 8)).astype(np.float32)
        forward_timestep(net, x)
        assert net.stem[2] is None and net.activity == []
        net.record_activity = True
        want = [forward_timestep(ref, x) for _ in range(2)][1]
        npt.assert_array_equal(forward_timestep(net, x), want)
        assert len(net.activity) == 1
        npt.assert_array_equal(net.activity[0], ref.activity[1])

    def test_reset_clone_and_perturbed_start_without_stem(self):
        net, ref = self.make_pair()
        x = rng.standard_normal((5, 1, 8, 8)).astype(np.float32)
        forward_timestep(net, x)
        assert net.stem is not None
        assert net.clone_state().stem is None
        noisy = perturbed_instance(net, 0.2, seed=1)
        assert noisy.stem is None
        npt.assert_array_equal(
            forward_timestep(noisy, x),
            forward_timestep(perturbed_instance(ref, 0.2, seed=1), x.copy()),
        )
        reset_states(net)
        assert net.stem is None
        x *= 2.0  # mutated in place: only valid after reset_states
        npt.assert_array_equal(forward_timestep(net, x), forward_timestep(ref.clone_state(), x.copy()))

    def test_stem_convolutions_run_once_per_input(self, monkeypatch):
        calls = []
        conv2d = network.conv2d
        monkeypatch.setattr(
            network, "conv2d", lambda *a, **kw: calls.append(a[0].shape) or conv2d(*a, **kw)
        )
        net = build_instance(tiny_conv_spec(t_max=4), seed=2)
        x = rng.standard_normal((3, 1, 8, 8)).astype(np.float32)
        mean_after(net, x, 4)
        n_conv, n_stem_conv, t_steps = 2, 1, 4
        assert len(calls) == t_steps * n_conv - (t_steps - 1) * n_stem_conv


class TestStepBuffers:
    # forward_timestep runs every layer on arrays the instance builds once
    # per (rows, dtype, firing mode) and keeps.
    MNIST = parse_config(Path(__file__).resolve().parents[1] / "configs" / "mnist.yaml").network

    def make(self, seed=0):
        net = randomize_norms(build_instance(self.MNIST, seed=seed), seed)
        net.record_activity = True
        return net

    def images(self, rows, seed=0):
        shape = (rows,) + self.MNIST.input_shape
        return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)

    @pytest.mark.parametrize("rows", [1, 27], ids=["batch_1", "tile"])
    def test_a_step_at_a_fixed_shape_allocates_nothing(self, rows):
        # Only the logits and the activity row of each step are new.  numpy
        # keeps a scratch of getbufsize() elements per operand for strided
        # and casting loops; it is shrunk here so the peak shows arrays.
        assert network._scan_rows(self.MNIST, 4, 512) == 27
        net, x = self.make(), self.images(rows)
        reset_states(net)
        forward_timestep(net, x)
        new_rows = 3 * rows * (self.MNIST.num_classes * 4 + 4 * 8)  # float32 logits, 4 counts
        old = np.setbufsize(16)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(3):
                forward_timestep(net, x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
            np.setbufsize(old)
        assert peak < new_rows + 6 * 1024

    def test_clones_never_share_step_buffers(self):
        net, x = self.make(), self.images(3)
        clone = net.clone_state()
        for inst in (net, clone):
            mean_after(inst, x, 2)
        mine, theirs = step_arrays(net), step_arrays(clone)
        assert mine and theirs
        assert not any(np.shares_memory(a, b) for a in mine for b in theirs)

    def test_clones_scanned_in_two_threads_match_one_thread(self):
        net, x = self.make(), self.images(60, seed=1)
        want = scan_timesteps(net, x, 4, batch_size=27)
        clones, got = [net.clone_state() for _ in range(2)], [None, None]

        def scan(k):
            for _ in range(3):
                got[k] = scan_timesteps(clones[k], x, 4, batch_size=27)

        threads = [threading.Thread(target=scan, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
        for result in got:
            npt.assert_array_equal(result["mean_logits"], want["mean_logits"])
            npt.assert_array_equal(result["activity"], want["activity"])

    def test_one_instance_scanned_in_more_threads_than_cores_matches_one_thread(self):
        # One scan at a time takes the instance's workspace, the others lend
        # the parts of new ones; none writes into another's tiles.
        net, x = self.make(), self.images(60, seed=1)
        want = scan_timesteps(net, x, 4, batch_size=27)
        got = [[] for _ in range(len(os.sched_getaffinity(0)) + 1)]

        def scan(k):
            for _ in range(3):
                got[k].append(scan_timesteps(net, x, 4, batch_size=27))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=scan, args=(k,)) for k in range(len(got))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for results in got:
            assert len(results) == 3
            for result in results:
                npt.assert_array_equal(result["mean_logits"], want["mean_logits"])
                npt.assert_array_equal(result["activity"], want["activity"])

    def test_a_second_scan_allocates_no_part(self, monkeypatch):
        # A scan lends each worker's clone one part of the instance's arena,
        # which the first scan grows to two parts and the second finds: it
        # peaks below one part, where new clone arenas would take two.
        monkeypatch.setattr(kernels, "_scan_workers", lambda: 2)
        net, x = self.make(), self.images(64)
        with kernels.inline_blocks(True):
            part = network.pack(network.step_plan(net.spec, inference_params(net),
                                                  (27, np.dtype(np.float32), False, True)))[1]
        scan_timesteps(net, x, 4)
        arena = net.workspace._arena
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            scan_timesteps(net, x, 4)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < part, (peak, part)
        assert net.workspace._arena is arena and arena.nbytes == 2 * network._page_up(part)

    def test_replaced_weights_run_on_the_same_buffers(self):
        net, x = self.make(), self.images(2)
        before = mean_after(net, x, 2)
        arena = net.step_buffers._memory._arena
        w = net.params[0]["w"]
        sgd_step(net, {0: {"w": np.ones_like(w)}}, {}, lr=0.1, momentum=0.0, weight_decay=0.0)
        assert net.params[0]["w"] is not w
        after = mean_after(net, x, 2)
        assert arena is not None and net.step_buffers._memory._arena is arena
        npt.assert_array_equal(after, mean_after(SnnInstance(spec=net.spec, params=net.params), x, 2))
        assert not np.array_equal(before, after)

    def sequence(self, net, x, t_steps=3):
        """Every step's logits and activity row of one sequence from rest."""
        reset_states(net)
        logits = np.stack([forward_timestep(net, x) for _ in range(t_steps)])
        return logits, np.stack(net.activity) if net.record_activity else None

    def fresh(self, net):
        """An instance on the same parameters whose step is built from scratch."""
        return SnnInstance(spec=net.spec, params=net.params, record_activity=net.record_activity,
                           smooth_spikes=net.smooth_spikes)

    def test_weights_replaced_after_a_build_get_a_new_program_on_the_same_arrays(self):
        net, x = self.make(), self.images(2)
        self.sequence(net, x)
        arena, program = net.step_buffers._memory._arena, net.step_buffers._program
        w = net.params[4]["w"]
        sgd_step(net, {4: {"w": np.ones_like(w)}}, {}, lr=0.1, momentum=0.0, weight_decay=0.0)
        logits, activity = self.sequence(net, x)
        assert arena is not None and net.step_buffers._memory._arena is arena
        assert net.step_buffers._program is not program
        want_logits, want_activity = self.sequence(self.fresh(net), x)
        npt.assert_array_equal(logits, want_logits)
        npt.assert_array_equal(activity, want_activity)

    def test_weights_replaced_mid_sequence_carry_the_potentials_over(self):
        # The rebuild lays the potentials out on the same bytes; the next
        # step continues from them on the new weights.
        net, x = self.make(), self.images(2)
        reset_states(net)
        forward_timestep(net, x)
        potentials = {i: state.u.copy() for i, state in net.lif_states.items()}
        program = net.step_buffers._program
        w = net.params[4]["w"]
        sgd_step(net, {4: {"w": np.ones_like(w)}}, {}, lr=0.1, momentum=0.0, weight_decay=0.0)
        rebuilt = net.step_buffers.program(net, inference_params(net), len(x), x.dtype)
        assert rebuilt is not program
        assert potentials.keys() == net.lif_states.keys()
        for i, u in potentials.items():
            assert net.lif_states[i].u is rebuilt.potentials[i]
            npt.assert_array_equal(net.lif_states[i].u, u)
        fresh = self.fresh(net)
        fresh.lif_states = {i: LifState(u.copy()) for i, u in potentials.items()}
        npt.assert_array_equal(forward_timestep(net, x), forward_timestep(fresh, x))

    @pytest.mark.parametrize("case", list(PLAN_CASES) + ["mnist"])
    @pytest.mark.parametrize("rows", [1, 27], ids=["batch_1", "tile"])
    def test_a_new_layout_mid_sequence_carries_the_potentials_over(self, case, rows):
        # A step of another input dtype or recording plans other arrays,
        # whose layout may put any of them on a potential's old bytes, as a
        # convolution's bordered scratch, zeroed at its build.  Each step
        # continues from the potentials of the last one, as a fresh
        # instance given them does.
        if case == "mnist":
            spec = dataclasses.replace(self.MNIST, t_max=6)
        else:
            layers, input_shape, _ = PLAN_CASES[case]
            spec = NetworkSpec(input_shape=input_shape, num_classes=3, t_max=6, layers=layers)
        net = randomize_norms(build_instance(spec, seed=1), 1)
        x = np.random.default_rng(rows).standard_normal((rows,) + spec.input_shape)
        for dtype, record in ((np.float32, False), (np.float32, True), (np.float64, True),
                              (np.float64, False), (np.float32, False), (np.float32, True)):
            fresh = SnnInstance(spec=spec, params=net.params)
            fresh.lif_states = {i: LifState(state.u.copy()) for i, state in net.lif_states.items()}
            net.record_activity = record
            npt.assert_array_equal(forward_timestep(net, x.astype(dtype)),
                                   forward_timestep(fresh, x.astype(dtype)))

    def test_recording_switched_on_after_an_unrecorded_step_counts_the_next(self):
        net, x = self.make(), self.images(2)
        net.record_activity = False
        first = forward_timestep(net, x)
        assert net.activity == []
        net.record_activity = True
        second = forward_timestep(net, x)
        want_logits, want_activity = self.sequence(self.fresh(net), x, 2)
        npt.assert_array_equal(np.stack([first, second]), want_logits)
        assert len(net.activity) == 1
        npt.assert_array_equal(net.activity[0], want_activity[1])
        logits, activity = self.sequence(net, x)
        want_logits, want_activity = self.sequence(self.fresh(net), x)
        npt.assert_array_equal(logits, want_logits)
        npt.assert_array_equal(activity, want_activity)

    def test_smooth_spikes_toggled_between_sequences(self):
        net, x = self.make(), self.images(2)
        for smooth in (False, True, False, True):
            net.smooth_spikes = smooth
            logits, activity = self.sequence(net, x)
            want_logits, want_activity = self.sequence(self.fresh(net), x)
            npt.assert_array_equal(logits, want_logits)
            npt.assert_array_equal(activity, want_activity)

    def test_weights_of_another_dtype_get_buffers_of_theirs(self):
        net, x = self.make(), self.images(2)
        mean_after(net, x, 1)
        net.params = [None if p is None else {k: v.astype(np.float64) for k, v in p.items()}
                      for p in net.params]
        got = mean_after(net, x, 2)
        assert got.dtype == np.float64
        npt.assert_array_equal(got, mean_after(SnnInstance(spec=net.spec, params=net.params), x, 2))

    def test_reset_drops_the_potentials_and_the_next_step_starts_from_rest(self):
        net, x = self.make(), self.images(2)
        first = forward_timestep(net, x)
        forward_timestep(net, x)
        assert net.lif_states
        reset_states(net)
        assert net.lif_states == {} and net.stem is None
        npt.assert_array_equal(forward_timestep(net, x), first)

    def test_batch_size_change_without_reset_raises(self):
        net = self.make()
        forward_timestep(net, self.images(2))
        with pytest.raises(StateError, match="batch size changed"):
            forward_timestep(net, self.images(3))
        reset_states(net)
        forward_timestep(net, self.images(3))

    @pytest.mark.parametrize("rows", [1, 27], ids=["batch_1", "tile"])
    @pytest.mark.parametrize("smooth", [False, True], ids=["strict", "smooth"])
    def test_a_fresh_build_lays_every_array_on_the_arena(self, rows, smooth):
        # The step's layout is made before its arrays are taken from it, so
        # every array the calls are bound to lies in the one arena.
        net = self.make()
        net.smooth_spikes = smooth
        mean_after(net, self.images(rows), 1)
        assert_on_the_arena(net)

    def test_a_batch_above_one_tile_keeps_no_arrays(self, monkeypatch):
        # It runs on arrays of its own, built at its first step, used by the
        # rest of its steps and dropped by reset_states.
        calls = []  # weak references to each call's output buffer
        conv2d = network.conv2d
        monkeypatch.setattr(network, "conv2d", lambda *a, **kw:
                            calls.append(weakref.ref(kw["buffers"].out)) or conv2d(*a, **kw))
        net, x = self.make(), self.images(30)
        got = mean_after(net, x, 2)
        assert net.step_buffers._memory._arena is None
        assert net.step_buffers._program.memory is not net.step_buffers._memory
        convs = sum(layer.kind == "conv" for layer in self.MNIST.layers)
        outs = [ref() for ref in calls]
        assert len(outs) == 2 * convs - 1  # the stem runs once
        assert all(out is not None for out in outs)
        assert len({id(out) for out in outs}) == convs  # one build for both steps
        del outs
        ref_logits, _ = reference_logits(net.spec, net.params, x, 2)
        npt.assert_allclose(got, ref_logits.mean(axis=0), rtol=1e-5, atol=1e-5)
        reset_states(net)
        assert all(ref() is None for ref in calls)

    @pytest.mark.parametrize("rows, walks", [((1, 27, 10, 27, 1), [1, 1, 1, 1, 1]),
                                             ((12, 27), [1, 1])])
    def test_every_build_walks_once(self, rows, walks, monkeypatch):
        # The step's plan is laid out before the walk takes its arrays, so
        # no array the walk hands out moves under it.
        seen = []
        step_program = network._step_program
        monkeypatch.setattr(network, "_step_program", lambda *a: seen.append(1) or step_program(*a))
        net, counts = self.make(), []
        for n in rows:
            seen.clear()
            reset_states(net)
            forward_timestep(net, self.images(n))
            counts.append(len(seen))
            assert_on_the_arena(net)
        assert counts == walks

    def test_a_step_of_one_tile_runs_its_blocks_inline(self, monkeypatch):
        # A step of at most one scan tile (27 rows here) runs its blocks
        # inline, as inside a scan tile, where a fork-join saves nothing; a
        # larger step splits its convolutions' blocks across the workers.
        monkeypatch.setattr(kernels, "_scan_workers", lambda: 2)
        pool, submits = kernels._helper_pool(), []
        submit = pool.submit
        monkeypatch.setattr(pool, "submit", lambda *a: submits.append(a) or submit(*a))
        net = self.make()
        want = mean_after(self.fresh(net), self.images(27), 2)
        submits.clear()
        got = mean_after(net, self.images(27), 2)
        assert submits == []
        npt.assert_array_equal(got, want)
        reset_states(net)
        forward_timestep(net, self.images(60))
        assert submits

    def test_a_smaller_batch_takes_a_prefix(self):
        net = self.make()
        mean_after(net, self.images(27), 1)
        memory = net.step_buffers._memory
        arena, offsets = memory._arena, {k: r[0] for k, r in memory._regions.items()}
        small = mean_after(net, self.images(10, seed=3), 2)
        assert memory._arena is arena
        assert {k: r[0] for k, r in memory._regions.items()} == offsets
        assert all(memory.planned(k).shape[0] == 10 for k in offsets if k[1] != "scratch")
        npt.assert_array_equal(small, mean_after(self.make(), self.images(10, seed=3), 2))

    def test_steps_of_other_row_counts_run_on_one_layout(self):
        # Steps of 1, 27, 10, 27 and 1 rows: only the 1-row step and the
        # first 27-row step allocate an arena, the others lay their plans
        # over the 27-row layout.  Each row count's steps match a fresh
        # instance's, and its second step allocates only its logits and
        # activity row (as in test_a_step_at_a_fixed_shape_allocates_nothing).
        net, arenas = self.make(), []
        for rows in (1, 27, 10, 27, 1):
            x = self.images(rows, seed=rows)
            reset_states(net)
            first = forward_timestep(net, x)
            arenas.append(net.step_buffers._memory._arena)
            old = np.setbufsize(16)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                second = forward_timestep(net, x)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
                np.setbufsize(old)
            assert peak < rows * (self.MNIST.num_classes * 4 + 4 * 8) + 6 * 1024
            logits, activity = np.stack([first, second]), np.stack(net.activity)
            want_logits, want_activity = self.sequence(self.fresh(net), x, 2)
            npt.assert_array_equal(logits, want_logits)
            npt.assert_array_equal(activity, want_activity)
        assert arenas[0] is not arenas[1]
        assert all(arena is arenas[1] for arena in arenas[2:])

    def test_a_step_too_large_to_allocate_raises_config_error(self):
        # A (2**21 + 1)-pixel square conv output: an arena of about 64 TiB,
        # on parameters of a few bytes.
        spec = NetworkSpec((1, 1, 1), 2, 2, (
            LayerSpec("conv", out_channels=1, kernel=1, padding=2**20), LayerSpec("lif"),
            LayerSpec("pool", window=2**21 + 1), LayerSpec("classifier")))
        net = build_instance(spec, seed=0)
        with pytest.raises(ConfigError, match=r"needs a workspace of \d+ bytes"):
            forward_timestep(net, np.zeros((1, 1, 1, 1), np.float32))


class TestStepPlan:
    @pytest.mark.parametrize("case", list(PLAN_CASES) + ["mnist"])
    @pytest.mark.parametrize("smooth", [False, True], ids=["strict", "smooth"])
    @pytest.mark.parametrize("record", [False, True], ids=["unrecorded", "recorded"])
    @pytest.mark.parametrize("rows", [1, 27, 60], ids=["batch_1", "tile", "60_rows_2_workers"])
    def test_the_step_program_requests_what_the_step_plan_lays_out(self, case, smooth, record,
                                                                   rows, monkeypatch):
        # step_plan re-encodes the rules of _step_program's walk.  Every
        # array a build requests is a slot of the plan with its shape and
        # dtype, every slot is requested, and the kernels' scratch requests
        # fill each planned scratch exactly.  A scan tile is 27 rows for
        # every spec here, so a 60-row step plans and runs on a workspace of
        # its own, its blocks split across two workers.
        if case == "mnist":
            spec = TestStepBuffers.MNIST
        else:
            layers, input_shape, _ = PLAN_CASES[case]
            spec = NetworkSpec(input_shape=input_shape, num_classes=3, t_max=4, layers=layers)
        widest = max(math.prod(shape) for plan in spec.layer_plan
                     for shape in (plan.in_shape, plan.out_shape))
        monkeypatch.setattr(kernels, "BLOCK_BYTES", 27 * widest * 4)
        monkeypatch.setattr(kernels, "_scan_workers", lambda: 2)
        requests, scratch = {}, {}
        planned, scratch_of = network.Workspace.planned, network.Workspace.scratch

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

        monkeypatch.setattr(network.Workspace, "planned", recording)
        monkeypatch.setattr(network.Workspace, "scratch", recording_scratch)
        net = randomize_norms(build_instance(spec, seed=0), 0)
        net.smooth_spikes, net.record_activity = smooth, record
        x = np.random.default_rng(rows).standard_normal((rows,) + spec.input_shape)
        mean_after(net, x.astype(np.float32), 2)
        program = net.step_buffers._program
        assert bool(program.blocks.inline) == (rows <= 27)
        with program.blocks:
            plan = network.step_plan(spec, inference_params(net), program.key)
        assert program.memory.plan == plan
        assert requests == {key: {slot} for key, slot in plan.slots.items()
                            if key[1] != "scratch"}
        assert scratch == {key: shape[0] for key, (shape, _) in plan.slots.items()
                           if key[1] == "scratch"}

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.sampled_from([0, 1, 4096, 4097, 8192]),
                                        st.integers(0, 20_000)),
                              st.sampled_from([np.uint8, np.float32, np.float64]),
                              st.integers(0, 9), st.integers(0, 9)), max_size=30))
    def test_pack_lays_out_as_the_reference_does(self, slots):
        # Random plans, with ties in size and in offset: the same offsets and
        # arena size as the layout that sorts the placed arrays again for
        # every array it places.
        plan = network.TapePlan({}, {}, None)
        for key, (elems, dt, a, b) in enumerate(slots):
            plan.use(plan.new(key, (elems,), dt, min(a, b)), max(a, b))
        assert network.pack(plan) == pack_reference(plan)

    def test_the_mnist_step_arena_stays_within_its_bound(self):
        # float32 on one worker, as a step of at most one tile runs.  The
        # bounds are the bytes a step kept before its arrays were planned:
        # 250,432 at 1 row (plus 16 KiB of page alignment) and 5,283,936 at 27.
        net = build_instance(TestStepBuffers.MNIST, seed=0)
        for rows, kept in ((1, 250_432 + 16 * 1024), (27, 5_283_936)):
            with kernels.inline_blocks(True):
                plan = network.step_plan(net.spec, inference_params(net),
                                         (rows, np.dtype(np.float32), False, True))
            assert network.pack(plan)[1] <= kept


class TestSpecValidation:
    def test_requires_single_trailing_classifier(self):
        with pytest.raises(ValueError, match="classifier"):
            NetworkSpec((1, 8, 8), 3, 4, (LayerSpec("conv", out_channels=2), LayerSpec("lif")))

    def test_requires_lif_layer(self):
        with pytest.raises(ValueError, match="lif"):
            NetworkSpec((1, 8, 8), 3, 4, (LayerSpec("conv", out_channels=2), LayerSpec("classifier")))

    def test_shape_composition_checked(self):
        with pytest.raises(ShapeError, match="pool"):
            NetworkSpec(
                (1, 9, 9), 3, 4,
                (LayerSpec("lif"), LayerSpec("pool", window=2), LayerSpec("classifier")),
            )

    @pytest.mark.parametrize("layer, message", [
        (LayerSpec("pool", window=0), "pool window must be >= 1, got 0"),
        (LayerSpec("pool", window=-2), "pool window must be >= 1, got -2"),
        (LayerSpec("fc"), "out_features must be >= 1, got 0"),
        (LayerSpec("fc", out_features=-3), "out_features must be >= 1, got -3"),
    ], ids=["pool_window_0", "pool_window_negative", "fc_default_width", "fc_negative"])
    def test_empty_layer_rejected(self, layer, message):
        with pytest.raises(ShapeError, match=message):
            NetworkSpec((1, 8, 8), 3, 4, (LayerSpec("lif"), layer, LayerSpec("classifier")))
