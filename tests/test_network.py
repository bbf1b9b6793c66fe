"""LIF dynamics and the per-timestep forward pass of the spiking network."""

import numpy as np
import numpy.testing as npt
import pytest

from dtsnn import network
from dtsnn.errors import ShapeError, StateError
from dtsnn.hardware import perturbed_instance
from dtsnn.network import (
    LayerSpec,
    LifConfig,
    LifState,
    NetworkSpec,
    SnnInstance,
    build_instance,
    forward_timestep,
    lif_step,
    mean_output,
    reset_states,
    static_forward,
    scan_timesteps,
)

from oracles import lif_sequence_reference

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
        state = LifState(u=np.zeros(1), last_spikes=np.zeros(1))
        spikes = lif_step(state, np.array([2.0]), cfg)
        npt.assert_array_equal(spikes, [1.0])
        npt.assert_array_equal(state.u, [0.0])

    def test_subthreshold_decay(self):
        cfg = LifConfig(tau=0.5, v_th=1.0)
        state = LifState(u=np.array([0.4]), last_spikes=np.zeros(1))
        spikes = lif_step(state, np.array([0.0]), cfg)
        npt.assert_array_equal(spikes, [0.0])
        npt.assert_allclose(state.u, [0.2])

    def test_threshold_is_strict(self):
        cfg = LifConfig(tau=1.0, v_th=1.0)
        state = LifState(u=np.zeros(1), last_spikes=np.zeros(1))
        spikes = lif_step(state, np.array([1.0]), cfg)
        npt.assert_array_equal(spikes, [0.0])  # u == v_th does not fire

    def test_eight_step_sequence_matches_scalar_oracle(self):
        cfg = LifConfig(tau=0.5, v_th=1.0)
        currents = rng.uniform(-0.5, 1.5, size=8)
        ref_spikes, ref_u = lif_sequence_reference(currents, 0.5, 1.0)
        state = LifState(u=np.zeros(1), last_spikes=np.zeros(1))
        for t in range(8):
            s = lif_step(state, np.array([currents[t]]), cfg)
            assert s[0] == ref_spikes[t]
            assert state.u[0] == ref_u[t]

    def test_batch_of_sequences_matches_oracle(self):
        cfg = LifConfig(tau=0.7, v_th=0.9)
        currents = rng.uniform(-0.5, 1.5, size=(8, 32))
        state = LifState(u=np.zeros(32), last_spikes=np.zeros(32))
        refs = [lif_sequence_reference(currents[:, j], 0.7, 0.9) for j in range(32)]
        for t in range(8):
            s = lif_step(state, currents[t], cfg)
            for j in range(32):
                assert s[j] == refs[j][0][t]
                assert state.u[j] == refs[j][1][t]

    def test_spikes_are_binary_and_hard_reset(self):
        cfg = LifConfig()
        state = LifState(u=np.zeros(100), last_spikes=np.zeros(100))
        for _ in range(10):
            s = lif_step(state, rng.uniform(-1, 2, size=100), cfg)
            assert set(np.unique(s)).issubset({0.0, 1.0})
            assert not state.u[s == 1.0].any()

    def test_geometric_decay_without_input(self):
        cfg = LifConfig(tau=0.8, v_th=10.0)
        u0 = 0.5
        state = LifState(u=np.array([u0]), last_spikes=np.zeros(1))
        zero = np.array([0.0])
        for t in range(1, 6):
            lif_step(state, zero, cfg)
            npt.assert_allclose(state.u, [u0 * 0.8**t], rtol=1e-12)

    def test_shape_mismatch(self):
        state = LifState(u=np.zeros(3), last_spikes=np.zeros(3))
        with pytest.raises(ShapeError):
            lif_step(state, np.zeros(4), LifConfig())

    def test_invalid_config(self):
        with pytest.raises(ValueError, match="tau"):
            LifConfig(tau=1.5)
        with pytest.raises(ValueError, match="v_th"):
            LifConfig(v_th=0.0)


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
        a = static_forward(net, x, 4)
        b = static_forward(net, x, 4)
        npt.assert_array_equal(a, b)

    def test_reset_equals_fresh_instance(self):
        x1 = rng.standard_normal((2, 1, 8, 8)).astype(np.float32)
        x2 = rng.standard_normal((2, 1, 8, 8)).astype(np.float32)
        reused = build_instance(tiny_conv_spec(), seed=9)
        out1 = static_forward(reused, x1, 4)
        out2 = static_forward(reused, x2, 4)
        fresh1 = build_instance(tiny_conv_spec(), seed=9)
        fresh2 = build_instance(tiny_conv_spec(), seed=9)
        npt.assert_array_equal(out1, static_forward(fresh1, x1, 4))
        npt.assert_array_equal(out2, static_forward(fresh2, x2, 4))

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

    def test_static_forward_range_check(self):
        net = build_instance(tiny_conv_spec(t_max=4), seed=2)
        x = np.zeros((1, 1, 8, 8), dtype=np.float32)
        with pytest.raises(ValueError):
            static_forward(net, x, 0)
        with pytest.raises(ValueError):
            static_forward(net, x, 5)

    def test_t1_static_equals_single_step(self):
        net = build_instance(tiny_conv_spec(), seed=2)
        x = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
        out = static_forward(net, x, 1)
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

    def test_activity_counts_spikes(self):
        net = build_instance(tiny_conv_spec(), seed=13)
        net.record_activity = True
        x = rng.standard_normal((3, 1, 8, 8)).astype(np.float32)
        scan = scan_timesteps(net, x, 2, batch_size=3)
        act = scan["activity"]
        assert act.shape == (3, 2, 3)  # two convs + classifier are mapped
        npt.assert_array_equal(act[:, :, 0], 64.0)  # analog first layer: all 64 pixels


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
        static_forward(net, x, 4)
        n_conv, n_stem_conv, t_steps = 2, 1, 4
        assert len(calls) == t_steps * n_conv - (t_steps - 1) * n_stem_conv


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
