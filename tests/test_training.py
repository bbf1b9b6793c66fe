"""Losses, surrogate-gradient BPTT, and the SGD training loop."""

import math
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from dtsnn.config import parse_config
from dtsnn.errors import DataFormatError, TrainingError
from dtsnn.network import (
    LayerSpec,
    LifConfig,
    NetworkSpec,
    build_instance,
    static_forward,
)
from dtsnn.training import (
    TrainConfig,
    backward_through_time,
    cosine_lr,
    evaluate_per_timestep,
    forward_with_tape,
    lif_unroll,
    lif_unroll_backward,
    loss_and_grad,
    loss_per_timestep,
    loss_standard,
    running_means,
    spike_ramp,
    surrogate_grad,
    train,
)

from oracles import cross_entropy_reference, finite_difference_grad, replicated_tape_grads

rng = np.random.default_rng(99)


def toy_spec(t_max=4, hw=6, channels=2, num_classes=3):
    return NetworkSpec(
        input_shape=(1, hw, hw),
        num_classes=num_classes,
        t_max=t_max,
        layers=(
            LayerSpec("conv", out_channels=channels, kernel=3, stride=1, padding=1),
            LayerSpec("norm"),
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

    @pytest.mark.parametrize("mode,target", [
        ("standard", "running_mean"),
        ("per_timestep", "running_mean"),
        ("per_timestep", "step_logits"),
    ])
    def test_loss_grad_matches_finite_differences(self, mode, target):
        steps = rng.standard_normal((3, 2, 4))
        labels = np.array([1, 3])
        loss, dstep = loss_and_grad(steps, labels, mode, target)

        def f():
            return loss_and_grad(steps, labels, mode, target)[0]

        fd = finite_difference_grad(f, steps, eps=1e-6)
        npt.assert_allclose(dstep, fd, rtol=1e-5, atol=1e-9)


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
        # otherwise central differences degrade there.
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
            if isinstance(p, dict):
                for name, arr in p.items():
                    assert grads[i][name].shape == arr.shape
            elif p is not None and i in grads:
                assert grads[i]["gamma"].shape == p.gamma.shape
                assert grads[i]["beta"].shape == p.beta.shape

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

    def test_same_seed_identical_weights(self):
        images, labels = separable_blobs(16)
        final = []
        for _ in range(2):
            net = build_instance(self.small_spec(), seed=7)
            cfg = TrainConfig(epochs=2, batch_size=16, lr0=0.05, t_train=2, seed=11)
            train(net, images, labels, images, labels, cfg)
            final.append([p["w"].copy() for p in net.params if isinstance(p, dict)])
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

    def test_non_finite_input_rejected(self):
        images, labels = separable_blobs(8)
        images[3, 0, 2, 2] = np.nan
        net = build_instance(self.small_spec(), seed=0)
        cfg = TrainConfig(epochs=1, batch_size=16, t_train=2, seed=0)
        with pytest.raises(DataFormatError, match="1 non-finite"):
            train(net, images, labels, images, labels, cfg)

    def test_t_train_cannot_exceed_t_max(self):
        images, labels = separable_blobs(8)
        net = build_instance(self.small_spec(), seed=0)
        cfg = TrainConfig(epochs=1, batch_size=8, t_train=5, seed=0)
        with pytest.raises(ValueError, match="t_max"):
            train(net, images, labels, images, labels, cfg)


class TestStackedForwardAgainstStepwise:
    def test_mean_logits_agree_between_implementations(self):
        # The layer-major stacked unroll and the per-timestep stateful path
        # are independent routes to the same T-step mean output.
        spec = toy_spec(t_max=4)
        net = build_instance(spec, seed=21)
        x = rng.standard_normal((5, 1, 6, 6)).astype(np.float32)
        stepwise = static_forward(net, x, 4)
        stacked, _ = forward_with_tape(net, x, 4, train_mode=False)
        npt.assert_allclose(stacked.mean(axis=0), stepwise, atol=1e-5)


def stem_specs():
    """The mnist.yaml model, a stem of conv -> norm -> pool, and an empty stem."""
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
    return {"mnist": mnist.network, "stem_pool": stem_pool, "lif_first": lif_first}


class TestStemRouteAgainstReplicatedOracle:
    # forward_with_tape runs the stem on B rows and backward_through_time sums
    # over T at the first LIF; the oracle replicates every layer over T*B rows.
    @pytest.mark.parametrize("name", ["mnist", "stem_pool", "lif_first"])
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
            close(tape["norm_updates"][i].running_mean, ref.running_mean)
            close(tape["norm_updates"][i].running_var, ref.running_var)
