"""Losses, surrogate-gradient BPTT, and the SGD training loop."""

import copy
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
from dtsnn.errors import DataFormatError, TrainingError
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
    # A norm and a LIF layer right after a LIF layer: their input is the
    # spikes the tape holds, which the training path must not write over.
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
        loss, dstep = loss_and_grad(step_logits, labels, loss_mode)
        grads = backward_through_time(net, tape, dstep)
        commit_norm_updates(net, tape)
        norms = {i: net.params[i] for i in tape["norm_updates"]}
        lif_caches = [cache[2] for cache in tape["caches"] if cache[0] == "lif"]
        steps.append(copy.deepcopy((loss, step_logits, grads, norms, lif_caches)))
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
    for (u_pre, spikes), (ref_u_pre, ref_spikes) in zip(got[4], want[4], strict=True):
        npt.assert_array_equal(u_pre, ref_u_pre)
        npt.assert_array_equal(spikes, ref_spikes)


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


class TestWorkspace:
    """`train` draws every step's tape and input gradients from the
    instance's workspace, shared with its clones; direct tape callers get
    new arrays."""

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
        spec = row_parallel_spec()
        x, y = self.batch(spec, 9)
        cfg = TrainConfig(epochs=2, batch_size=4, lr0=0.05, t_train=3, seed=0)
        net, ref = (build_instance(spec, seed=3) for _ in range(2))
        with net.workspace.take() as held:
            with net.workspace.take() as again:
                assert held is net.workspace and again is None
            clone = net.clone_state()
            got = train(clone, x, y, x, y, cfg)
            assert held._buffers == {}  # the clone's steps drew nothing from it
        assert got.csv_rows() == train(ref, x, y, x, y, cfg).csv_rows()
        for p, q in zip(clone.params, ref.params, strict=True):
            for name in p or {}:
                npt.assert_array_equal(p[name], q[name])
