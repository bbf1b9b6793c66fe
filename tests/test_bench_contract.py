"""The module attributes bench/tracing.py wraps exist and see both engines,
and a round of each of the benchmark's `train`, `sweep` and `dynamic`
workloads passes its own checks.

`Tracer.install` patches names on dtsnn's modules with an unguarded getattr,
so a function moved between modules would break `bench/run.py --trace 1`.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import dtsnn
from dtsnn.network import LayerSpec, NetworkSpec, build_instance

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def traced():
    """The tracer of one traced inference step plus one traced training
    forward and backward pass, and the (span name, parent span name) of
    every span it recorded."""
    spec = NetworkSpec(
        input_shape=(1, 6, 6),
        num_classes=3,
        t_max=2,
        layers=(
            LayerSpec("conv", out_channels=2),
            LayerSpec("norm"),
            LayerSpec("lif"),
            LayerSpec("pool", window=2),
            LayerSpec("norm"),  # after a pool: not folded, so eval batch_norm runs
            LayerSpec("conv", out_channels=2),
            LayerSpec("lif"),
            # the first LIF layer spreads its pool's gradient itself: this
            # pool's backward pass is avg_pool2d_backward
            LayerSpec("pool", window=3),
            LayerSpec("classifier"),
        ),
    )
    net = build_instance(spec, seed=0)
    x = np.random.default_rng(0).standard_normal((2, 1, 6, 6)).astype(np.float32)
    tracer = tracing.Tracer("run")
    try:
        tracer.install(dtsnn)
        dtsnn.network.forward_timestep(net, x)
        step_logits, tape = dtsnn.training.forward_with_tape(net, x, 2)
        dtsnn.training.backward_through_time(net, tape, np.ones_like(step_logits))
    finally:
        tracer.unpatch()
    assert not hasattr(dtsnn.network.forward_timestep, "__wrapped__")
    fields = np.asarray(tracer.spans).reshape(-1, tracing.SPAN_FIELDS)
    name_of = {int(span[0]): tracer.names[int(span[1])] for span in fields}
    parents = [(tracer.names[int(span[1])], name_of.get(int(span[4]))) for span in fields]
    return tracer, parents


def test_traced_batch_one_request_books_every_kernel_under_its_caller():
    # The `dynamic` workload's request path.  A fast path that called a
    # kernel other than through the module attribute the tracer patches
    # would silently zero that kernel's per-layer figure.
    spec = NetworkSpec(
        input_shape=(1, 6, 6),
        num_classes=3,
        t_max=2,
        layers=(
            LayerSpec("conv", out_channels=2),
            LayerSpec("norm"),  # folded into the conv: eval batch_norm does not run
            LayerSpec("lif"),
            LayerSpec("pool", window=2),
            LayerSpec("conv", out_channels=2),
            LayerSpec("lif"),
            LayerSpec("classifier"),
        ),
    )
    net = build_instance(spec, seed=0)
    net.record_activity = True
    x = np.random.default_rng(1).standard_normal((1, 6, 6)).astype(np.float32)
    policy = dtsnn.exit_policy.ExitPolicy(theta=0.0, t_max=2)  # runs every step
    tracer = tracing.Tracer("run")
    try:
        tracer.install(dtsnn)
        trace = dtsnn.exit_policy.dynamic_infer(net, x, policy)
    finally:
        tracer.unpatch()
    assert trace.chosen_t == 2
    fields = np.asarray(tracer.spans).reshape(-1, tracing.SPAN_FIELDS)
    name_of = {int(span[0]): tracer.names[int(span[1])] for span in fields}
    parents = {(tracer.names[int(span[1])], name_of.get(int(span[4]))) for span in fields}
    under_step = {name for name, parent in parents if parent == "network.forward_timestep"}
    assert under_step >= {"kernels.conv2d", "kernels.avg_pool2d", "kernels.fully_connected"}
    assert ("network.forward_timestep", "exit_policy.dynamic_infer") in parents
    assert ("exit_policy.entropy", "exit_policy.dynamic_infer") in parents
    assert tracer.calls["exit_policy.entropy"] == 2 * 2  # softmax and _entropy_rows a step
    assert tracer.calls["network.forward_timestep"] == 2
    assert tracer.calls["kernels.fully_connected"] == 2
    assert tracer.counts["conv2d_mac"] > 0


def small_recording_net():
    spec = NetworkSpec(
        input_shape=(1, 6, 6),
        num_classes=3,
        t_max=2,
        layers=(
            LayerSpec("conv", out_channels=2),
            LayerSpec("lif"),
            LayerSpec("pool", window=2),
            LayerSpec("classifier"),
        ),
    )
    net = build_instance(spec, seed=0)
    net.record_activity = True
    return net


def test_a_traced_request_books_one_cost_call():
    # The `dynamic` workload prices each request with one cost_of_inference
    # call, which the tracer books as "hardware.cost".
    net = small_recording_net()
    arch = dtsnn.hardware.ArchConfig()
    mapping = dtsnn.hardware.map_network(net.spec, arch)
    images = np.random.default_rng(3).standard_normal((3, 1, 6, 6)).astype(np.float32)
    policy = dtsnn.exit_policy.ExitPolicy(theta=0.0, t_max=2)
    tracer = tracing.Tracer("run")
    try:
        tracer.install(dtsnn)
        for image in images:
            trace = dtsnn.exit_policy.dynamic_infer(net, image, policy)
            dtsnn.hardware.cost_of_inference(trace.step_activity, mapping, arch)
    finally:
        tracer.unpatch()
    assert tracer.calls["hardware.cost"] == len(images)
    assert tracer.calls["exit_policy.dynamic_infer"] == len(images)


def test_a_traced_sweep_books_one_cost_call_per_theta():
    # The `sweep` workload builds its cost callback with dataset_cost_fn
    # while traced; threshold_sweep calls it once per theta.
    net = small_recording_net()
    arch = dtsnn.hardware.ArchConfig()
    mapping = dtsnn.hardware.map_network(net.spec, arch)
    images = np.random.default_rng(4).standard_normal((5, 1, 6, 6)).astype(np.float32)
    labels = np.arange(5) % 3
    thetas = [0.0, 0.3, 0.6, 0.9]
    tracer = tracing.Tracer("run")
    try:
        tracer.install(dtsnn)
        cost_fn = dtsnn.hardware.dataset_cost_fn(mapping, arch)
        dtsnn.exit_policy.threshold_sweep(net, images, labels, thetas, 2, cost_fn=cost_fn)
    finally:
        tracer.unpatch()
    assert tracer.calls["hardware.cost"] == len(thetas)
    assert tracer.calls["exit_policy.threshold_sweep"] == 1


def test_a_step_program_built_untraced_books_what_a_fresh_traced_one_does():
    # An inference step is a program of calls built at the instance's first
    # step and kept.  Its kernels are looked up by name when called, so a
    # tracer installed after the build still sees every one of them.
    spec = NetworkSpec(
        input_shape=(1, 6, 6),
        num_classes=3,
        t_max=2,
        layers=(
            LayerSpec("conv", out_channels=2),
            LayerSpec("norm"),  # folded into the conv
            LayerSpec("lif"),
            LayerSpec("pool", window=2),
            LayerSpec("norm"),  # after a pool: eval batch_norm runs
            LayerSpec("conv", out_channels=2),
            LayerSpec("lif"),
            LayerSpec("classifier"),
        ),
    )
    x = np.random.default_rng(2).standard_normal((1, 6, 6)).astype(np.float32)
    policy = dtsnn.exit_policy.ExitPolicy(theta=0.0, t_max=2)  # runs every step

    def instance():
        net = build_instance(spec, seed=0)
        net.record_activity = True
        return net

    def traced_request(net):
        tracer = tracing.Tracer("run")
        try:
            tracer.install(dtsnn)
            dtsnn.exit_policy.dynamic_infer(net, x, policy)
        finally:
            tracer.unpatch()
        return dict(tracer.calls), dict(tracer.counts)

    built = instance()
    dtsnn.exit_policy.dynamic_infer(built, x, policy)  # untraced: builds the program
    program = built.step_buffers._program
    booked = traced_request(built)
    assert built.step_buffers._program is program  # the traced request ran that build
    assert booked == traced_request(instance())
    calls = booked[0]
    assert {"kernels.conv2d", "kernels.batch_norm", "kernels.avg_pool2d",
            "kernels.fully_connected"} <= calls.keys()
    assert calls["kernels.conv2d"] == 2 + 1  # the stem's conv runs once per request


def test_tracer_installs_and_sees_conv_from_both_engines(traced):
    _, parents = traced
    conv_parents = {parent for name, parent in parents if name == "kernels.conv2d"}
    assert conv_parents == {"network.forward_timestep", "training.forward_with_tape"}


def test_tracer_sees_each_norm_kernel_in_its_engine(traced):
    _, parents = traced
    assert ("kernels.batch_norm", "network.forward_timestep") in parents
    assert ("kernels.batch_norm_train_cached", "training.forward_with_tape") in parents


def test_tracer_sees_every_backward_kernel(traced):
    _, parents = traced
    under_backward = {name for name, parent in parents
                      if parent == "training.backward_through_time"}
    assert under_backward >= {
        "kernels.conv2d_backward",
        "kernels.batch_norm_backward",
        "kernels.avg_pool2d_backward",
        "kernels.fully_connected_backward",
        "training.lif_unroll_backward",
    }


def test_tracer_counts_conv_work_forward_and_backward(traced):
    # The counters read conv2d / conv2d_backward arguments by position.
    tracer, _ = traced
    assert tracer.counts["conv2d_mac"] > 0
    assert tracer.counts["conv2d_backward_mac"] > 0


def test_sweep_workload_round_passes_its_checks():
    # One round of `bench/run.py --workload sweep` in process: the scan's
    # keywords, the theta-grid rows, monotone mean_t, edp == energy x latency,
    # a repeated round and the calibration anchors.
    workload = workloads.SweepWorkload(dtsnn, seed=1)
    workload.setup()
    for k in range(workload.round_len):
        workload.op(k)
    workload.op(workload.round_len)  # the first chunk again: must sweep identically
    metrics = workload.finish()
    assert workload.failures == []
    assert workload.global_checks() == []
    assert 1.0 <= metrics["mean_t"] <= workloads.T_MAX


def test_dynamic_workload_round_passes_its_checks():
    # One round of `bench/run.py --workload dynamic` in process: every request
    # answers as it did the first time, dynamic_infer agrees with the batched
    # scan, and the mean cost_of_inference equals dataset_cost_fn on the same
    # exits and activity (relative tolerance 1e-9).
    workload = workloads.DynamicWorkload(dtsnn, seed=1)
    workload.setup()
    for k in range(workload.round_len + 1):  # one full pass, then a repeat
        workload.op(k)
    metrics = workload.finish()
    assert workload.failures == []
    assert workload.mismatches == 0
    assert 1.0 <= metrics["mean_t"] <= workloads.T_MAX


def test_train_workload_round_passes_its_checks():
    # One round of `bench/run.py --workload train` in process (B=128, T=4),
    # then its first call again: every step's loss repeats, no step raises
    # TrainingError (a failure of its call), and the trained model's sweep
    # exits within the timestep budget.
    workload = workloads.TrainWorkload(dtsnn, seed=1)
    workload.setup()
    for k in range(workload.round_len + 1):
        workload.op(k)
    metrics = workload.finish()
    assert workload.failures == []
    assert None not in workload.first_losses
    assert 1.0 <= metrics["mean_t"] <= workloads.T_MAX
