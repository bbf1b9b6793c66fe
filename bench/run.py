"""dtsnn benchmark: one workload per run, metrics as JSON on the last line.

    python3 bench/run.py --workload {train,sweep,dynamic} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  Inputs are synthetic 28x28 `stripes` images
generated from --seed; the network is the configs/mnist.yaml architecture
(T=4).  With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it wraps the package's module boundaries and reports the
per-module split (see bench/README.md).  The last line of standard output
is {"correct", "attempted", "failed", "metrics"}; earlier lines are
informational.  Exits non-zero, without a result line, on any error.

With --setup-only the process does one set-up and prints its time; run.py
starts itself this way to time set-ups in fresh processes.
"""

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import common

SETUP_REPEATS = 5        # cold set-ups per run: this process and 4 fresh ones
# A batch-1 request worker runs single-threaded BLAS: its matrices are too
# small for a second thread to help, and waking one made request latency
# vary twice as much between runs.
BLAS_THREAD_LIMIT = {"dynamic": 1}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "sweep", "dynamic"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_ops(workload, seconds, tracer, dtsnn):
    """Timed loop.  Returns [(seconds, traced)] for every operation.

    Runs until `seconds` have passed and at least one complete round (two
    when tracing, one untraced and one traced) has been done.  When
    tracing, whole rounds alternate between untraced and traced, so the
    two halves cover the same inputs, and the last round is completed so
    that per-operation figures cover whole rounds.
    """
    min_ops = workload.round_len * (2 if tracer else 1)
    times = []
    deadline = perf_counter() + seconds
    k = 0
    while (perf_counter() < deadline or k < min_ops
           or (tracer is not None and k % workload.round_len)):
        traced = tracer is not None and (k // workload.round_len) % 2 == 1
        if tracer is not None and k % workload.round_len == 0:
            tracer.unpatch()
            if traced:
                tracer.install(dtsnn)
        if traced:
            tracer.op = k
        times.append((workload.op(k), traced))
        k += 1
    if tracer is not None:
        tracer.unpatch()
    return times


def rounds_of(times, round_len):
    """Op times of every complete round, as lists."""
    full = len(times) // round_len * round_len
    return [times[i : i + round_len] for i in range(0, full, round_len)]


def fastest_repeats(rounds):
    """Each operation's fastest time over the rounds.

    Every round repeats the same operations on the same inputs, so the
    spread of one operation's times is interference from the host; its
    fastest repeat is the least disturbed.
    """
    return [min(repeats) for repeats in zip(*rounds)]


def end_to_end_metrics(workload, times, setup_times, rss_mb, model):
    rounds = rounds_of([t for t, _ in times], workload.round_len)
    op_s = fastest_repeats(rounds)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "samples_per_s": (len(op_s) * workload.samples_per_op / sum(op_s), "1/s"),
        "latency_ms_p50": (statistics.median(op_s) * 1e3, "ms"),
        "latency_ms_p90": (statistics.quantiles(op_s, n=10, method="inclusive")[8] * 1e3, "ms"),
        "loss": (model["loss"], "nat"),
        "accuracy": (model["accuracy"], "fraction"),
        "mean_t": (model["mean_t"], "timesteps"),
        "model_energy": (model["model_energy"], "model-units"),
        "model_edp": (model["model_edp"], "model-units"),
    }
    return metrics, len(rounds), len(op_s)


SELF_MS = {
    "kernels.conv2d_ms": "kernels.conv2d",
    "kernels.conv2d_backward_ms": "kernels.conv2d_backward",
    "kernels.batch_norm_ms": "kernels.batch_norm",
    "kernels.batch_norm_train_ms": "kernels.batch_norm_train_cached",
    "kernels.batch_norm_backward_ms": "kernels.batch_norm_backward",
    "kernels.avg_pool2d_ms": "kernels.avg_pool2d",
    "kernels.avg_pool2d_backward_ms": "kernels.avg_pool2d_backward",
    "kernels.fully_connected_ms": "kernels.fully_connected",
    "kernels.fully_connected_backward_ms": "kernels.fully_connected_backward",
    "network.forward_timestep_self_ms": "network.forward_timestep",
    "network.lif_step_ms": "network.lif_step",
    "network.scan_timesteps_self_ms": "network.scan_timesteps",
    "training.forward_with_tape_ms": "training.forward_with_tape",
    "training.backward_through_time_ms": "training.backward_through_time",
    "training.lif_unroll_ms": "training.lif_unroll",
    "training.lif_unroll_backward_ms": "training.lif_unroll_backward",
    "training.loss_and_grad_ms": "training.loss_and_grad",
    "training.sgd_step_ms": "training.sgd_step",
    "training.evaluate_per_timestep_ms": "training.evaluate_per_timestep",
    "training.train_self_ms": "training.train",
    "exit_policy.entropy_ms": "exit_policy.entropy",
    "exit_policy.summarize_policy_ms": "exit_policy.summarize_policy",
    "exit_policy.scan_with_entropy_self_ms": "exit_policy.scan_with_entropy",
    "exit_policy.threshold_sweep_self_ms": "exit_policy.threshold_sweep",
    "exit_policy.dynamic_infer_self_ms": "exit_policy.dynamic_infer",
    "hardware.cost_ms": "hardware.cost",
}
TOTAL_MS = {
    "network.forward_timestep_total_ms": "network.forward_timestep",
    "training.forward_with_tape_total_ms": "training.forward_with_tape",
    "training.backward_through_time_total_ms": "training.backward_through_time",
    "training.evaluate_per_timestep_total_ms": "training.evaluate_per_timestep",
    "exit_policy.threshold_sweep_total_ms": "exit_policy.threshold_sweep",
    "exit_policy.dynamic_infer_total_ms": "exit_policy.dynamic_infer",
}
CALLS = {
    "kernels.conv2d_calls": "kernels.conv2d",
    "network.forward_timestep_calls": "network.forward_timestep",
    "network.lif_step_calls": "network.lif_step",
    "exit_policy.entropy_calls": "exit_policy.entropy",
    "hardware.cost_calls": "hardware.cost",
}
SETUP_MS = {
    "datasets.synth_dataset_ms": "datasets.synth_dataset",
    "checkpoint.load_ms": "checkpoint.load",
    "config.parse_ms": "config.parse",
}


def per_layer_metrics(workload, times, tracer, setup_tracer, model_layers):
    """Per-module split, per traced operation (setup modules: per set-up)."""
    n = sum(1 for _, on in times if on)
    per_op = 1.0 / n
    metrics = {}
    for metric, name in SELF_MS.items():
        metrics[metric] = (tracer.self_s[name] * 1e3 * per_op, "ms/op")
    for metric, name in TOTAL_MS.items():
        metrics[metric] = (tracer.total_s[name] * 1e3 * per_op, "ms/op")
    for metric, name in CALLS.items():
        metrics[metric] = (tracer.calls[name] * per_op, "calls/op")
    for metric, name in SETUP_MS.items():
        metrics[metric] = (setup_tracer.self_s[name] * 1e3, "ms/setup")
    counts = tracer.counts
    metrics["kernels.conv2d_mmac"] = (counts["conv2d_mac"] * 1e-6 * per_op, "Mmac-computed")
    metrics["kernels.conv2d_backward_mmac"] = (
        counts["conv2d_backward_mac"] * 1e-6 * per_op, "Mmac-computed")
    metrics["kernels.conv2d_mbytes"] = (counts["conv2d_bytes"] * 1e-6 * per_op, "MB-computed")
    sample_steps = counts["sample_steps"] * per_op
    metrics["network.sample_steps"] = (sample_steps, "sample-steps/op")
    useful = workload.useful_steps_per_op()
    metrics["exit_policy.useful_step_ratio"] = (
        useful / sample_steps if sample_steps else 0.0, "ratio")
    for layer, value in model_layers.items():
        metrics[f"network.spikes_per_sample.{layer}"] = (value, "spikes")
    # Rounds alternate untraced / traced; compare the fastest repeats of each.
    rounds = rounds_of(times, workload.round_len)
    plain, traced = (
        sum(fastest_repeats([[t for t, _ in r] for r in rounds if r[0][1] == on]))
        for on in (False, True)
    )
    overhead = (traced / plain - 1.0) * 100.0
    metrics["trace.overhead_pct"] = (overhead, "%")
    metrics["trace.spans"] = (float(tracer.span_count()), "count")
    metrics["trace.traced_ops"] = (float(n), "count")
    return metrics


def set_up(dtsnn, args):
    """One set-up of the workload; returns (workload, seconds)."""
    from workloads import WORKLOADS

    start = perf_counter()
    workload = WORKLOADS[args.workload](dtsnn, args.seed)
    workload.setup()
    return workload, perf_counter() - start


def fresh_setup_times(args, n):
    """Set-up times of n fresh processes, started one after the other.

    Each set-up is cold, as the one a user's process does: BLAS threads not
    yet started, allocator not grown, first operation not yet paid.
    """
    times = []
    for _ in range(n):
        out = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-only"],
            stdout=subprocess.PIPE, text=True, check=True, timeout=120,
        )
        times.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return times


def main(argv=None):
    args = parse_args(argv)
    nproc, threads = common.pin_blas_threads(BLAS_THREAD_LIMIT.get(args.workload))
    dtsnn = common.import_dtsnn()
    import numpy as np

    from tracing import Tracer, write_spans

    if args.setup_only:
        print(json.dumps({"setup_s": set_up(dtsnn, args)[1]}))
        return 0

    # The fresh processes run before this one sets up, so that at most one
    # holds a workload's inputs at a time.  The traced run reports no setup_s.
    setup_times = [] if args.trace else fresh_setup_times(args, SETUP_REPEATS - 1)
    setup_tracer = Tracer("setup") if args.trace else None
    if setup_tracer:
        setup_tracer.install(dtsnn)
    workload, seconds = set_up(dtsnn, args)
    setup_times.append(seconds)
    if setup_tracer:
        setup_tracer.unpatch()

    tracer = Tracer("run") if args.trace else None
    times = run_ops(workload, args.seconds, tracer, dtsnn)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    model = workload.finish()
    problems = workload.global_checks()

    if args.trace:
        metrics = per_layer_metrics(workload, times, tracer, setup_tracer,
                                    workload.spikes_per_sample())
        out = common.BENCH_DIR / "out" / f"spans-{args.workload}-seed{args.seed}.csv"
        write_spans(out, [setup_tracer, tracer])
        timing = {}
    else:
        metrics, n_rounds, n_ops = end_to_end_metrics(
            workload, times, setup_times, rss_mb, model)
        timing = {"repeats_per_op": n_rounds, "latency_samples": n_ops,
                  "samples_beyond_p90": n_ops // 10}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": nproc,
        "blas_threads": threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "model_sha256": workload.model_sha256,
        "ops": len(times),
        "round_len": workload.round_len,
        "rounds": len(times) // workload.round_len,
        "traced_ops": sum(1 for _, on in times if on),
        "setup_times_s": setup_times,
        **timing,
        **workload.info(),
    }
    print(json.dumps({"info": info}))
    for k, message in workload.failures[:20]:
        print(f"FAILED op {k}: {message}", file=sys.stderr)
    for message in problems:
        print(f"FAILED check: {message}", file=sys.stderr)
    failed = len(workload.failed_ops)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(times),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
