"""Span tracing from outside the package, by wrapping module attributes.

The package has no tracing of its own.  A Tracer replaces the names that
dtsnn.network, dtsnn.training, dtsnn.exit_policy and dtsnn.hardware import
(and the entry points the benchmark calls) with wrappers that record a span
per call: name, start, end, parent span and the current request/step id.
Only calls that go through a module attribute are seen, so a kernel that
calls another kernel inside dtsnn.kernels (conv2d_backward -> conv2d) shows
as one span.

Self time is a span's duration minus the durations of its direct children.
It is accumulated per name as spans close.  Every span is kept in memory, in
a flat array of floats (six per span, untracked by the garbage collector),
and written out once, at the end of the run.
"""

import csv
import functools
from array import array
from collections import defaultdict
from time import perf_counter


def _conv_counts(x_shape, w_shape, stride, padding):
    """Multiply-accumulates and bytes moved by one im2col conv2d (float32).

    Bytes: read input, write and read the unfolded matrix, read weights,
    write output.
    """
    n, c, h, w = x_shape
    cout, cin, kh, kw = w_shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    rows, inner = n * ho * wo, cin * kh * kw
    macs = rows * inner * cout
    nbytes = 4 * (n * c * h * w + 2 * rows * inner + cout * inner + rows * cout)
    return macs, nbytes


SPAN_FIELDS = 6  # id, name index, start, end, parent id, op index


class Tracer:
    """In-memory span recorder plus the patches that feed it.

    `phase` names the part of the run the tracer covers ("setup", "run");
    span ids are unique within a phase.
    """

    def __init__(self, phase):
        self.phase = phase
        self.spans = array("d")  # SPAN_FIELDS numbers per span
        self.names = []          # name index -> span name
        self._name_index = {}
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.op = -1             # operation index stamped on new spans (-1: set-up)
        self._stack = []         # open spans: [id, child seconds]
        self._next_id = 0
        self._patches = []       # (module, attribute, original)

    # -- recording -----------------------------------------------------

    def _open(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, 0.0]
        self._stack.append(frame)
        return span_id, parent, frame

    def _close(self, name, name_id, span_id, parent, frame, start, end):
        self._stack.pop()
        dur = end - start
        self.self_s[name] += dur - frame[1]
        self.total_s[name] += dur
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += dur
        self.spans.extend((span_id, name_id, start, end, parent, self.op))

    def span_count(self):
        return len(self.spans) // SPAN_FIELDS

    def wrap(self, name, fn, count=None):
        """Return fn wrapped in a span; count(args, kwargs) may add counters."""
        tracer = self
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_index[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(tracer.counts, args, kwargs)
            span_id, parent, frame = tracer._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(name, name_id, span_id, parent, frame, start, perf_counter())

        return traced

    # -- patching ------------------------------------------------------

    def patch(self, module, attr, name, count=None):
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, count))

    def unpatch(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def install(self, dtsnn):
        """Wrap every layer boundary the benchmark reports on."""
        network, training = dtsnn.network, dtsnn.training
        exit_policy, hardware = dtsnn.exit_policy, dtsnn.hardware

        def count_conv(counts, args, kwargs):
            x, w, p = args[0], args[1], args[2]
            macs, nbytes = _conv_counts(x.shape, w.shape, p.stride, p.padding)
            counts["conv2d_mac"] += macs
            counts["conv2d_bytes"] += nbytes

        def count_conv_backward(counts, args, kwargs):
            x, w, p = args[1], args[2], args[3]
            macs, _ = _conv_counts(x.shape, w.shape, p.stride, p.padding)
            counts["conv2d_backward_mac"] += 2 * macs  # dW and dX

        def count_rows(counts, args, kwargs):
            counts["sample_steps"] += args[1].shape[0]

        def count_tape_rows(counts, args, kwargs):
            counts["sample_steps"] += args[1].shape[0] * args[2]

        kernel_names = {
            "conv2d": count_conv,
            "conv2d_backward": count_conv_backward,
            "batch_norm": None,
            "batch_norm_train_cached": None,
            "batch_norm_backward": None,
            "avg_pool2d": None,
            "avg_pool2d_backward": None,
            "fully_connected": None,
            "fully_connected_backward": None,
        }
        for module in (network, training):
            for attr, count in kernel_names.items():
                if hasattr(module, attr):
                    self.patch(module, attr, "kernels." + attr, count)
        self.patch(network, "lif_step", "network.lif_step")
        self.patch(network, "forward_timestep", "network.forward_timestep", count_rows)
        self.patch(exit_policy, "forward_timestep", "network.forward_timestep", count_rows)
        for module in (network, training, exit_policy):
            self.patch(module, "scan_timesteps", "network.scan_timesteps")
        for attr in ("forward_with_tape", "backward_through_time", "lif_unroll",
                     "lif_unroll_backward", "loss_and_grad", "sgd_step",
                     "evaluate_per_timestep", "train"):
            count = count_tape_rows if attr == "forward_with_tape" else None
            self.patch(training, attr, "training." + attr, count)
        for attr in ("softmax", "_entropy_rows"):
            self.patch(exit_policy, attr, "exit_policy.entropy")
        for attr in ("dynamic_infer", "threshold_sweep", "scan_with_entropy",
                     "summarize_policy"):
            self.patch(exit_policy, attr, "exit_policy." + attr)
        self.patch(hardware, "cost_of_inference", "hardware.cost")
        make_cost_fn = hardware.dataset_cost_fn
        self._patches.append((hardware, "dataset_cost_fn", make_cost_fn))
        hardware.dataset_cost_fn = functools.wraps(make_cost_fn)(
            lambda *a, **kw: self.wrap("hardware.cost", make_cost_fn(*a, **kw))
        )
        self.patch(dtsnn.datasets, "synth_dataset", "datasets.synth_dataset")
        self.patch(dtsnn.checkpoint, "load_checkpoint", "checkpoint.load")
        self.patch(dtsnn.config, "parse_config", "config.parse")



def write_spans(path, tracers):
    """Write the spans of every tracer to one CSV file.

    Columns: phase, id, name, start_s, end_s, parent (an id in the same
    phase, -1 at the top), op (the operation index, -1 during set-up).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phase", "id", "name", "start_s", "end_s", "parent", "op"])
        for tracer in tracers:
            spans = tracer.spans
            for i in range(0, len(spans), SPAN_FIELDS):
                span_id, name, start, end, parent, op = spans[i : i + SPAN_FIELDS]
                writer.writerow([tracer.phase, int(span_id), tracer.names[int(name)],
                                 f"{start:.9f}", f"{end:.9f}", int(parent), int(op)])
