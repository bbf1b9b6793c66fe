"""Stateful spiking network: LIF dynamics and the one layer engine.

The network consumes the raw analog input at every timestep (direct
encoding); the first convolution plus its LIF layer turn it into spike
trains.  Classifier logits are analog and are accumulated across timesteps;
the prediction is the running mean of those accumulated logits.

`run_layers` is the only layer loop and `lif_unroll` the only LIF update:
inference (`forward_timestep`) runs one timestep per call, training
(`training.forward_with_tape`) runs T timesteps stacked in the batch axis.

The stem -- the layers before the first LIF layer (`first_lif`) -- sees the
same input at every timestep, so its output does not depend on t.  It runs
on the B input rows and the first LIF layer broadcasts it over T.
`forward_timestep` computes it once per input and caches it on the instance,
keyed on the identity of the input array: the cache is reused while the same
array object is passed and is dropped by `reset_states`.  A caller that
mutates an input array in place between timesteps must call `reset_states`
first.

Without a tape, `run_layers` runs on `inference_params`: eval norms folded
into the conv / fc before them, rebuilt whenever a parameter array is
replaced.  Parameter arrays are read-only from the first inference on;
replace them, do not write into them.

An SnnInstance is single-owner mutable state: one inference at a time.
Weights may be shared read-only between instances; `clone_state` gives each
worker its own membrane potentials (and no cached stem) over the same built
inference plan.  `scan_timesteps` does this itself: its tiles run on the
workers of `kernels.run_blocks`, the caller's thread on the instance and
each helper on its own clone.
"""

import math
import operator
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import DataFormatError, ShapeError, StateError, bounded, check_bounds
from .kernels import (
    BN_EPS,
    ConvParams,
    avg_pool2d,
    batch_norm,
    batch_norm_train_cached,
    conv2d,
    fully_connected,
    norm_params,
)


@dataclass(frozen=True)
class LifConfig:
    """Leak factor and firing threshold of a leaky integrate-and-fire layer."""

    tau: float = bounded(0.5, gt=0, le=1)
    v_th: float = bounded(1.0, gt=0)

    def __post_init__(self):
        check_bounds(self, ValueError)


@dataclass
class LifState:
    """Membrane potentials of one LIF layer."""

    u: np.ndarray


def spike_ramp(u, v_th):
    """C1 antiderivative of `training.surrogate_grad`, used as a smooth firing
    function in gradient-check mode: ramps from 0 (u <= 0) to v_th**2
    (u >= 2*v_th)."""
    a = np.clip(u, 0.0, v_th)
    b = np.clip(u - v_th, 0.0, v_th)
    return 0.5 * a * a + b * v_th - 0.5 * b * b


def _empty_steps(like, t_steps, ws=None, key=None):
    """Uninitialized (t_steps,) + like.shape array, timestep-major, whose
    every step has the memory order of ``like`` (channels-last for conv
    outputs, on which the kernels downstream run fastest); from workspace
    ``ws`` under ``key`` when it is given.
    """
    rows = (t_steps * like.shape[0],) + like.shape[1:]
    steps = np.empty_like(like, shape=rows) if ws is None else ws.empty_like(key, like, shape=rows)
    return steps.reshape((t_steps,) + like.shape)


def lif_unroll(currents, cfg, smooth=False, state=None, out=None):
    """Forward a (T, B, ...) current tensor through one LIF layer.

    Each step: u <- tau*u + input; spike where u > v_th (strict), or
    spike_ramp(u) when ``smooth``; u <- u*(1-spike).  The potentials are
    updated in place, the state's own buffer included.  Without ``state`` the
    unroll starts from rest and returns (spikes, (u_pre, spikes)), the cache
    `training.lif_unroll_backward` needs; ``out``, a pair (u_pre, spikes) of
    (T, B, ...) arrays, receives it, and its spikes may be currents itself.
    With a LifState it continues from the state's potentials, leaves the
    final potentials in it, and returns (spikes, None): inference keeps no
    pre-reset potentials.  Samples are independent: the batch runs in blocks
    of about `kernels.BLOCK_BYTES` of one step's currents
    (`kernels.run_row_blocks`), each through all T steps, from rest on
    potentials of its own.
    """
    t_steps = currents.shape[0]
    if state is None:
        u = None
        if out is None:
            out = (_empty_steps(currents[0], t_steps), _empty_steps(currents[0], t_steps))
        u_pre, spikes = out
    elif currents.shape[1:] != state.u.shape:
        raise ShapeError(
            f"input current shape {currents.shape[1:]} does not match "
            f"membrane shape {state.u.shape}"
        )
    else:
        u, u_pre, spikes = state.u, None, _empty_steps(currents[0], t_steps)
    batch = currents.shape[1]
    row_bytes = currents[0].nbytes // max(1, batch)
    if batch <= kernels.block_rows(row_bytes):
        _lif_rows(currents, cfg, smooth, u, u_pre, spikes)
    else:
        kernels.run_row_blocks(batch, row_bytes, lambda rows: _lif_rows(
            currents[:, rows], cfg, smooth, None if u is None else u[rows],
            None if u_pre is None else u_pre[:, rows], spikes[:, rows]))
    if state is None:
        return spikes, (u_pre, spikes)
    return spikes, None


def _lif_rows(currents, cfg, smooth, u, u_pre, spikes):
    """`lif_unroll` of one block of samples: updates u in place (from rest
    when u is None) and writes each step's potentials before the reset
    (unless u_pre is None) and spikes."""
    if u is None:
        u = np.zeros_like(currents[0])
    keep = np.empty_like(u, dtype=bool)
    for t in range(currents.shape[0]):
        u *= cfg.tau
        u += currents[t]
        if u_pre is not None:
            u_pre[t] = u
        if smooth:
            spikes[t] = spike_ramp(u, cfg.v_th)
            u *= 1.0 - spikes[t]
        else:
            np.less_equal(u, cfg.v_th, out=keep)
            np.logical_not(keep, out=spikes[t], casting="unsafe")
            u *= keep


def lif_step(state, input_current, cfg):
    """One membrane update (`lif_unroll` over one step) of ``state``, which
    is mutated in place; returns the binary spike tensor."""
    return lif_unroll(input_current[None], cfg, state=state)[0][0]


# Layer kinds understood by NetworkSpec.
LAYER_KINDS = ("conv", "fc", "lif", "norm", "pool", "classifier")


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the network; fields are interpreted per `kind`."""

    kind: str = bounded(choices=LAYER_KINDS)
    out_channels: int = 0       # conv
    kernel: int = 3             # conv
    stride: int = 1             # conv
    padding: int = 1            # conv
    window: int = 2             # pool
    out_features: int = 0       # fc
    bias: bool = False          # conv only: fc and the classifier always have a bias
    tau: float = 0.0            # lif override; 0 means use the network default
    v_th: float = 0.0           # lif override; 0 means use the network default

    def __post_init__(self):
        check_bounds(self, ValueError)


class LayerPlan(NamedTuple):
    """What one layer needs at run time, derived once from the spec.

    Shapes leave out the batch axis.  ``config`` is the layer's ConvParams
    (conv), LifConfig (lif) or None.  ``weight_shape`` is the matrix the
    layer maps onto crossbars -- (C_out, C_in, k, k) for a conv, (fan_out,
    fan_in) for fc / classifier -- or None for a layer without weights.
    """

    in_shape: tuple
    out_shape: tuple
    config: object
    weight_shape: tuple

    @property
    def fan_in(self):
        """Crossbar rows: C_in * k * k for a conv (im2col), inputs for fc."""
        return int(np.prod(self.weight_shape[1:]))


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture description: ordered layers plus network-wide settings."""

    input_shape: tuple[int, ...]  # (C, H, W)
    num_classes: int = bounded(ge=2)
    t_max: int = bounded(ge=1)
    layers: tuple[LayerSpec, ...]
    lif: LifConfig = LifConfig()

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        object.__setattr__(self, "layers", tuple(self.layers))
        check_bounds(self, ValueError)
        kinds = [l.kind for l in self.layers]
        if kinds.count("classifier") != 1 or kinds[-1] != "classifier":
            raise ValueError("network must end with exactly one classifier layer")
        if "lif" not in kinds:
            raise ValueError("network must contain at least one lif layer")
        self.layer_plan  # raises ShapeError if shapes do not compose

    @cached_property
    def layer_plan(self):
        """One LayerPlan per layer, built once so the per-timestep forward
        pass, weight initialization and crossbar mapping share it."""
        plan = []
        cur = self.input_shape
        for layer in self.layers:
            config = weight = None
            if layer.kind == "conv":
                if len(cur) != 3:
                    raise ShapeError(f"conv layer expects (C,H,W) input, got {cur}")
                config = self.conv_params(layer, cur[0])
                weight = (layer.out_channels, cur[0], layer.kernel, layer.kernel)
                out = (layer.out_channels,) + config.output_hw(cur[1], cur[2])
            elif layer.kind == "pool":
                w = layer.window
                if w < 1:
                    raise ShapeError(f"pool window must be >= 1, got {w}")
                if len(cur) != 3 or cur[1] % w or cur[2] % w:
                    raise ShapeError(f"pool window {w} does not divide spatial size {cur}")
                out = (cur[0], cur[1] // w, cur[2] // w)
            elif layer.kind in ("fc", "classifier"):
                width = self.num_classes if layer.kind == "classifier" else layer.out_features
                if width < 1:
                    raise ShapeError(f"fc out_features must be >= 1, got {width}")
                weight = (width, int(np.prod(cur)))
                out = (width,)
            else:  # lif / norm preserve shape
                config = self.lif_config_for(layer) if layer.kind == "lif" else None
                out = cur
            plan.append(LayerPlan(cur, out, config, weight))
            cur = out
        return tuple(plan)

    def lif_config_for(self, layer):
        tau = layer.tau if layer.tau else self.lif.tau
        v_th = layer.v_th if layer.v_th else self.lif.v_th
        return LifConfig(tau=tau, v_th=v_th)

    @staticmethod
    def conv_params(layer, in_channels):
        return ConvParams(
            in_channels=in_channels,
            out_channels=layer.out_channels,
            kernel_h=layer.kernel,
            kernel_w=layer.kernel,
            stride=layer.stride,
            padding=layer.padding,
        )


def first_lif(spec):
    """Index of the first LIF layer; layers before it form the stem, whose
    output is the same at every timestep under direct encoding."""
    return next(i for i, layer in enumerate(spec.layers) if layer.kind == "lif")


def as_images(x):
    """x as an array of real numbers (`np.asarray`); DataFormatError when it
    is ragged or of any other dtype (objects, strings, complex numbers)."""
    try:
        x = np.asarray(x)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"input is not an array of numbers: {exc}") from exc
    if x.dtype.kind not in "biuf":
        raise DataFormatError(f"input must hold real numbers, got dtype {x.dtype}")
    return x


def check_finite(x):
    """Reject inputs holding NaN or infinity, which would otherwise yield a
    silent prediction (no spikes, uniform output)."""
    bad = x.size - np.count_nonzero(np.isfinite(x))
    if bad:
        raise DataFormatError(f"input contains {bad} non-finite values (NaN or inf)")


class Workspace:
    """The arrays of one training step, kept for the next one.

    Every array is a view of a byte buffer kept under a (layer index, role)
    key, grown when a request needs more bytes and never shrunk: steps of the
    same shape allocate nothing, and a smaller batch takes a prefix.  An
    array is overwritten by the next request under its key.
    `training.train` takes the instance's workspace (`take`) for the call
    and runs every step's tape and input gradients in it; `clone_state`
    hands it to the clones, so it lives, at about one step's arrays, until
    the instance and its clones are gone.  A tape without one draws from a
    new `Workspace()` of its own, so its arrays are new.
    """

    def __init__(self):
        self._buffers = {}
        self._lock = threading.Lock()

    @contextmanager
    def take(self):
        """Yield this workspace to one holder at a time, None while another
        holds it."""
        if not self._lock.acquire(blocking=False):
            yield None
            return
        try:
            yield self
        finally:
            self._lock.release()

    def empty(self, key, shape, dtype):
        """Uninitialized C-order array of this shape and dtype under ``key``."""
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        buf = self._buffers.get(key)
        if buf is None or buf.nbytes < nbytes:
            buf = self._buffers[key] = np.empty(nbytes, dtype=np.uint8)
        return buf[:nbytes].view(dtype).reshape(shape)

    def empty_like(self, key, like, shape=None, dtype=None):
        """`empty` in the memory order of ``np.empty_like(like, dtype, shape=shape)``
        (``shape`` has like's number of axes)."""
        shape = like.shape if shape is None else shape
        # numpy's axis order for like, outermost first, read off a tiny probe
        probe = np.empty_like(like, dtype=np.uint8, shape=(2,) * like.ndim)
        order = np.argsort(probe.strides)[::-1]
        mem = self.empty(key, [shape[a] for a in order], like.dtype if dtype is None else dtype)
        return mem.transpose(np.argsort(order))

    def channels_last(self, key, shape, dtype):
        """`empty` (N,C,H,W) view of (N,H,W,C) memory: a conv output's layout."""
        n, c, h, w = shape
        return self.empty(key, (n, h, w, c), dtype).transpose(0, 3, 1, 2)


@dataclass
class SnnInstance:
    """A NetworkSpec bound to weights plus the mutable inference state.

    ``stem`` caches ``(input, stem output, stem activity counts)`` for the
    input array last passed to `forward_timestep`.  It lives until
    `reset_states`, until a different array object is passed or until
    ``inference_plan`` (see `inference_params`) is rebuilt; instances from
    `clone_state` start without it.
    """

    spec: NetworkSpec
    params: list                  # per layer: dict of arrays, or None
    lif_states: dict = field(default_factory=dict)
    accumulated_logits: np.ndarray = None
    t: int = 0
    record_activity: bool = False
    activity: list = field(default_factory=list)  # one row per timestep
    smooth_spikes: bool = False   # fire by spike_ramp (gradient-check mode)
    stem: tuple = None            # (input, stem output, stem activity counts)
    inference_plan: tuple = None  # (parameter arrays, inference parameters)
    workspace: Workspace = field(default_factory=Workspace, repr=False, compare=False)

    def clone_state(self):
        """New instance sharing weights, their inference plan, the training
        workspace and the firing mode, with fresh inference state."""
        return SnnInstance(
            spec=self.spec,
            params=self.params,
            record_activity=self.record_activity,
            smooth_spikes=self.smooth_spikes,
            inference_plan=self.inference_plan,
            workspace=self.workspace,
        )


def _init_params(spec, seed, dtype):
    """He-normal weights (std sqrt(2 / fan_in)) drawn in layer order, zero
    biases, and fresh normalization statistics."""
    rng = np.random.default_rng(seed)
    params = []
    for layer, plan in zip(spec.layers, spec.layer_plan):
        if plan.weight_shape is not None:
            std = np.sqrt(2.0 / plan.fan_in)
            entry = {"w": rng.normal(0.0, std, size=plan.weight_shape).astype(dtype)}
            if layer.bias or layer.kind != "conv":
                entry["b"] = np.zeros(plan.weight_shape[0], dtype=dtype)
            params.append(entry)
        elif layer.kind == "norm":
            params.append(norm_params(plan.in_shape[0], dtype=dtype))
        else:
            params.append(None)
    return params


def build_instance(spec, seed=0, dtype=np.float32):
    """Construct an SnnInstance with freshly initialized weights."""
    return SnnInstance(spec=spec, params=_init_params(spec, seed, dtype))


def reset_states(net):
    """Zero all membrane potentials, accumulated logits and the step counter,
    and drop the cached stem output."""
    net.lif_states = {}
    net.accumulated_logits = None
    net.t = 0
    net.activity = []
    net.stem = None


def inference_params(net):
    """Per-layer parameters `run_layers` uses without a tape.

    A norm directly after a conv or fc is folded into it, in float64: with
    s = gamma / sqrt(running_var + BN_EPS) the weights become w*s, the bias
    (b - running_mean)*s + beta, and the norm's entry None.  Conv weights are
    (C_out, C_in, kh, kw) views of (C_out, kh, kw, C_in) memory, the column
    order of `conv2d`'s unfolded input.  Kept in ``net.inference_plan`` and
    rebuilt, dropping the cached stem, when an array of ``net.params`` has
    been replaced; building it makes those arrays read-only.
    """
    arrays = [a for p in net.params if p is not None for a in p.values()]
    plan = net.inference_plan
    if plan is None or len(plan[0]) != len(arrays) or not all(map(operator.is_, plan[0], arrays)):
        for a in arrays:
            a.flags.writeable = False
        kinds, params = [layer.kind for layer in net.spec.layers], list(net.params)
        for i in range(1, len(kinds)):
            if kinds[i] == "norm" and kinds[i - 1] in ("conv", "fc"):
                prev, norm = params[i - 1], {k: v.astype(np.float64) for k, v in params[i].items()}
                s = norm["gamma"] / np.sqrt(norm["running_var"] + BN_EPS)
                w = prev["w"] * s.reshape((-1,) + (1,) * (prev["w"].ndim - 1))
                b = (prev.get("b", 0.0) - norm["running_mean"]) * s + norm["beta"]
                params[i - 1] = {"w": w.astype(prev["w"].dtype), "b": b.astype(prev["w"].dtype)}
                params[i] = None
        params = [dict(p, w=np.ascontiguousarray(p["w"].transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2))
                  if kind == "conv" else p for kind, p in zip(kinds, params)]
        net.inference_plan, net.stem = (arrays, params), None
    return net.inference_plan[1]


def _count_inputs(h, analog):
    """Per-sample drive presented to a crossbar-mapped layer this timestep.

    Analog inputs (direct encoding into a weighted layer of the stem) drive
    every row, so the count is the number of elements; spiking inputs count
    the nonzero lines only.
    """
    if analog:
        return np.full(h.shape[0], np.prod(h.shape[1:]), dtype=np.float64)
    if h.shape[0] == 1:  # numpy's per-axis count costs several us more
        return np.array([np.count_nonzero(h)], dtype=np.float64)
    return np.count_nonzero(h, axis=tuple(range(1, h.ndim))).astype(np.float64)


def forward_timestep(net, x):
    """Run every layer for one timestep and accumulate the classifier logits.

    x is the raw input batch (N,C,H,W), presented identically at every
    timestep.  The stem runs only when x is not the array whose stem output
    is cached (see the module docstring).  Returns this step's logits (N, K).
    """
    spec = net.spec
    if net.t >= spec.t_max:
        raise StateError(f"forward_timestep called beyond t_max={spec.t_max}")
    x = as_images(x)
    if x.shape[1:] != spec.input_shape:
        raise ShapeError(
            f"input shape {x.shape[1:]} does not match network input {spec.input_shape}"
        )
    s = first_lif(spec)
    inference_params(net)  # a rebuilt plan drops the stem computed on old weights
    if net.stem is None or net.stem[0] is not x:
        check_finite(x)
        stem_counts = []
        net.stem = (x, run_layers(net, x, range(s), counts=stem_counts), stem_counts)
    _, h, stem_counts = net.stem
    step_counts = list(stem_counts) if net.record_activity else None
    h = run_layers(net, h, range(s, len(spec.layers)), counts=step_counts)
    if net.accumulated_logits is None:
        net.accumulated_logits = np.zeros_like(h)
    net.accumulated_logits = net.accumulated_logits + h
    net.t += 1
    if net.record_activity:
        net.activity.append(np.stack(step_counts, axis=1))  # (N, mapped layers)
    return h


def run_layers(net, h, indices, t_steps=1, counts=None, tape=None):
    """Apply the layers at ``indices`` to h, the B rows entering the first.

    Rows are t_steps timestep-major blocks of B rows from the first LIF on.
    ``counts``, when a list, receives the per-sample input count of every
    weighted layer.  Without a tape layers run on `inference_params`, unfolded
    norms use running statistics and LIF layers continue from
    ``net.lif_states``; with one, LIF layers start from rest, every layer
    appends its cache to ``tape["caches"]``, and if ``tape["train"]`` norms
    propose updates in ``tape["norm_updates"]``.  A tape's conv, train-mode
    norm, LIF and pool outputs come from ``tape["workspace"]`` (a new
    `Workspace` when it is None), keyed by layer index, and a train-mode
    norm or a LIF layer writes its output over an input that no tape entry
    holds.
    """
    spec = net.spec
    s = first_lif(spec)
    batch = h.shape[0]
    record = tape["caches"].append if tape is not None else lambda cache: None
    params = net.params if tape is not None else inference_params(net)
    ws = None if tape is None else tape["workspace"] or Workspace()
    owned = False  # with a tape: h is this pass's own array and no tape entry holds it
    for i in indices:
        layer, par, plan = spec.layers[i], params[i], spec.layer_plan[i]
        kind, cfg = layer.kind, plan.config
        if counts is not None and plan.weight_shape is not None:
            counts.append(_count_inputs(h, analog=i < s))
        if kind == "conv":
            out = None if ws is None else ws.channels_last(
                (i, "y"), (len(h),) + plan.out_shape, np.result_type(h, par["w"]))
            y = conv2d(h, par["w"], cfg, out)
            if "b" in par:
                y += par["b"].reshape(1, -1, 1, 1)
            record((kind, cfg, h))
            h = y
        elif kind == "norm":
            cache = None
            if tape is not None and tape["train"]:
                repeats = t_steps if i < s else 1  # the stem's rows stand for T copies
                xhat = ws.empty_like((i, "xhat"), h, dtype=np.result_type(h, 1.0))
                dtype = np.result_type(xhat, par["gamma"])
                y = h if owned and h.dtype == dtype else ws.empty_like((i, "y"), h, dtype=dtype)
                h, tape["norm_updates"][i], cache = batch_norm_train_cached(
                    h, par, repeats, (xhat, y))
            elif par is not None:  # None: folded into the layer before
                h = batch_norm(h, par)
            record((kind, cache))
        elif kind == "lif":
            state = None if tape is not None else net.lif_states.get(i)
            if tape is None and (state is None or state.u.shape != h.shape):
                if state is not None:
                    raise StateError("batch size changed mid-inference; call reset_states first")
                state = net.lif_states[i] = LifState(np.zeros_like(h))
            h = h.reshape((-1, batch) + h.shape[1:])
            out = None
            if ws is not None:
                in_place = owned and len(h) == t_steps  # not the stem's broadcast rows
                out = (_empty_steps(h[0], t_steps, ws, (i, "u_pre")),
                       h if in_place else _empty_steps(h[0], t_steps, ws, (i, "spikes")))
            if len(h) < t_steps:  # the stem's rows, the same at every step
                h = np.broadcast_to(h, (t_steps,) + h.shape[1:])
            spikes, cache = lif_unroll(h, cfg, net.smooth_spikes, state, out)
            record((kind, cfg, cache))
            h = spikes.reshape((-1,) + spikes.shape[2:])
        elif kind == "pool":
            record((kind, layer.window))
            w = layer.window
            out = None if ws is None else ws.empty_like(
                (i, "y"), h[:, :, ::w, ::w], dtype=np.result_type(h, 1.0))
            h = avg_pool2d(h, w, out)
        else:  # fc / classifier
            h, shape = h.reshape(h.shape[0], -1), h.shape
            record((kind, h, shape))
            h = fully_connected(h, par["w"], par["b"])
        owned = kind != "lif"  # a LIF layer's tape entry holds its spikes
    return h


def mean_output(net):
    """Accumulated logits divided by the number of executed timesteps."""
    if net.t < 1:
        raise StateError("mean_output requires at least one executed timestep")
    return net.accumulated_logits / net.t


def _check_t_steps(spec, t_steps):
    if not 1 <= t_steps <= spec.t_max:
        raise ValueError(f"t_steps must be in [1, {spec.t_max}], got {t_steps}")


def static_forward(net, x, t_steps):
    """Reset, run a fixed number of timesteps, return the mean logits."""
    _check_t_steps(net.spec, t_steps)
    reset_states(net)
    for _ in range(t_steps):
        forward_timestep(net, x)
    return mean_output(net)


def _scan_rows(spec, itemsize, batch_size):
    """Samples per scan tile: as many as keep the widest per-sample
    activation of ``spec`` within `kernels.BLOCK_BYTES` per tile, at least 1
    and at most ``batch_size``."""
    widest = max(int(np.prod(shape)) for plan in spec.layer_plan
                 for shape in (plan.in_shape, plan.out_shape))
    return max(1, min(batch_size, kernels.BLOCK_BYTES // (widest * itemsize)))


def scan_timesteps(net, images, t_steps, batch_size=512):
    """Batched unroll over all timesteps recording the running means.

    Returns a dict with
      mean_logits: (N, T, K) running-mean classifier output after each step,
      activity:    (N, T, L) per-sample spike counts per mapped layer, or
                   None when the instance does not record activity.
    Samples run in tiles, each through all t_steps before its worker takes
    the next.  A tile holds as many samples as keep its widest layer
    activation within about `kernels.BLOCK_BYTES`, so a tile's membranes,
    spikes and cached stem output stay in cache between layers (27 samples
    for configs/mnist.yaml in float32); ``batch_size`` only caps that
    number.  BLAS is held at one thread throughout.  The tiles are the
    blocks of one `kernels.run_blocks` call: the caller's thread runs them
    on ``net`` and each helper thread on a clone (`clone_state`); the
    kernels inside a tile run their own blocks inline.  Results are written
    by sample index, so the outcome depends neither on the tiling nor on the
    workers.  The first error of any tile stops the other workers at their
    next tile and is raised; ``net`` is left reset either way.  Raises
    ValueError for an empty batch, t_steps outside [1, spec.t_max] or
    batch_size < 1, and DataFormatError when images is not an array of real
    numbers.
    """
    spec = net.spec
    _check_t_steps(spec, t_steps)
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    images = as_images(images)
    n = images.shape[0]
    if n == 0:
        raise ValueError("scan_timesteps requires a non-empty batch")
    itemsize = np.result_type(images.dtype, net.params[-1]["w"].dtype).itemsize
    rows = _scan_rows(spec, itemsize, batch_size)
    mean_logits = np.zeros((n, t_steps, spec.num_classes), dtype=np.float32)
    activity = None
    if net.record_activity:
        mapped = sum(plan.weight_shape is not None for plan in spec.layer_plan)
        activity = np.zeros((n, t_steps, mapped))

    def tile(i, inst):
        start = i * rows
        chunk = images[start : start + rows]
        reset_states(inst)
        for t in range(t_steps):
            forward_timestep(inst, chunk)
            mean_logits[start : start + len(chunk), t] = mean_output(inst)
        if activity is not None:
            activity[start : start + len(chunk)] = np.stack(inst.activity, axis=1)

    inference_params(net)  # built once here, shared by the clones
    try:
        with kernels.one_blas_thread():  # a single tile runs inline, held too
            kernels.run_blocks(-(-n // rows), tile, net, net.clone_state)
    finally:
        reset_states(net)
    return {"mean_logits": mean_logits, "activity": activity}
