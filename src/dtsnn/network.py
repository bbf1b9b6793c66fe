"""Stateful spiking network: LIF dynamics and the one layer engine.

The network consumes the raw analog input at every timestep (direct
encoding); the first convolution plus its LIF layer turn it into spike
trains.  Classifier logits are analog and are accumulated across timesteps;
the prediction is the running mean of those accumulated logits.

`run_layers` is the only layer loop and `lif_unroll` the only LIF update:
inference (`forward_timestep`) runs one timestep per call, training
(`training.forward_with_tape`) runs T timesteps stacked in the batch axis.

The stem -- the layers before the first LIF layer (`NetworkSpec.first_lif`)
-- sees the same input at every timestep, so its output does not depend on
t.  It runs on the B input rows and the first LIF layer broadcasts it over
T.  `forward_timestep` computes it once per input and caches it on the
instance, keyed on the identity of the input array: the cache is reused
while the same array object is passed and is dropped by `reset_states`.  A
caller that mutates an input array in place between timesteps must call
`reset_states` first.

Without a tape, `run_layers` runs on `inference_params`: eval norms folded
into the conv / fc before them, rebuilt whenever a parameter array is
replaced.  Parameter arrays are read-only from the first inference on;
replace them, do not write into them.

An SnnInstance is single-owner mutable state: one inference at a time.
Weights may be shared read-only between instances; `clone_state` gives each
worker its own membrane potentials (and no cached stem) over the same built
inference plan.  `scan_timesteps` does this itself: its tiles run on the
workers of `kernels.run_blocks`, each on its own clone.

Without a tape every layer runs on arrays the instance builds once per input
shape (`StepBuffers`): the LIF potentials, a bool keep array that holds a LIF
layer's spikes for the pool after it, each pool's integer window sums, each
convolution's zero-bordered input, window views and output.  It keeps those
of a batch of at most one scan tile; those of a larger batch last until
`reset_states`.
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


def lif_unroll(currents, cfg, smooth=False, state=None, out=None, keep=None):
    """Forward a (T, B, ...) current tensor through one LIF layer.

    Each step: u <- tau*u + input; spike where u > v_th (strict), or
    spike_ramp(u) when ``smooth``; u <- u*(1-spike).  The potentials are
    updated in place, the state's own buffer included.  Without ``state`` the
    unroll starts from rest and returns (spikes, (u_pre, spikes)), the cache
    `training.lif_unroll_backward` needs; ``out``, a pair (u_pre, spikes) of
    (T, B, ...) arrays, receives it, and its spikes may be currents itself.
    With a LifState it continues from the state's potentials, leaves the
    final potentials in it, and returns (spikes, None): inference keeps no
    pre-reset potentials, and ``out`` is (None, spikes).  Strict firing
    computes keep = u <= v_th into ``keep``, a bool (B, ...) array (a new one
    when it is None), and spikes = not keep; bool spikes may be ``keep``
    itself.  Samples are independent: the batch runs in blocks of about
    `kernels.BLOCK_BYTES` of one step's currents (`kernels.run_row_blocks`),
    each through all T steps, from rest on potentials of its own.
    """
    t_steps, batch = currents.shape[:2]
    step = currents[0]
    if state is None:
        u = None
        if out is None:
            out = (_empty_steps(step, t_steps), _empty_steps(step, t_steps))
    elif step.shape != state.u.shape:
        raise ShapeError(
            f"input current shape {step.shape} does not match "
            f"membrane shape {state.u.shape}"
        )
    else:
        u = state.u
        if out is None:
            out = (None, _empty_steps(step, t_steps))
    u_pre, spikes = out
    row_bytes = step.nbytes // max(1, batch)
    if batch <= kernels.block_rows(row_bytes):
        _lif_rows(currents, cfg, smooth, u, u_pre, spikes, keep)
    else:
        kernels.run_row_blocks(batch, row_bytes, lambda rows: _lif_rows(
            currents[:, rows], cfg, smooth, None if u is None else u[rows],
            None if u_pre is None else u_pre[:, rows], spikes[:, rows],
            None if keep is None else keep[rows]))
    if state is None:
        return spikes, (u_pre, spikes)
    return spikes, None


def _lif_rows(currents, cfg, smooth, u, u_pre, spikes, keep=None):
    """`lif_unroll` of one block of samples: updates u in place (from rest
    when u is None) and writes each step's potentials before the reset
    (unless u_pre is None) and spikes, by way of ``keep`` (new when None)."""
    if u is None:
        u = np.zeros_like(currents[0])
    if keep is None:
        keep = np.empty_like(u, dtype=bool)
    for t in range(currents.shape[0]):
        current, spike, v, k = _channels_last_views(currents[t], spikes[t], u, keep)
        v *= cfg.tau
        v += current
        if u_pre is not None:
            u_pre[t] = u
        if smooth:
            spike[...] = spike_ramp(v, cfg.v_th)
            v *= 1.0 - spike
        else:
            np.less_equal(v, cfg.v_th, out=k)
            v *= k
            np.logical_not(k, out=spike, casting="unsafe")


def _channels_last_views(*arrays):
    """The (N,H,W,C) views of (N,C,H,W) arrays that all lie in channels-last
    memory, else the arrays: a ufunc on C-contiguous operands skips numpy's
    strided iterator, which costs about 2 us a call at batch 1."""
    if arrays[0].ndim == 4:
        views = [a.transpose(0, 2, 3, 1) for a in arrays]
        if all(v.flags.c_contiguous for v in views):
            return views
    return arrays


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

    @cached_property
    def first_lif(self):
        """Index of the first LIF layer; layers before it form the stem, whose
        output is the same at every timestep under direct encoding."""
        return next(i for i, layer in enumerate(self.layers) if layer.kind == "lif")

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


def as_labels(labels, n, num_classes):
    """labels as an array of one class index per image (`np.asarray`).

    ShapeError unless it holds n labels; ValueError unless they are integers
    in [0, num_classes): a label of any other count, type or range would be
    compared with the predictions as if it were one.
    """
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeError(f"expected {n} labels, one per image, got shape {labels.shape}")
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must lie in [0, {num_classes}) as integers, "
                         f"got dtype {labels.dtype}")
    if n and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    return labels


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
        self.grown = 0  # buffers replaced by larger ones: views of the old bytes are stale

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
            self.grown += buf is not None
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


class StepLayer(NamedTuple):
    """The arrays one layer of an inference step runs on (`StepBuffers`)."""

    input: np.ndarray    # the array it reads, h copied in unless h is it; None: h as it comes
    count: np.ndarray    # one row per sample holding a weighted layer's input values
    buffers: object      # the kernel's ConvBuffers / PoolBuffers, an fc's input rows,
                         # a LIF layer's (potentials, keep)
    out: np.ndarray      # the array it writes; None: a new one


_NO_STEP = StepLayer(None, None, None, None)  # a folded norm's, and every layer's under a tape


class StepBuffers:
    """The arrays of an instance's inference steps, built for one input shape.

    `forward_timestep` runs the layers on the `StepLayer` arrays of its
    input's (rows, dtype) and the instance's firing mode, built on the first
    step at that key and kept until a step at another key rebuilds them: a
    later step at the same key allocates only its logits and activity row.
    The memory is bytes kept per (layer, role) in a `Workspace`, so a
    smaller batch (a scan's last tile) takes a prefix.  An array that the
    next layer reads and no later one does is shared by the layers of its
    role: the convolutions' unfold scratch (at most one block), the outputs
    of the convolutions after the stem, the LIF layers' keep arrays and the
    pools' sums.  A build that had to replace a buffer with a larger one
    walks the layers again, on the grown bytes: an earlier layer of the
    walk may hold a view of the old one.  A batch of more rows than one scan
    tile (`_scan_rows`) gets arrays on a `Workspace` of its own, built at
    its first step and kept beside the slot, never in it, until
    `reset_states`; its kernels run their blocks one after another, as a
    tile's do.  The arrays hold no weights: a rebuilt `inference_params`
    keeps them unless the parameters' dtypes changed.  Every step
    overwrites them, so each instance has its own (`clone_state` gives the
    clone new ones).
    """

    def __init__(self):
        self._memory = Workspace()
        self._key = self._layers = None  # (rows, dtype, smooth), tuple of StepLayer
        self._batch = None  # (key, layers) of a batch above one scan tile

    def layers(self, net, params, rows, dtype):
        """The StepLayer of every layer of ``net`` for ``rows`` input rows of
        ``dtype``."""
        key = (rows, dtype, net.smooth_spikes)
        if key == self._key:
            return self._layers
        if self._batch is not None and self._batch[0] == key:
            return self._batch[1]
        dtype = np.dtype(dtype)
        if rows > _scan_rows(net.spec, np.result_type(dtype, params[-1]["w"]).itemsize, rows):
            self._batch = (key, _build_step(net, params, rows, dtype, Workspace()))
            return self._batch[1]
        self._layers = _build_step(net, params, rows, dtype, self._memory)
        self._key = key
        return self._layers

    def drop_batch(self):
        """Let go of the arrays of a batch above one scan tile."""
        self._batch = None


def _build_step(net, params, n, dtype, memory):
    """`_step_layers` on ``memory``, walked again when a shared buffer grew
    during the first walk and left the layers before it on the old bytes."""
    grown = memory.grown
    step = _step_layers(net.spec, params, n, dtype, net.smooth_spikes, memory.empty)
    if memory.grown != grown:
        step = _step_layers(net.spec, params, n, dtype, net.smooth_spikes, memory.empty)
    return step


def _step_layers(spec, params, n, dtype, smooth, empty):
    """The StepLayer of every layer for n input rows of ``dtype``.

    ``empty(key, shape, dtype)`` returns an uninitialized C-order array kept
    under key.  Every layer gets the output dtype its kernel would give.  A
    convolution reads a zero-bordered buffer and an fc layer C-order rows;
    the layer before writes straight into them when its output has their
    dtype, and the loop copies h in otherwise.  A strict LIF layer before a
    pool leaves its spikes as bool, its keep buffer inverted, which the pool
    sums as bytes (`kernels.pool_buffers`); every other output is in the
    step's float dtype, so no bool array reaches a GEMM or a norm.  4-d
    arrays are (N,C,H,W) views of channels-last memory.
    """
    layers, plans, s = spec.layers, spec.layer_plan, spec.first_lif
    inputs = {}  # layer index -> its ConvBuffers or fixed input array

    def own(i, role, shape, dt):
        if len(shape) == 4:
            n_, c, h, w = shape
            return empty((i, role), (n_, h, w, c), dt).transpose(0, 3, 1, 2)
        return empty((i, role), shape, dt)

    def fixed_input(i, dt):
        """The array layer i reads, for input dtype dt; None for h as it comes."""
        if i < len(layers) and i not in inputs:
            kind, plan = layers[i].kind, plans[i]
            shape = (n,) + plan.in_shape
            if kind == "conv":
                keys = {"x": (i, "x"), "cols": ("step", "cols"),
                        "y": (i, "y") if i < s else ("step", "y")}
                inputs[i] = kernels.conv_buffers(
                    shape, plan.config, np.result_type(dt, params[i]["w"]), dt.itemsize,
                    lambda role, shape, dt: empty(keys[role], shape, dt))
            elif kind in ("fc", "classifier"):
                inputs[i] = empty((i, "x"), shape, dt)
            elif kind == "pool" and i == 0:  # the raw input: laid out for the pool
                inputs[i] = own(i, "x", shape, dt)
        found = inputs.get(i)
        return found.x if isinstance(found, kernels.ConvBuffers) else found

    def dest(i, dt):
        """Where layer i writes an output of dtype dt: the next layer's input
        when it has that dtype, else an array of its own."""
        nxt = fixed_input(i + 1, dt)
        if nxt is not None and nxt.dtype == dt:
            return nxt
        return own(i, "y", (n,) + plans[i].out_shape, dt)

    step, dt = [], dtype
    for i, (layer, par, plan) in enumerate(zip(layers, params, plans)):
        kind, fixed = layer.kind, fixed_input(i, dt)
        if kind == "conv":
            conv = inputs[i]
            arrays = StepLayer(fixed, conv.padded, conv, conv.out)
            dt = conv.out.dtype
        elif kind == "norm" and par is not None:
            dt = np.result_type(dt, par["running_mean"])
            arrays = StepLayer(None, None, None, dest(i, dt))
        elif kind == "lif":
            u = own(i, "u", (n,) + plan.in_shape, dt)
            keep = own("step", "keep", u.shape, bool)
            to_pool = not smooth and i + 1 < len(layers) and layers[i + 1].kind == "pool"
            arrays = StepLayer(None, None, (u, keep), keep if to_pool else dest(i, dt))
        elif kind == "pool":
            # the pool's views are built on the array it reads: the output of
            # the last layer that wrote one (a folded norm writes none)
            src = fixed if fixed is not None else \
                next(a.out for a in reversed(step) if a.out is not None)
            dt = np.result_type(dt, 1.0)
            pool = kernels.pool_buffers(src, layer.window, dest(i, dt),
                                        lambda role, shape, dt: empty(("step", role), shape, dt))
            arrays = StepLayer(fixed, None, pool, pool.out)
        elif kind in ("fc", "classifier"):
            rows = fixed.reshape(n, -1)
            dt = np.result_type(dt, par["w"])
            arrays = StepLayer(fixed, rows, rows, None if kind == "classifier" else dest(i, dt))
        else:  # a norm folded into the layer before
            arrays = _NO_STEP
        if plan.weight_shape is not None and i > s and layers[i - 1].kind == "pool" \
                and step[-1].buffers.sums.dtype.kind == "u":
            # the pool's integer window sums: nonzero where its means are, and smaller
            arrays = arrays._replace(count=step[-1].buffers.sums)
        step.append(arrays)
    return tuple(step)


@dataclass
class SnnInstance:
    """A NetworkSpec bound to weights plus the mutable inference state.

    ``stem`` caches ``(input, stem output, stem activity counts)`` for the
    input array last passed to `forward_timestep`; the counts are None when
    it was computed without ``record_activity``.  It lives until
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
    step_buffers: StepBuffers = field(default_factory=StepBuffers, repr=False, compare=False)

    def clone_state(self):
        """New instance sharing the weight arrays, their inference plan, the
        training workspace and the firing mode, with fresh inference state
        and step buffers of its own.

        The clone has its own parameter list and dicts over the same
        (read-only once the plan is built) arrays, so replacing an entry, as
        training does, leaves the source alone."""
        return SnnInstance(
            spec=self.spec,
            params=[None if p is None else dict(p) for p in self.params],
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
    and drop the cached stem output and the arrays of a batch above one scan
    tile.  The kept step buffers stay: the next step zeroes the potentials
    it takes from them."""
    net.lif_states = {}
    net.accumulated_logits = None
    net.t = 0
    net.activity = []
    net.stem = None
    net.step_buffers.drop_batch()


def inference_params(net):
    """Per-layer parameters `run_layers` uses without a tape.

    A norm directly after a conv or fc is folded into it, in float64: with
    s = gamma / sqrt(running_var + BN_EPS) the weights become w*s, the bias
    (b - running_mean)*s + beta, and the norm's entry None.  Conv weights are
    (C_out, C_in, kh, kw) views of (C_out, kh, kw, C_in) memory, the column
    order of `conv2d`'s unfolded input; a conv with a bias also gets "b_map",
    the bias repeated at each output position in the order of one sample's
    (Ho, Wo, C_out) memory, as a row.  Kept in ``net.inference_plan`` and rebuilt,
    dropping the cached stem, when an array of ``net.params`` has
    been replaced; building it makes those arrays read-only.  A rebuild with
    other dtypes also drops ``net.step_buffers``, laid out for the old ones.
    """
    arrays = [a for p in net.params if p is not None for a in p.values()]
    plan = net.inference_plan
    if plan is None or len(plan[0]) != len(arrays) or not all(map(operator.is_, plan[0], arrays)):
        for a in arrays:
            a.flags.writeable = False
        if plan is not None and [a.dtype for a in plan[0]] != [a.dtype for a in arrays]:
            net.step_buffers = StepBuffers()
        kinds, params = [layer.kind for layer in net.spec.layers], list(net.params)
        for i in range(1, len(kinds)):
            if kinds[i] == "norm" and kinds[i - 1] in ("conv", "fc"):
                prev, norm = params[i - 1], {k: v.astype(np.float64) for k, v in params[i].items()}
                s = norm["gamma"] / np.sqrt(norm["running_var"] + BN_EPS)
                w = prev["w"] * s.reshape((-1,) + (1,) * (prev["w"].ndim - 1))
                b = (prev.get("b", 0.0) - norm["running_mean"]) * s + norm["beta"]
                params[i - 1] = {"w": w.astype(prev["w"].dtype), "b": b.astype(prev["w"].dtype)}
                params[i] = None
        for i, plan in enumerate(net.spec.layer_plan):
            if kinds[i] == "conv":
                w = np.ascontiguousarray(params[i]["w"].transpose(0, 2, 3, 1))
                p = params[i] = dict(params[i], w=w.transpose(0, 3, 1, 2))
                if "b" in p:
                    p["b_map"] = np.tile(p["b"], (1, math.prod(plan.out_shape[1:])))
        net.inference_plan, net.stem = (arrays, params), None
    return net.inference_plan[1]


def _count_inputs(h, analog):
    """Per-sample drive presented to a crossbar-mapped layer this timestep.

    Analog inputs (direct encoding into a weighted layer of the stem) drive
    every row, so the count is the number of elements; spiking inputs count
    the nonzero lines only.  A step passes each sample's input values as one
    contiguous row (`StepLayer.count`), counted row by row: a count along an
    axis goes through numpy's astype(bool) and sum, which allocates and
    costs more there.
    """
    if analog:
        return np.full(h.shape[0], math.prod(h.shape[1:]), dtype=np.float64)
    if len(h) == 1:
        return np.array([np.count_nonzero(h)], dtype=np.float64)
    return np.array([np.count_nonzero(row) for row in h], dtype=np.float64)


def forward_timestep(net, x):
    """Run every layer for one timestep and accumulate the classifier logits.

    x is the raw input batch (N,C,H,W), presented identically at every
    timestep.  The stem runs only when x is not the array whose stem output
    is cached (see the module docstring).  Returns this step's logits (N, K).
    Raises ShapeError for an empty batch or another input shape.
    """
    spec = net.spec
    if net.t >= spec.t_max:
        raise StateError(f"forward_timestep called beyond t_max={spec.t_max}")
    x = as_images(x)
    if x.shape[1:] != spec.input_shape:
        raise ShapeError(
            f"input shape {x.shape[1:]} does not match network input {spec.input_shape}"
        )
    if len(x) == 0:
        raise ShapeError("forward_timestep requires a non-empty batch")
    s = spec.first_lif
    params = inference_params(net)  # a rebuilt plan drops the stem computed on old weights
    step = net.step_buffers.layers(net, params, len(x), x.dtype)
    record = net.record_activity
    if net.stem is None or net.stem[0] is not x or (record and net.stem[2] is None):
        check_finite(x)
        stem_counts = [] if record else None
        net.stem = (x, run_layers(net, x, range(s), counts=stem_counts, params=params, step=step),
                    stem_counts)
    _, h, stem_counts = net.stem
    step_counts = list(stem_counts) if record else None
    h = run_layers(net, h, range(s, len(spec.layers)), counts=step_counts, params=params,
                   step=step)
    if net.accumulated_logits is None:
        net.accumulated_logits = np.zeros_like(h)
    net.accumulated_logits += h
    net.t += 1
    if step_counts is not None:
        net.activity.append(np.array(step_counts).T)  # (N, mapped layers)
    return h


def run_layers(net, h, indices, t_steps=1, counts=None, tape=None, *, params, step=None):
    """Apply the layers at ``indices`` to h, the B rows entering the first.

    Rows are t_steps timestep-major blocks of B rows from the first LIF on.
    ``counts``, when a list, receives the per-sample input count of every
    weighted layer.  Layers run on ``params``: ``net.params`` with a tape,
    else `inference_params`.  Without a tape the pass is one timestep
    (t_steps 1): unfolded norms use running statistics, LIF layers continue
    from ``net.lif_states``, and each layer runs on its arrays in ``step``,
    the instance's `StepBuffers` layers of the step's input.  With a tape
    ``step`` is None: LIF layers start from rest, norms use batch statistics
    and propose updates in ``tape["norm_updates"]``, and every layer appends
    its cache to ``tape["caches"]``.  A tape's conv, norm, LIF and pool
    outputs come from ``tape["workspace"]`` (a new `Workspace` when it is
    None), keyed by layer index, and a norm or a LIF layer writes its output
    over an input that no tape entry holds.
    """
    spec = net.spec
    layers, plans, s = spec.layers, spec.layer_plan, spec.first_lif
    batch = h.shape[0]
    ws = None
    if tape is not None:
        ws, record = tape["workspace"] or Workspace(), tape["caches"].append
    owned = False  # with a tape: h is this pass's own array and no tape entry holds it
    for i in indices:
        layer, par, plan = layers[i], params[i], plans[i]
        kind, cfg = layer.kind, plan.config
        arrays = _NO_STEP if step is None else step[i]
        if arrays.input is not None and h is not arrays.input:
            np.copyto(arrays.input, h)
            h = arrays.input
        if counts is not None and plan.weight_shape is not None:
            counts.append(_count_inputs(h if i < s or arrays.count is None else arrays.count,
                                        analog=i < s))
        if kind == "conv":
            out = None if ws is None else ws.channels_last(
                (i, "y"), (len(h),) + plan.out_shape, np.result_type(h, par["w"]))
            y = conv2d(h, par["w"], cfg, out, buffers=arrays.buffers)
            if "b" in par and arrays.buffers is None:
                y += par["b"].reshape(1, -1, 1, 1)
            elif "b" in par:  # one contiguous add per sample
                np.add(arrays.buffers.rows, par["b_map"], out=arrays.buffers.rows)
            if ws is not None:
                record((kind, cfg, h))
            h = y
        elif kind == "norm" and ws is None:
            if par is not None:  # None: folded into the layer before
                h = batch_norm(h, par, out=arrays.out)
        elif kind == "norm":
            repeats = t_steps if i < s else 1  # the stem's rows stand for T copies
            xhat = ws.empty_like((i, "xhat"), h, dtype=np.result_type(h, 1.0))
            dtype = np.result_type(xhat, par["gamma"])
            y = h if owned and h.dtype == dtype else ws.empty_like((i, "y"), h, dtype=dtype)
            h, tape["norm_updates"][i], cache = batch_norm_train_cached(h, par, repeats, (xhat, y))
            record((kind, cache))
        elif kind == "lif" and ws is None:  # one step, from the instance's potentials
            u, keep = arrays.buffers
            state = net.lif_states.get(i)
            if state is None:
                u.fill(0)
                state = net.lif_states[i] = LifState(u)
            elif state.u.shape != h.shape:
                raise StateError("batch size changed mid-inference; call reset_states first")
            h = lif_unroll(h[None], cfg, net.smooth_spikes, state, (None, arrays.out[None]),
                           keep)[0][0]
        elif kind == "lif":
            h = h.reshape((-1, batch) + h.shape[1:])
            in_place = owned and len(h) == t_steps  # not the stem's broadcast rows
            out = (_empty_steps(h[0], t_steps, ws, (i, "u_pre")),
                   h if in_place else _empty_steps(h[0], t_steps, ws, (i, "spikes")))
            if len(h) < t_steps:  # the stem's rows, the same at every step
                h = np.broadcast_to(h, (t_steps,) + h.shape[1:])
            spikes, cache = lif_unroll(h, cfg, net.smooth_spikes, None, out)
            record((kind, cfg, cache))
            h = spikes.reshape((-1,) + spikes.shape[2:])
        elif kind == "pool":
            w = layer.window
            out = None
            if ws is not None:
                record((kind, w))
                out = ws.empty_like((i, "y"), h[:, :, ::w, ::w], dtype=np.result_type(h, 1.0))
            h = avg_pool2d(h, w, out, buffers=arrays.buffers)
        else:  # fc / classifier
            shape = h.shape
            h = h.reshape(h.shape[0], -1) if arrays.buffers is None else arrays.buffers
            if ws is not None:
                record((kind, h, shape))
            h = fully_connected(h, par["w"], par["b"], out=arrays.out)
        owned = kind != "lif"  # a LIF layer's tape entry holds its spikes
    return h


def mean_output(net):
    """Accumulated logits divided by the number of executed timesteps."""
    if net.t < 1:
        raise StateError("mean_output requires at least one executed timestep")
    return net.accumulated_logits / net.t


def _scan_rows(spec, itemsize, batch_size):
    """Samples per scan tile: as many as keep the widest per-sample
    activation of ``spec`` within `kernels.BLOCK_BYTES` per tile, at least 1
    and at most ``batch_size``."""
    widest = max(math.prod(shape) for plan in spec.layer_plan
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
    blocks of one `kernels.run_blocks` call, which every worker, the
    caller's thread too, runs on a clone (`clone_state`): its step buffers
    live for the call, so an idle ``net`` keeps none of a scan's.  The
    kernels inside a tile run their own blocks inline.  Results are written
    by sample index, so the outcome depends neither on the tiling nor on the
    workers.  The first error of any tile stops the other workers at their
    next tile and is raised; ``net`` is left reset either way.  Raises
    ValueError for an empty batch, t_steps outside [1, spec.t_max] or
    batch_size < 1, and DataFormatError when images is not an array of real
    numbers.
    """
    spec = net.spec
    if not 1 <= t_steps <= spec.t_max:
        raise ValueError(f"t_steps must be in [1, {spec.t_max}], got {t_steps}")
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
            kernels.run_blocks(-(-n // rows), tile, net.clone_state(), net.clone_state)
    finally:
        reset_states(net)
    return {"mean_logits": mean_logits, "activity": activity}
