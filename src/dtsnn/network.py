"""Stateful spiking network: LIF dynamics, the inference step and the
training tape's layer loop.

The network consumes the raw analog input at every timestep (direct
encoding); the first convolution plus its LIF layer turn it into spike
trains.  Classifier logits are analog and are accumulated across timesteps;
the prediction is the running mean of those accumulated logits.

`_lif_update` is the only LIF update.  Training
(`training.forward_with_tape`) runs T timesteps stacked in the batch axis
through `run_layers`, the tape's layer loop, whose LIF layers are
`lif_unroll`.  Inference (`forward_timestep`) runs one timestep per call as
a `StepProgram`: a tuple of calls bound to the step's arrays, built once
and run as it is.

The stem -- the layers before the first LIF layer (`NetworkSpec.first_lif`)
-- sees the same input at every timestep, so its output does not depend on
t.  It runs on the B input rows and the first LIF layer broadcasts it over
T.  `forward_timestep` computes it once per input and caches it on the
instance, keyed on the identity of the input array: the cache is reused
while the same array object is passed and is dropped by `reset_states`.  A
caller that mutates an input array in place between timesteps must call
`reset_states` first.

Inference runs on `inference_params`: eval norms folded into the conv / fc
before them, rebuilt whenever a parameter array is replaced.  Parameter
arrays are read-only from the first inference on; replace them, do not
write into them.

An SnnInstance is single-owner mutable state: one inference at a time.
Weights may be shared read-only between instances; `clone_state` gives each
worker its own membrane potentials (and no cached stem) over the same built
inference plan.  `scan_timesteps` does this itself: its tiles run on the
workers of `kernels.run_blocks`, each on its own clone.

An inference step runs every layer on arrays the instance lays out in the
same walk over the layers that binds the step's calls to them
(`_step_program`): the LIF potentials, a bool keep array that holds a LIF
layer's spikes for the pool after it, each pool's integer window sums, each
convolution's zero-bordered input, window views and output.  `StepBuffers`
keeps that program until the input shape, the firing mode,
``record_activity`` or the inference parameters change; the next build lays
its arrays out over the same bytes.  A batch above one scan tile gets bytes
of its own, which last until `reset_states`.  The kernels the calls run are
looked up by name at each call.
"""

import functools
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


def lif_unroll(currents, cfg, smooth=False, out=None):
    """Forward a (T, B, ...) current tensor through one LIF layer from rest:
    the training tape's LIF layer.

    Each step is `_lif_update`.  Returns (spikes, (u_pre, spikes)), the
    cache `training.lif_unroll_backward` needs; ``out``, a pair (u_pre,
    spikes) of (T, B, ...) arrays, receives it, and its spikes may be
    currents itself.  Samples are independent: the batch runs in blocks of
    about `kernels.BLOCK_BYTES` of one step's currents
    (`kernels.run_row_blocks`), each through all T steps, from rest on
    potentials of its own.  An inference step does not come here: its
    program calls `_lif_update` on the step's own arrays, and `lif_step`
    continues a LifState.
    """
    t_steps, batch = currents.shape[:2]
    step = currents[0]
    if out is None:
        out = (_empty_steps(step, t_steps), _empty_steps(step, t_steps))
    u_pre, spikes = out
    row_bytes = step.nbytes // max(1, batch)
    if batch <= kernels.block_rows(row_bytes):
        _lif_rows(currents, cfg, smooth, u_pre, spikes)
    else:
        kernels.run_row_blocks(batch, row_bytes, lambda rows: _lif_rows(
            currents[:, rows], cfg, smooth, u_pre[:, rows], spikes[:, rows]))
    return spikes, (u_pre, spikes)


def _lif_rows(currents, cfg, smooth, u_pre, spikes):
    """`lif_unroll` of one block of samples: `_lif_update` at every step,
    from rest, writing each step's potentials before the reset and its
    spikes."""
    u = np.zeros_like(currents[0])
    keep = np.empty_like(u, dtype=bool)
    for t in range(currents.shape[0]):
        current, v, k, spike, pre = _channels_last_views(currents[t], u, keep, spikes[t], u_pre[t])
        _lif_update(current, v, cfg, smooth, k, spike, pre)


def _lif_update(current, v, cfg, smooth, keep, spike, u_pre=None):
    """One LIF step, in place, on arrays of one layout: v <- tau*v + current;
    ``u_pre`` (unless None) receives v; then spike where v > v_th (strict),
    or spike_ramp(v) when ``smooth``; v <- v*(1-spike).

    Strict firing computes keep = v <= v_th into ``keep``, a bool array,
    for the hard reset (v *= keep) and writes spike = not keep; bool spikes
    may be ``keep`` itself.  The one LIF update: the tape's `_lif_rows` and
    every inference step call it.
    """
    v *= cfg.tau
    v += current
    if u_pre is not None:
        np.copyto(u_pre, v)
    if smooth:
        spike[...] = spike_ramp(v, cfg.v_th)
        v *= 1.0 - spike
    else:
        np.less_equal(v, cfg.v_th, out=keep)
        v *= keep
        np.logical_not(keep, out=spike, casting="unsafe")


def _channels_last_views(*arrays):
    """The (N,H,W,C) views of (N,C,H,W) arrays, else the arrays: on the
    channels-last memory every array between layers has, a ufunc then gets
    C-contiguous operands and skips numpy's strided iterator, which costs
    about 2 us a call at batch 1."""
    if arrays[0].ndim == 4:
        return [a.transpose(0, 2, 3, 1) for a in arrays]
    return arrays


def lif_step(state, input_current, cfg):
    """One membrane update (`_lif_update`) of ``state``, which is mutated in
    place; returns the binary spike tensor."""
    if input_current.shape != state.u.shape:
        raise ShapeError(
            f"input current shape {input_current.shape} does not match "
            f"membrane shape {state.u.shape}"
        )
    spikes = np.empty_like(input_current)
    _lif_update(input_current, state.u, cfg, False, np.empty(spikes.shape, dtype=bool), spikes)
    return spikes


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


class StepProgram(NamedTuple):
    """One inference step: calls bound to the arrays `_step_program` laid out
    for it."""

    key: tuple           # the (rows, dtype, smooth, record) it is built for
    params: list         # the inference parameters the calls read
    memory: Workspace    # the workspace whose bytes its arrays are
    x: np.ndarray        # the first layer's input, which a step copies x into
    stem: tuple          # the stem's calls, run when its cached output is stale
    stem_out: np.ndarray # the stem's output, which the first LIF layer reads
    step: tuple          # the calls of every later layer; the last returns the logits
    potentials: dict     # LIF layer index -> its membrane potentials
    counts: np.ndarray   # (rows, mapped layers) input counts the calls write; None
                         # without record_activity


class StepBuffers:
    """An instance's inference step: the `StepProgram` of its last step and
    the memory it runs on.

    `forward_timestep` runs the program built for its input's (rows, dtype),
    the instance's firing mode and ``record_activity`` on the inference
    parameters, and keeps it until a step with another of these builds the
    next: a later step with the same ones allocates only its logits and
    activity row.  The arrays are bytes kept per (layer, role) in a
    `Workspace`, so a rebuild reuses them and a smaller batch (a scan's
    last tile) takes a prefix.  An array that the next layer reads and no
    later one does is shared by the layers of its role: the convolutions'
    unfold scratch (at most one block), the outputs of the convolutions
    after the stem, the LIF layers' keep arrays and the pools' sums.  A
    build that had to replace a buffer with a larger one walks the layers
    again, on the grown bytes: an earlier layer of the walk may hold a view
    of the old one.  A batch of more rows than one scan tile (`_scan_rows`)
    gets a `Workspace` of its own, which only its program holds, until the
    next build or `reset_states`; its kernels run their blocks one after
    another, as a tile's do.  The arrays hold no weights: a rebuilt
    `inference_params` lays them out on the same bytes unless the
    parameters' dtypes changed.  Every step overwrites them, so each
    instance has its own (`clone_state` gives the clone new ones).
    """

    def __init__(self):
        self._memory = Workspace()
        self._program = None  # StepProgram of the last step
        self._attached = None  # the lif_states dict on the program's potentials

    def program(self, net, params, rows, dtype):
        """The StepProgram of ``net``'s next step on ``rows`` input rows of
        ``dtype``, with ``net.lif_states`` on its potentials.

        A sequence's first step (no LIF states) starts them from rest on the
        program's potentials.  A later step whose program is on other arrays
        carries each state's values over, and raises StateError when the
        batch size changed.
        """
        key = (rows, dtype, net.smooth_spikes, net.record_activity)
        prog = self._program
        if prog is None or prog.key != key or prog.params is not params:
            memory = self._memory
            if rows > _scan_rows(net.spec, np.result_type(dtype, params[-1]["w"]).itemsize, rows):
                memory = Workspace()
            grown = memory.grown
            prog = _step_program(net.spec, params, key, memory)
            if memory.grown != grown:
                prog = _step_program(net.spec, params, key, memory)
            self._program, self._attached = prog, None
        if net.lif_states is not self._attached:
            _attach_states(net.lif_states, prog.potentials)
            self._attached = net.lif_states
        return prog

    def reset(self):
        """Let go of the program of a batch above one scan tile, with its
        arrays, and of the last sequence's LIF states."""
        if self._program is not None and self._program.memory is not self._memory:
            self._program = None
        self._attached = None


def _attach_states(states, potentials):
    """Put ``states``, an instance's LifState per LIF layer, on a step's
    ``potentials``: a missing state starts from rest, and a state on other
    arrays of the same shape carries its values over."""
    for i, u in potentials.items():
        state = states.get(i)
        if state is None:
            u.fill(0)
            states[i] = LifState(u)
        elif state.u is not u:
            if state.u.shape != u.shape:
                raise StateError("batch size changed mid-inference; call reset_states first")
            np.copyto(u, state.u)
            state.u = u


def _step_program(spec, params, key, memory):
    """The StepProgram of one inference step for ``key``, (n input rows,
    their dtype, smooth, record), on the inference parameters ``params``:
    one walk over the layers lays out each layer's arrays on ``memory`` and
    adds its calls on them.

    Every layer gets the output dtype its kernel would give.  A convolution
    reads a zero-bordered buffer and an fc layer C-order rows; the layer
    before writes straight into them when its output has their dtype, and
    the step copies h in otherwise; the first layer always reads an array of
    its own, which a step copies its input into.  A strict LIF layer before
    a pool leaves its spikes as bool, its keep buffer inverted, which the
    pool sums as bytes (`kernels.pool_buffers`); every other output is in
    the step's float dtype, so no bool array reaches a GEMM or a norm.  4-d
    arrays are (N,C,H,W) views of channels-last memory.

    Each layer adds its calls in the order the tape's `run_layers` visits
    it: a copy of h into the array it reads unless h is that array, with
    ``record`` the count of a weighted layer's input into its column of
    ``counts``, then its kernel -- `conv2d` (and its bias add),
    `batch_norm`, `_lif_update`, `avg_pool2d` or `fully_connected`.
    Kernels are looked up by their name in this module when called, so a
    wrapper put in their place afterwards sees every call.  A layer after a
    pool is counted right after the pool, on the pool's integer window sums
    when it has them (nonzero where its means are, and smaller), while the
    pools' shared sums are its.  The stem's input is analog, so its counts
    are filled in here, once.
    """
    n, dtype, smooth, record = key
    layers, plans, s = spec.layers, spec.layer_plan, spec.first_lif
    inputs = {}  # layer index -> its ConvBuffers or fixed input array

    def own(i, role, shape, dt):
        if len(shape) == 4:
            return memory.channels_last((i, role), shape, dt)
        return memory.empty((i, role), shape, dt)

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
                    lambda role, shape, dt: memory.empty(keys[role], shape, dt))
            elif kind in ("fc", "classifier"):
                inputs[i] = memory.empty((i, "x"), shape, dt)
            elif i == 0:  # the step's input, channels-last as a pool reads it
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

    mapped = [i for i, plan in enumerate(plans) if plan.weight_shape is not None]
    counts = np.empty((n, len(mapped))) if record else None
    dt = np.dtype(dtype)
    x = h = fixed_input(0, dt)
    calls, potentials = [], {}
    # Each call binds its arguments as defaults: the walk reuses its names.
    for i, (layer, par, plan) in enumerate(zip(layers, params, plans)):
        kind, cfg, fixed = layer.kind, plan.config, fixed_input(i, dt)
        if i == s:
            stem, stem_out, calls = tuple(calls), h, []
        if fixed is not None and fixed is not h:
            calls.append(functools.partial(np.copyto, fixed, h))
            h = fixed
        if record and plan.weight_shape is not None:
            column = counts[:, mapped.index(i)]
            if i < s:
                _count_inputs(h, True, out=column)
            else:
                rows = pool.sums if layers[i - 1].kind == "pool" and pool.sums.dtype.kind == "u" \
                    else inputs[i].padded if kind == "conv" else h.reshape(n, -1)
                calls.append(functools.partial(_count_inputs, rows, False, out=column))
        if kind == "conv":
            conv, w = inputs[i], par["w"]
            calls.append(lambda h=h, w=w, cfg=cfg, conv=conv: conv2d(h, w, cfg, buffers=conv))
            if "b" in par:  # one contiguous add per sample
                calls.append(functools.partial(np.add, conv.rows, par["b_map"], out=conv.rows))
            h, dt = conv.out, conv.out.dtype
        elif kind == "norm" and par is not None:
            dt = np.result_type(dt, par["running_mean"])
            out = dest(i, dt)
            calls.append(lambda h=h, par=par, out=out: batch_norm(h, par, out=out))
            h = out
        elif kind == "lif":
            u = potentials[i] = own(i, "u", (n,) + plan.in_shape, dt)
            keep = own("step", "keep", u.shape, bool)
            to_pool = not smooth and i + 1 < len(layers) and layers[i + 1].kind == "pool"
            out = keep if to_pool else dest(i, dt)
            current, v, k, spike = _channels_last_views(h, u, keep, out)
            calls.append(lambda current=current, v=v, cfg=cfg, k=k, spike=spike:
                         _lif_update(current, v, cfg, smooth, k, spike))
            h = out
        elif kind == "pool":
            # h: the output of the last layer that wrote one (a folded norm writes none)
            dt, window = np.result_type(dt, 1.0), layer.window
            pool = kernels.pool_buffers(h, window, dest(i, dt), lambda role, shape, dt:
                                        memory.empty(("step", role), shape, dt))
            calls.append(lambda h=h, window=window, pool=pool:
                         avg_pool2d(h, window, buffers=pool))
            h = pool.out
        elif kind in ("fc", "classifier"):
            rows, w, b = h.reshape(n, -1), par["w"], par["b"]
            dt = np.result_type(dt, w)
            out = None if kind == "classifier" else dest(i, dt)
            calls.append(lambda rows=rows, w=w, b=b, out=out: fully_connected(rows, w, b, out=out))
            h = out
        # else: a norm folded into the layer before
    return StepProgram(key, params, memory, x, stem, stem_out, tuple(calls), potentials, counts)


@dataclass
class SnnInstance:
    """A NetworkSpec bound to weights plus the mutable inference state.

    ``stem`` caches ``(input, stem output, activity counts)`` for the input
    array last passed to `forward_timestep`: the counts are the step
    program's array, which holds the stem's constant counts, None when the
    stem was computed without ``record_activity``.  It lives until
    `reset_states`, until a different array object is passed, until the
    step program is built again or until ``inference_plan`` (see
    `inference_params`) is rebuilt; instances from `clone_state` start
    without it.
    """

    spec: NetworkSpec
    params: list                  # per layer: dict of arrays, or None
    lif_states: dict = field(default_factory=dict)
    accumulated_logits: np.ndarray = None
    t: int = 0
    record_activity: bool = False
    activity: list = field(default_factory=list)  # one row per timestep
    smooth_spikes: bool = False   # fire by spike_ramp (gradient-check mode)
    stem: tuple = None            # (input, stem output, activity counts)
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
    """Drop the membrane potentials, accumulated logits, activity, the step
    counter and the cached stem output, and the step program of a batch
    above one scan tile with its arrays (`StepBuffers.reset`).  Any other
    step program stays: the next step starts its LIF states from rest on
    its potentials."""
    net.lif_states = {}
    net.accumulated_logits = None
    net.t = 0
    net.activity = []
    net.stem = None
    net.step_buffers.reset()


def inference_params(net):
    """Per-layer parameters an inference step runs on.

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


def _count_inputs(h, analog, out=None):
    """Per-sample drive presented to a crossbar-mapped layer this timestep,
    into ``out`` (a new float64 array when None).

    Analog inputs (direct encoding into a weighted layer of the stem) drive
    every row, so the count is the number of elements; spiking inputs count
    the nonzero lines only.  A step passes each sample's input values as one
    contiguous row (the rows `_step_program` binds), counted row by row: a
    count along an axis goes through numpy's astype(bool) and sum, which
    allocates and costs more there.
    """
    if out is None:
        out = np.empty(len(h))
    if analog:
        out[...] = math.prod(h.shape[1:])
    elif len(h) == 1:
        out[0] = np.count_nonzero(h)
    else:
        for r, row in enumerate(h):
            out[r] = np.count_nonzero(row)
    return out


def forward_timestep(net, x):
    """Run every layer for one timestep and accumulate the classifier logits.

    x is the raw input batch (N,C,H,W), presented identically at every
    timestep.  The step runs the calls of the instance's `StepProgram` for
    x's shape: the stem's only when x is not the array whose stem output is
    cached (see the module docstring), then the rest.  Returns this step's
    logits (N, K).  Raises ShapeError for an empty batch or another input
    shape, and StateError beyond t_max or when the batch size changed
    without `reset_states`.
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
    params = inference_params(net)  # a rebuilt plan drops the stem computed on old weights
    step = net.step_buffers.program(net, params, len(x), x.dtype)
    stem = net.stem
    if stem is None or stem[0] is not x or stem[1] is not step.stem_out:
        check_finite(x)
        np.copyto(step.x, x)
        for call in step.stem:
            call()
        net.stem = (x, step.stem_out, step.counts)
    for call in step.step:
        h = call()
    if net.accumulated_logits is None:
        net.accumulated_logits = np.zeros_like(h)
    net.accumulated_logits += h
    net.t += 1
    if step.counts is not None:
        net.activity.append(step.counts.copy())  # (N, mapped layers)
    return h


def run_layers(net, h, t_steps, tape):
    """The training tape's layer loop: every layer on ``net.params``, over
    h, the B input rows.

    Rows are t_steps timestep-major blocks of B rows from the first LIF on:
    the first LIF layer broadcasts the stem's B rows over T.  LIF layers
    start from rest, norms use batch statistics and propose updates in
    ``tape["norm_updates"]``, and every layer appends its cache to
    ``tape["caches"]``.  The conv, norm, LIF and pool outputs come from
    ``tape["workspace"]`` (a new `Workspace` when it is None), keyed by
    layer index, and a norm or a LIF layer writes its output over an input
    that no tape entry holds.  Inference does not come here: a step runs
    its `StepProgram`.
    """
    spec = net.spec
    s, batch = spec.first_lif, h.shape[0]
    ws, record = tape["workspace"] or Workspace(), tape["caches"].append
    owned = False  # h is this pass's own array and no tape entry holds it
    for i, (layer, par, plan) in enumerate(zip(spec.layers, net.params, spec.layer_plan)):
        kind, cfg = layer.kind, plan.config
        if kind == "conv":
            out = ws.channels_last((i, "y"), (len(h),) + plan.out_shape,
                                   np.result_type(h, par["w"]))
            y = conv2d(h, par["w"], cfg, out)
            if "b" in par:
                y += par["b"].reshape(1, -1, 1, 1)
            record((kind, cfg, h))
            h = y
        elif kind == "norm":
            repeats = t_steps if i < s else 1  # the stem's rows stand for T copies
            xhat = ws.empty_like((i, "xhat"), h, dtype=np.result_type(h, 1.0))
            dtype = np.result_type(xhat, par["gamma"])
            y = h if owned and h.dtype == dtype else ws.empty_like((i, "y"), h, dtype=dtype)
            h, tape["norm_updates"][i], cache = batch_norm_train_cached(h, par, repeats, (xhat, y))
            record((kind, cache))
        elif kind == "lif":
            h = h.reshape((-1, batch) + h.shape[1:])
            in_place = owned and len(h) == t_steps  # not the stem's broadcast rows
            out = (_empty_steps(h[0], t_steps, ws, (i, "u_pre")),
                   h if in_place else _empty_steps(h[0], t_steps, ws, (i, "spikes")))
            if len(h) < t_steps:  # the stem's rows, the same at every step
                h = np.broadcast_to(h, (t_steps,) + h.shape[1:])
            spikes, cache = lif_unroll(h, cfg, net.smooth_spikes, out)
            record((kind, cfg, cache))
            h = spikes.reshape((-1,) + spikes.shape[2:])
        elif kind == "pool":
            w = layer.window
            record((kind, w))
            out = ws.empty_like((i, "y"), h[:, :, ::w, ::w], dtype=np.result_type(h, 1.0))
            h = avg_pool2d(h, w, out)
        else:  # fc / classifier
            shape = h.shape
            h = h.reshape(h.shape[0], -1)
            record((kind, h, shape))
            h = fully_connected(h, par["w"], par["b"])
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
