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
workers of `kernels.run_blocks`, each on its own clone, whose steps lie in
one part of the arena of the instance's ``workspace``, which holds its
training steps too (`Workspace.lend`).

An inference step runs every layer on the arrays of its `step_plan`, laid
out by lifetime in one arena as a training step's `tape_plan` is
(`Workspace`), and one walk over the layers binds the step's calls to them
(`_step_program`).  `StepBuffers` keeps that program until the input
shape, the firing mode, ``record_activity`` or the inference parameters
change; the next build lays its arrays out over the same bytes.  A batch
above one scan tile gets an arena of its own, which lasts until
`reset_states`.  The kernels the calls run are looked up by name at each
call.
"""

import bisect
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
from .errors import (
    ConfigError,
    DataFormatError,
    ShapeError,
    StateError,
    bounded,
    check_bounds,
)
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
    outputs, on which the kernels downstream run fastest): of like's dtype,
    or workspace ``ws``'s planned array of ``key`` when it is given.
    """
    rows = (t_steps * like.shape[0],) + like.shape[1:]
    steps = np.empty_like(like, shape=rows) if ws is None else ws.planned(key, like)
    return steps.reshape((t_steps,) + like.shape)


def lif_unroll(currents, cfg, smooth=False, out=None, norm=None):
    """Forward a (T, B, ...) current tensor through one LIF layer from rest:
    the training tape's LIF layer.

    Each step is `_lif_update`; no potentials are written.  Returns (spikes,
    (kept, affine, smooth)), the cache `training.lif_unroll_backward` needs,
    which holds no spikes and no potentials: every block of the backward
    pass recomputes them (`_lif_potentials`) from the currents kept names.
    When ``norm`` is given, the (xhat, gamma, beta) of the train-mode norm
    whose output the currents are (gamma and beta per-channel views), kept
    is that xhat and affine its (gamma, beta) over one sample
    (`kernels._per_sample`): the currents are rebuilt as xhat * gamma + beta, the
    norm's own formula.  Else kept is the currents and affine None.  For currents that
    are one (B, ...) array at every step (a T axis of stride 0, as
    `np.broadcast_to` gives: the stem's B rows), kept is that array, or the
    norm's B rows of xhat.  ``out``, a (T, B, ...) array, receives the
    spikes; strict spikes may be bool.  Samples are independent: the batch
    runs in blocks of about `kernels.BLOCK_BYTES` of one step's currents
    (`kernels.run_row_blocks`), each through all T steps, from rest on
    potentials of its own.  An inference step does not come here: its
    program calls `_lif_update` on the step's own arrays, and `lif_step`
    continues a LifState.
    """
    t_steps, batch = currents.shape[:2]
    step = currents[0]
    spikes = _empty_steps(step, t_steps) if out is None else out
    row_bytes = step.nbytes // max(1, batch)
    if batch <= kernels.block_rows(row_bytes):
        _lif_rows(currents, cfg, smooth, spikes)
    else:
        kernels.run_row_blocks(batch, row_bytes, lambda rows: _lif_rows(
            currents[:, rows], cfg, smooth, spikes[:, rows]))
    kept, affine = (step if currents.strides[0] == 0 else currents), None
    if norm is not None:
        xhat, gamma, beta = norm
        kept, affine = xhat.reshape(kept.shape), (kernels._per_sample(gamma, xhat),
                                                   kernels._per_sample(beta, xhat))
    return spikes, (kept, affine, smooth)


def _lif_scratch(t_steps, batch, step_shape, itemsize, spread=False):
    """(rows, {(role, k): shape}): the samples in a block of
    `training.lif_unroll_backward` over gradients of (t_steps, batch) +
    step_shape and ``itemsize`` bytes (T steps of about
    `kernels.BLOCK_BYTES`), and, for each worker k its blocks may use, the
    flat potentials scratch ("u_pre", k), in the potentials' dtype, and
    with ``spread`` the flat gradient scratch ("dspikes", k) that a pool's
    gradient is spread into, in the gradient's dtype."""
    elems = math.prod(step_shape)
    rows = kernels.block_rows(elems * itemsize * t_steps)
    shape = (t_steps * min(batch, rows) * elems,)
    return rows, {(role, k): shape
                  for k in kernels._block_workers(-(-max(batch, 1) // rows))
                  for role in (("u_pre", "dspikes") if spread else ("u_pre",))}


def _lif_potentials(kept, affine, cfg, smooth, mem):
    """The (T, B, ...) potentials before the reset of a LIF layer from the
    (T, B, ...) ``kept`` of its `lif_unroll` cache, in kept's memory order
    on the flat array ``mem`` of their dtype (kept's, or that of the
    norm's xhat * gamma): for the backward pass.

    The currents are kept itself when affine is None, else kept * gamma +
    beta for affine (gamma, beta), the norm's formula, bit-equal to its
    output; a T axis of stride 0 (the stem's B rows) is rebuilt once.  The
    recurrence is `_lif_update`'s, bit for bit, without its spikes or the
    last step's reset: u_pre[t] = tau * u_pre[t-1] * m + current[t], with
    m = u_pre[t-1] <= v_th, or 1 - spike_ramp(u_pre[t-1]) when ``smooth``.
    """
    t_steps = kept.shape[0]
    u_pre = kernels._in_order(mem, (t_steps * kept.shape[1],) + kept.shape[2:], kept[0])
    u_pre = u_pre.reshape(kept.shape)
    currents = kept
    if affine is not None:  # into the last step's potentials, which are written last
        broadcast = kept.strides[0] == 0
        rebuilt = u_pre[-1] if broadcast else u_pre
        np.multiply(kept[0] if broadcast else kept, affine[0], out=rebuilt)
        rebuilt += affine[1]
        currents = np.broadcast_to(rebuilt, kept.shape) if broadcast else u_pre
    carry = np.zeros_like(u_pre[0])  # tau times the potentials after the last reset
    for t in range(t_steps):
        np.add(carry, currents[t], out=u_pre[t])
        if t + 1 < t_steps:
            if smooth:
                np.subtract(1.0, spike_ramp(u_pre[t], cfg.v_th), out=carry)
            else:
                np.less_equal(u_pre[t], cfg.v_th, out=carry)
            carry *= u_pre[t]
            carry *= cfg.tau
    return u_pre


def _lif_rows(currents, cfg, smooth, spikes):
    """`lif_unroll` of one block of samples: `_lif_update` at every step,
    from rest, writing each step's spikes into spikes."""
    u = np.zeros_like(currents[0])
    keep = np.empty_like(u, dtype=bool)
    for t in range(currents.shape[0]):
        _lif_update(*_channels_last_views(currents[t], u), cfg, smooth,
                    *_channels_last_views(keep, spikes[t]))


def _lif_update(current, v, cfg, smooth, keep, spike):
    """One LIF step, in place, on arrays of one layout: v <- tau*v + current;
    then spike where v > v_th (strict), or spike_ramp(v) when ``smooth``;
    v <- v*(1-spike).

    Strict firing computes keep = v <= v_th into ``keep``, a bool array,
    for the hard reset (v *= keep) and writes spike = not keep; bool spikes
    may be ``keep`` itself.  The one LIF update: the tape's `_lif_rows` and
    every inference step call it (`_lif_potentials` repeats its potentials
    for the backward pass).
    """
    v *= cfg.tau
    v += current
    if smooth:
        spike[...] = spike_ramp(v, cfg.v_th)
        v *= 1.0 - spike
    else:
        np.less_equal(v, cfg.v_th, out=keep)
        v *= keep
        np.logical_not(keep, out=spike, casting="unsafe")


def _bool_spikes(layers, i, smooth):
    """Whether LIF layer i leaves its spikes as bool, in a step and on the
    tape: under strict firing, when a pool reads them (as bytes)."""
    return not smooth and i + 1 < len(layers) and layers[i + 1].kind == "pool"


def _hands_sums(layers, i):
    """Whether pool layer i hands its window sums (bytes for strict spikes)
    to the convolution after it, in a step and on the tape, instead of
    writing its means: the convolution's blocks divide them into their
    bordered buffers (`kernels.conv2d` with ``pooled``)."""
    return i + 1 < len(layers) and layers[i + 1].kind == "conv"


def _rebuilds_currents(layers, i):
    """Whether LIF layer i rebuilds its currents from the xhat of the
    train-mode norm before it on the tape, instead of keeping them."""
    return i > 0 and layers[i - 1].kind == "norm"


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
    ``param_shapes`` maps each parameter array's name to its shape, or is
    None: "w" of ``weight_shape`` and a bias row "b" (fc and classifier
    always, a conv with ``bias``), or a norm's `kernels.norm_params` rows.
    """

    in_shape: tuple
    out_shape: tuple
    config: object
    weight_shape: tuple
    param_shapes: dict

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
            config = weight = params = None
            if layer.kind == "conv":
                if len(cur) != 3:
                    raise ShapeError(f"conv layer expects (C,H,W) input, got {cur}")
                config = self.conv_params(layer, cur[0])
                weight = (layer.out_channels, cur[0], layer.kernel, layer.kernel)
                params = {"w": weight, "b": weight[:1]} if layer.bias else {"w": weight}
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
                params = {"w": weight, "b": weight[:1]}
                out = (width,)
            else:  # lif / norm preserve shape
                config = self.lif_config_for(layer) if layer.kind == "lif" else None
                if layer.kind == "norm":
                    params = dict.fromkeys(norm_params(0), cur[:1])
                out = cur
            plan.append(LayerPlan(cur, out, config, weight, params))
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


# Arrays in a training workspace's arena start on page boundaries.
_PAGE = 4096


class TapePlan(NamedTuple):
    """The arrays of one step, from `tape_plan` (a training step) or
    `step_plan` (an inference step), filled in by one walk over the layers.

    ``slots`` maps each key the step requests from its `Workspace` to the
    (shape, dtype) of its array, and ``spans`` maps it to the first and the
    last layer visit that uses it: visits 0..L-1 are the forward pass over
    layers 0..L-1, and a training step's visits L..2L-1 the backward pass
    over layers L-1..0.  ``logits`` is the dtype of the classifier output,
    which a training step's gradient must have.
    """

    slots: dict
    spans: dict
    logits: np.dtype

    def use(self, key, visit):
        """Extend the span of ``key`` (None: an unplanned array) to ``visit``."""
        if key is not None:
            self.spans[key] = (self.spans[key][0], max(self.spans[key][1], visit))

    def new(self, key, shape, dt, visit):
        """Plan the array of ``key``, first used at ``visit``; returns key."""
        self.slots[key], self.spans[key] = (tuple(shape), np.dtype(dt)), (visit, visit)
        return key

    def scratch(self, visit, *requests):
        """Plan bytes for each role of the kernels' scratch at ``visit``, the
        most any of the requests, ({role: shape}, dtype), takes."""
        need = {}
        for shapes, dt in requests:
            for role, shape in shapes.items():
                need[role] = max(need.get(role, 0), math.prod(shape) * np.dtype(dt).itemsize)
        for role, nbytes in need.items():
            self.new((visit, "scratch", role), (nbytes,), np.uint8, visit)


def tape_plan(net, batch, t_steps, dtype):
    """The `TapePlan` of a training step of ``net`` (its parameters' dtypes,
    its firing mode) on ``batch`` inputs of ``dtype`` over ``t_steps``
    timesteps, derived from `NetworkSpec.layer_plan`.

    One walk follows `run_layers` forward and `training.backward_through_time`
    back, with their rules: the dtype each kernel gives, the inputs a layer
    writes over instead of requesting an array (a norm's xhat, the LIF and
    norm input gradients), and the arrays a layer's tape entry holds until
    its backward visit.  A LIF layer's entry holds no spikes, which last
    until the next layer's forward visit unless that layer holds them, and
    no potentials: after a norm it holds the norm's xhat, which that norm's
    entry holds anyway, so the norm's output lasts until the LIF layer's
    forward visit (`_rebuilds_currents`); after any other layer it holds
    its currents.  An fc layer's entry holds its input unless the
    flattening copies it: a channels-last input (any one after a conv) of
    more than one channel and more than one pixel.  The layers before the
    first one with parameters have no backward visit: their arrays last
    until the last layer that reads them.  A pool before a convolution
    (`_hands_sums`) writes its window sums, bytes for strict spikes, which
    the convolution's entry holds; the convolution reads them as the means'
    dtype, by which its scratch is sized.  The pool after the first LIF
    layer has no input gradient of its own: that LIF layer's backward
    blocks spread the pool's incoming gradient, which lasts until then.

    The kernels' scratch is planned too, as (visit, "scratch", role) bytes
    alive at that one visit (`Workspace.scratch`): each worker's bordered
    and unfold buffers of a convolution (`kernels.conv_scratch`; at a
    backward visit the larger of the weight gradient's and the input
    gradient's, which run one after the other), each worker's potentials
    of a LIF layer's backward blocks, and the first LIF layer's spread
    gradient (`_lif_scratch`), and each worker's xhat * slope of a norm's
    backward blocks (`kernels.norm_scratch`).  The workers are those
    `kernels.run_blocks` would use from this thread.
    """
    spec, params = net.spec, net.params
    layers, s = spec.layers, spec.first_lif
    first_param = next(i for i, p in enumerate(params) if p is not None)
    arrays, xhat_dtypes, in_dtypes = TapePlan({}, {}, None), {}, {}
    use, new, scratch = arrays.use, arrays.new, arrays.scratch

    def back(i):
        return 2 * len(layers) - 1 - i

    # h: the key of the array the next layer reads, None when it is not planned
    h, dt, lif_dt, channels_last = None, np.dtype(dtype), None, False
    for i, (layer, par, plan) in enumerate(zip(layers, params, spec.layer_plan)):
        kind, rows = layer.kind, batch if i < s else t_steps * batch
        use(h, i)
        in_dtypes[i] = dt
        if kind == "conv":
            use(h, back(i))  # its input, for the weight gradient
            dt, channels_last = np.result_type(dt, par["w"]), True
            scratch(i, (kernels.conv_scratch(rows, plan.in_shape, plan.config, in_dtypes[i].itemsize), dt))
            h = new((i, "y"), (rows,) + plan.out_shape, dt, i)
        elif kind == "norm":
            xhat_dt = xhat_dtypes[i] = np.result_type(dt, 1.0)
            xhat = h if i > 0 and dt == xhat_dt else \
                new((i, "xhat"), (rows,) + plan.in_shape, xhat_dt, i)
            use(xhat, back(i))
            dt = np.result_type(xhat_dt, par["gamma"])
            h = new((i, "y"), (rows,) + plan.out_shape, dt, i)
        elif kind == "lif":
            steps = (t_steps * batch,) + plan.in_shape
            bool_spikes = _bool_spikes(layers, i, net.smooth_spikes)
            spikes = new((i, "spikes"), steps, bool if bool_spikes else dt, i)
            if i >= first_param and not _rebuilds_currents(layers, i):
                use(h, back(i))  # its currents
            lif_dt, h, dt = dt, spikes, arrays.slots[spikes][1]
        elif kind == "pool":
            # bool spikes after the stem pool into their potentials' dtype
            sums_dt = kernels._window_sum_dtype(dt, layer.window)
            dt = lif_dt if dt == bool and i > s else np.result_type(dt, 1.0)
            h = new((i, "y"), (rows,) + plan.out_shape,
                    sums_dt if _hands_sums(layers, i) else dt, i)
        else:  # fc / classifier: a new output
            c, *hw = plan.in_shape
            if not (channels_last and hw and c > 1 and math.prod(hw) > 1):  # else a copy
                use(h, back(i))
            dt = np.result_type(dt, par["w"], par["b"])
            h = None
    logits = dt
    g = None  # the key of the gradient the next layer back receives
    for i in reversed(range(first_param, len(layers))):
        kind, par, plan, visit = layers[i].kind, params[i], spec.layer_plan[i], back(i)
        rows = batch if i < s else t_steps * batch
        use(g, visit)
        if kind in ("fc", "classifier"):
            g, dt = None, np.result_type(dt, par["w"])
        elif kind == "pool":
            dt = np.result_type(dt, 1.0)
            if i - 1 != s:  # else the first LIF layer spreads g
                g = new((i, "dx"), (rows,) + plan.in_shape, dt, visit)
        elif kind == "lif":
            spread = i == s and layers[i + 1].kind == "pool"
            shapes = _lif_scratch(t_steps, batch, plan.in_shape, dt.itemsize, spread)[1]
            scratch(visit, ({key: v for key, v in shapes.items() if key[0] == "u_pre"},
                            in_dtypes[i]),
                    ({key: v for key, v in shapes.items() if key[0] == "dspikes"}, dt))
            if i == s:  # summed over T into B rows
                g = new((i, "dx"), (batch,) + plan.in_shape, dt, visit)
        elif kind == "norm":
            dx_dt = np.result_type(dt, xhat_dtypes[i], par["gamma"])
            scratch(visit, (kernels.norm_scratch(rows, plan.in_shape, math.prod(plan.in_shape) *
                                                 dx_dt.itemsize), np.result_type(xhat_dtypes[i], dt)))
            if dt != dx_dt:
                g, dt = None, dx_dt  # not over g
        elif kind == "conv":
            x_dt, cfg = in_dtypes[i], plan.config
            weight_grad = (kernels.conv_scratch(rows, plan.in_shape, cfg, x_dt.itemsize),
                           np.result_type(dt, x_dt))
            back_conv = kernels.input_gradient_conv(cfg)
            if i > first_param and back_conv is not None:  # then the input gradient's
                scratch(visit, weight_grad, (kernels.conv_scratch(
                    rows, plan.out_shape, back_conv, dt.itemsize), np.result_type(dt, par["w"])))
            else:
                scratch(visit, weight_grad)
            dt = np.result_type(dt, par["w"])
            g = new((i, "dx"), (rows,) + plan.in_shape, dt, visit) if i > first_param else None
    return arrays._replace(logits=logits)


def step_plan(spec, params, key):
    """The `TapePlan` of an inference step for ``key``, (n input rows, their
    dtype, smooth, record), on the inference parameters ``params``: every
    array `_step_program` takes, by the rules of its walk, over the visits
    0..L-1 of layers 0..L-1, with the kernels' scratch of each visit
    (`kernels.conv_scratch`, `kernels.pool_scratch`) for the workers
    `kernels.run_blocks` would use from this thread.

    Each layer writes its "y", but into the C-order rows "x" of an fc layer
    after it, unless it is a convolution, whose "y" the step copies in; a
    LIF layer has its potentials "u" and a bool "keep", its spikes when a
    pool reads them (`_bool_spikes`).  An array lasts from the visit that
    writes it to the last that reads it (a pool's window sums, with
    ``record``, to the count after it), but those that outlive a step span
    all of it: the potentials, layer 0's input "x", the stem's output,
    which a stem-cached step reads, and each convolution's zero-bordered
    scratch, whose border its build zeroes.
    """
    n, dtype, smooth, record = key
    layers, plans, s = spec.layers, spec.layer_plan, spec.first_lif
    arrays = TapePlan({}, {}, None)
    fc = [layer.kind in ("fc", "classifier") for layer in layers] + [False]

    def dest(i, dt):
        """Plan where layer i writes an output of dt."""
        if fc[i + 1]:
            return arrays.new((i + 1, "x"), (n, math.prod(plans[i].out_shape)), dt, i)
        return arrays.new((i, "y"), (n,) + plans[i].out_shape, dt, i)

    dt = np.dtype(dtype)  # the step's float dtype
    h = arrays.new((0, "x"), (n,) + ((math.prod(spec.input_shape),) if fc[0] else
                                     spec.input_shape), dt, 0)
    kept = [h]  # the keys that span the whole step
    for i, (layer, par, plan) in enumerate(zip(layers, params, plans)):
        kind = layer.kind
        if i == s:
            kept.append(h)
        arrays.use(h, i)
        if record and plan.weight_shape is not None and i > s and \
                layers[i - 1].kind == "pool" and sums[1].kind == "u":
            arrays.use(sums[0], i)
        if kind == "conv":  # on window sums, it reads the means' dtype
            read = dt if i and layers[i - 1].kind == "pool" else arrays.slots[h][1]
            dt = np.result_type(dt, par["w"])
            shapes = kernels.conv_scratch(n, plan.in_shape, plan.config, read.itemsize)
            arrays.scratch(i, (shapes, dt))
            kept += [(i, "scratch", role) for role in shapes if role[0] == "x"]
            h = arrays.new((i, "y"), (n,) + plan.out_shape, dt, i)
        elif kind == "norm" and par is not None:
            dt = np.result_type(dt, par["running_mean"])
            h = dest(i, dt)
        elif kind == "lif":
            kept.append(arrays.new((i, "u"), (n,) + plan.in_shape, dt, i))
            keep = arrays.new((i, "keep"), (n,) + plan.in_shape, bool, i)
            h = keep if _bool_spikes(layers, i, smooth) else dest(i, dt)
        elif kind == "pool":
            means, read = not _hands_sums(layers, i), arrays.slots[h][1]
            shapes = kernels.pool_scratch(n, plan.in_shape, layer.window, read, means)
            sums = ((i, "scratch", "sums") if "sums" in shapes else h,
                    kernels._window_sum_dtype(read, layer.window))
            arrays.scratch(i, (shapes, sums[1]))
            dt = np.result_type(dt, 1.0)
            h = dest(i, dt) if means else sums[0]
        elif kind in ("fc", "classifier"):
            if (i, "x") not in arrays.slots:  # the step copies h in
                arrays.new((i, "x"), (n, math.prod(plan.in_shape)), dt, i)
            dt = np.result_type(dt, par["w"])
            h = dest(i, dt) if kind == "fc" else None
        # else: a norm folded into the layer before
    for k in kept:
        arrays.spans[k] = (0, len(layers) - 1)
    return arrays._replace(logits=dt)


def _slot_bytes(plan):
    """The bytes of each array of ``plan``."""
    return {key: math.prod(shape) * dt.itemsize for key, (shape, dt) in plan.slots.items()}


def pack(plan):
    """(offsets, size): where each array of ``plan`` starts in one arena, and
    the arena's size in bytes.

    Arrays whose spans overlap, endpoints included, get disjoint bytes.
    Greedy by size: the largest array first, each at the lowest
    page-aligned offset clear of every placed array that overlaps it in
    time.  The placed arrays are kept in offset order.
    """
    sizes = _slot_bytes(plan)
    offsets, placed = {}, []  # placed: (offset, end, first visit, last visit)
    for key in sorted(sizes, key=lambda k: -sizes[k]):
        first, last = plan.spans[key]
        start = 0
        for lo, hi, a, b in placed:
            if a <= last and first <= b:
                if start + sizes[key] <= lo:
                    break
                start = max(start, _page_up(hi))
        offsets[key] = start
        bisect.insort(placed, (start, start + sizes[key], first, last))
    return offsets, max((end for _, end, _, _ in placed), default=0)


def _page_up(nbytes):
    """``nbytes`` rounded up to a whole number of pages."""
    return -(-nbytes // _PAGE) * _PAGE


class Workspace:
    """Kept memory: one step's arrays, laid out by lifetime in one arena.

    Before a step's first request, `lay_out` takes its `TapePlan`
    (`tape_plan` for a training step, `step_plan` for an inference step):
    every array the step requests, with its shape, dtype and the layer
    visits that use it.  Arrays whose visits overlap get disjoint bytes of
    the arena; the others share (`pack`).  The arena grows when a plan needs
    more bytes and never shrinks, and a plan whose arrays each fit the
    region their key had over the same visits (a smaller batch, which may
    also plan fewer workers' scratch) keeps the layout and takes a prefix
    of each region.  `planned` hands out a key's array and `scratch` the
    kernels' scratch of a visit; a key the plan lacks raises.  An array is
    overwritten by the next array on its bytes: a tape's arrays by the
    backward pass's input gradients once their last reader has run, and
    every one by the next step or by a scan the arena is lent to (`lend`).

    An instance's ``workspace`` holds its training steps and its scans'
    tiles: `training.train` takes it (`take`) for the call, and
    `scan_timesteps` takes it and lends each worker's clone one part of
    its arena, a `Workspace` of its own for that clone's steps.
    `clone_state` hands it to the clones, so it lives, at about the
    largest set of one training step's arrays alive at once or the parts
    of one scan, whichever is more, until the instance and its clones are
    gone.  A tape without one lays out a new `Workspace()`.  The instance's
    own inference steps run on the workspace of its `StepBuffers`.
    """

    def __init__(self, arena=None):
        self._arena = arena    # uint8 bytes: new ones, or a part another workspace lent
        self._regions = None   # key -> (offset, bytes, span) in the arena
        self.plan = None       # the TapePlan laid out last
        self.lends = 0         # the calls of `lend`, each handing out parts of the arena
        self._lock = threading.RLock()

    @contextmanager
    def take(self):
        """Yield this workspace to one thread at a time, again to the thread
        that holds it (a `training.train` call's eval scan), None to any
        other while one holds it."""
        if not self._lock.acquire(blocking=False):
            yield None
            return
        try:
            yield self
        finally:
            self._lock.release()

    def _grow(self, size):
        """An arena of at least ``size`` bytes: the one there, or new bytes.
        ConfigError when they cannot be allocated."""
        if self._arena is None or self._arena.nbytes < size:
            self._arena = None  # let the old bytes go first
            try:
                self._arena = np.empty(size, dtype=np.uint8)
            except (MemoryError, ValueError):
                raise ConfigError(f"a step needs a workspace of {size} bytes, "
                                  f"more than can be allocated") from None

    def lay_out(self, plan):
        """Lay the arena out for a step of ``plan``, before its first
        request.  ConfigError when the arena it needs cannot be allocated."""
        if plan == self.plan:
            return
        sizes = _slot_bytes(plan)
        regions = self._regions
        if regions is None or not sizes.keys() <= regions.keys() or any(
                regions[k][1] < sizes[k] or regions[k][2] != plan.spans[k] for k in sizes):
            offsets, size = pack(plan)
            regions = {k: (offsets[k], sizes[k], plan.spans[k]) for k in sizes}
            self.plan = self._regions = None
            self._grow(size)
        self._regions, self.plan = regions, plan

    def lend(self, sizes):
        """One `Workspace` for each of ``sizes`` bytes, on page-aligned parts
        of this arena, no two overlapping; the arena grows first when it
        holds fewer bytes.  The parts' holders overwrite every array laid
        out here, a tape's too, so each call counts in ``lends``, which
        `training.backward_through_time` checks.  The layout stays: a step
        writes each of its arrays before it reads it.  ConfigError when the
        arena cannot be allocated."""
        starts = [0]
        for size in sizes:
            starts.append(starts[-1] + _page_up(size))
        self._grow(starts[-1])
        self.lends += 1
        return [Workspace(self._arena[start : start + size]) for start, size in zip(starts, sizes)]

    def planned(self, key, like=None):
        """The array of ``key`` in the plan laid out last, with the shape and
        dtype the plan gives it: in the memory order of
        ``np.empty_like(like)`` (``like`` has as many axes), or, when like is
        None, an (N,C,H,W) view of (N,H,W,C) memory (a conv output's layout)
        for four axes, C order for others.  StateError for a key the plan
        lacks."""
        if self.plan is None or key not in self.plan.slots:
            raise StateError(f"workspace key {key} is not in the step's tape plan")
        shape, dtype = self.plan.slots[key]
        start = self._regions[key][0]
        mem = self._arena[start : start + math.prod(shape) * dtype.itemsize].view(dtype)
        if like is None and len(shape) == 4:
            return mem.reshape(shape[0], shape[2], shape[3], shape[1]).transpose(0, 3, 1, 2)
        return mem.reshape(shape) if like is None else kernels._in_order(mem, shape, like)

    def scratch(self, visit):
        """The ``take(role, shape, dtype)`` of the kernels of layer visit
        ``visit`` (`kernels.conv_buffers`, `kernels.batch_norm_backward`,
        `training.lif_unroll_backward`):
        the first bytes of the planned (visit, "scratch", role) as a C-order
        array.  StateError for a role the plan lacks or a request past its
        bytes."""
        def take(role, shape, dtype):
            mem = self.planned((visit, "scratch", role))
            nbytes = math.prod(shape) * np.dtype(dtype).itemsize
            if nbytes > mem.nbytes:
                raise StateError(f"scratch {role} of visit {visit}: {nbytes} bytes requested, "
                                 f"{mem.nbytes} planned")
            return mem[:nbytes].view(dtype).reshape(shape)

        return take


class StepProgram(NamedTuple):
    """One inference step: calls bound to the arrays of its `step_plan`."""

    key: tuple           # the (rows, dtype, smooth, record) it is built for
    params: list         # the inference parameters the calls read
    memory: Workspace    # the workspace whose bytes its arrays are
    blocks: kernels.inline_blocks  # the context its calls run in
    x: np.ndarray        # the first layer's input, which a step copies x into
    stem: tuple          # the stem's calls, run when its cached output is stale
    stem_out: np.ndarray # the stem's output, which the first LIF layer reads
    step: tuple          # the calls of every later layer; the last returns the logits
    potentials: dict     # LIF layer index -> its membrane potentials
    counts: np.ndarray   # (rows, mapped layers) input counts the calls write; None
                         # without record_activity


class StepBuffers:
    """An instance's inference step: the `StepProgram` of its last step and
    the `Workspace` it runs on, a new one or ``memory``: a scan gives each
    worker's clone one part of its instance's arena (`scan_timesteps`).

    `forward_timestep` runs the program built for its input's (rows, dtype),
    the instance's firing mode and ``record_activity`` on the inference
    parameters, and keeps it until a step with another of these builds the
    next: a later step with the same ones allocates only its logits and
    activity row.  A build lays out the step's `step_plan` and walks the
    layers once (`_step_program`), binding the calls to the planned arrays;
    a smaller batch (a scan's last tile) takes a prefix of each array of the
    last layout.  A step of at most one scan tile (`_scan_rows`) runs its
    kernels' blocks inline, as a scan tile does: a fork-join saves it
    nothing measurable.  A batch of more rows gets a `Workspace` of its
    own, which only its program holds, until the next build or
    `reset_states`, and splits its blocks across the workers.  The arrays
    hold no weights: a rebuilt `inference_params` lays them out on the same
    bytes unless the parameters' dtypes changed.  Every step overwrites
    them, so each instance has its own (`clone_state`), and the clones of
    one scan have disjoint parts.  Those clones are new at every scan, so
    each of their programs is built, its convolutions' scratch borders
    zeroed, over bytes a training step may have written since the last.
    """

    def __init__(self, memory=None):
        self._memory = Workspace() if memory is None else memory
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
            self._program = self._attached = None  # its arrays are laid over next
            tile = _scan_rows(net.spec, np.result_type(dtype, params[-1]["w"]).itemsize, rows)
            memory = self._memory if rows <= tile else Workspace()
            blocks = kernels.inline_blocks(memory is self._memory)
            with blocks:  # planned and built for the workers its calls run on
                plan = step_plan(net.spec, params, key)
                if plan != memory.plan:  # its layout may put any array on a state's bytes
                    for state in net.lif_states.values():
                        state.u = state.u.copy()
                memory.lay_out(plan)
                prog = self._program = _step_program(net.spec, params, key, memory, blocks)
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


def _step_program(spec, params, key, memory, blocks):
    """The StepProgram of one inference step for ``key``, (n input rows,
    their dtype, smooth, record), on the inference parameters ``params``:
    one walk over the layers takes each layer's arrays (`Workspace.planned`)
    and its kernels' scratch (`Workspace.scratch`) from ``memory``, laid out
    for the key's `step_plan`, and adds the layer's calls on them.
    ``blocks`` is the `kernels.inline_blocks` context the calls run in,
    which the walk runs in too.

    Every layer gets the output dtype its kernel would give, on the arrays
    the plan places.  A convolution reads h as it comes: its blocks copy
    their samples into the zero-bordered scratch of their worker
    (`kernels.conv_buffers`).  A strict LIF layer before a pool leaves its
    spikes as bool (`_bool_spikes`), its keep array inverted, which the pool
    sums as bytes (`kernels.pool_buffers`); every other output is in the
    step's float dtype, so no bool array reaches a GEMM or a norm.  A pool
    before a convolution (`_hands_sums`) writes only its window sums, which
    the convolution's blocks divide into their bordered scratch
    (`kernels.conv_buffers` with ``pooled``).  4-d arrays are (N,C,H,W)
    views of channels-last memory.

    Each layer adds its calls in the order the tape's `run_layers` visits
    it: a copy of h into the array it reads unless h is that array, with
    ``record`` the count of a weighted layer's input into its column of
    ``counts``, then its kernel -- `conv2d` (and its bias add),
    `batch_norm`, `_lif_update`, `avg_pool2d` or `fully_connected`.
    Kernels are looked up by their name in this module when called, so a
    wrapper put in their place afterwards sees every call.  A layer after a
    pool is counted right after the pool, on the pool's integer window sums
    when it has them (nonzero where its means are, and smaller).  The
    stem's input is analog, so its counts are filled in here, once.
    """
    n, dtype, smooth, record = key
    layers, plans, s = spec.layers, spec.layer_plan, spec.first_lif
    inputs = {i: memory.planned((i, "x")).reshape((n,) + plan.in_shape)  # what layer i reads
              for i, plan in enumerate(plans) if (i, "x") in memory.plan.slots}

    def dest(i):
        """Where layer i writes its output: the next layer's "x" when it has
        one, else its own "y"."""
        return inputs[i + 1] if i + 1 in inputs else memory.planned((i, "y"))

    mapped = [i for i, plan in enumerate(plans) if plan.weight_shape is not None]
    counts = np.empty((n, len(mapped))) if record else None
    dt = np.dtype(dtype)
    x = h = inputs[0]
    calls, potentials = [], {}
    # Each call binds its arguments as defaults: the walk reuses its names.
    for i, (layer, par, plan) in enumerate(zip(layers, params, plans)):
        kind, cfg, fixed = layer.kind, plan.config, inputs.get(i)
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
                    else (_channels_last_views(h)[0] if kind == "conv" else h).reshape(n, -1)
                calls.append(functools.partial(_count_inputs, rows, False, out=column))
        if kind == "conv":
            pooled = (layers[i - 1].window, dt) if i and layers[i - 1].kind == "pool" else None
            w, dt = par["w"], np.result_type(dt, par["w"])
            out = memory.planned((i, "y"))
            conv = kernels.conv_buffers(h, cfg, dt, out, memory.scratch(i), pooled)
            calls.append(lambda h=h, w=w, cfg=cfg, conv=conv: conv2d(h, w, cfg, buffers=conv))
            if "b" in par:  # one contiguous add per sample
                rows = out.transpose(0, 2, 3, 1).reshape(n, -1)
                calls.append(functools.partial(np.add, rows, par["b_map"], out=rows))
            h = out
        elif kind == "norm" and par is not None:
            dt = np.result_type(dt, par["running_mean"])
            out = dest(i)
            calls.append(lambda h=h, par=par, out=out: batch_norm(h, par, out=out))
            h = out
        elif kind == "lif":
            u = potentials[i] = memory.planned((i, "u"))
            keep = memory.planned((i, "keep"))
            out = keep if _bool_spikes(layers, i, smooth) else dest(i)
            current, v, k, spike = _channels_last_views(h, u, keep, out)
            calls.append(lambda current=current, v=v, cfg=cfg, k=k, spike=spike:
                         _lif_update(current, v, cfg, smooth, k, spike))
            h = out
        elif kind == "pool":
            # h: the output of the last layer that wrote one (a folded norm writes none)
            dt, window = np.result_type(dt, 1.0), layer.window
            out = None if _hands_sums(layers, i) else dest(i)
            pool = kernels.pool_buffers(h, window, out, memory.scratch(i))
            calls.append(lambda h=h, window=window, pool=pool:
                         avg_pool2d(h, window, buffers=pool))
            h = pool.out
        elif kind in ("fc", "classifier"):
            rows, w, b = h.reshape(n, -1), par["w"], par["b"]
            dt = np.result_type(dt, w)
            out = None if kind == "classifier" else dest(i)
            calls.append(lambda rows=rows, w=w, b=b, out=out: fully_connected(rows, w, b, out=out))
            h = out
        # else: a norm folded into the layer before
    return StepProgram(key, params, memory, blocks, x, stem, stem_out, tuple(calls), potentials,
                       counts)


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

    def clone_state(self, memory=None):
        """New instance sharing the weight arrays, their inference plan,
        ``workspace`` and the firing mode, with fresh inference state and a
        `StepBuffers` of its own on ``memory``, the `Workspace` its steps
        run on: a new one, or a part of ``workspace``'s arena that
        `scan_timesteps` lends the clone of one of its workers.

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
            step_buffers=StepBuffers(memory),
        )


def _init_params(spec, seed, dtype):
    """The parameters of each `LayerPlan`'s ``param_shapes``: He-normal
    weights (std sqrt(2 / fan_in)) drawn in layer order, zero biases, and
    fresh normalization statistics."""
    rng = np.random.default_rng(seed)
    params = []
    for plan in spec.layer_plan:
        shapes = plan.param_shapes
        if shapes is None:
            params.append(None)
        elif "w" in shapes:
            std = np.sqrt(2.0 / plan.fan_in)
            entry = {"w": rng.normal(0.0, std, size=shapes["w"]).astype(dtype)}
            if "b" in shapes:
                entry["b"] = np.zeros(shapes["b"], dtype=dtype)
            params.append(entry)
        else:
            params.append(norm_params(shapes["gamma"][0], dtype=dtype))
    return params


def build_instance(spec, seed=0, dtype=np.float32):
    """Construct an SnnInstance with freshly initialized weights.

    ConfigError, naming their bytes, when the parameters cannot be
    allocated."""
    try:
        return SnnInstance(spec=spec, params=_init_params(spec, seed, dtype))
    except (MemoryError, ValueError):  # numpy's "array is too big" is a ValueError
        nbytes = np.dtype(dtype).itemsize * sum(
            math.prod(shape) for plan in spec.layer_plan
            for shape in (plan.param_shapes or {}).values())
        raise ConfigError(f"the network's parameters need {nbytes} bytes, "
                          f"more than can be allocated") from None


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
    with step.blocks:
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
    ``tape["caches"]``.  The conv, norm, LIF and pool outputs are the
    planned arrays of ``tape["workspace"]`` (`Workspace.planned`), laid out
    for the step by `tape_plan`, which gives their shapes and dtypes.  A
    layer writes over an input that no tape entry holds (any but the
    caller's x): a norm its ``xhat`` over the array it reads, its result
    going into an array of its own.  No LIF layer writes potentials: its
    entry keeps, after a norm, the norm's xhat, gamma and beta, from which
    the backward pass rebuilds its currents, else its currents (for the
    stem, its B rows), and the backward pass recomputes the potentials from
    them (`lif_unroll`).  No LIF entry holds spikes; a strict LIF layer
    before a pool leaves them as bool (`_bool_spikes`, as in an inference
    step), which the pool sums as bytes, its means in the potentials'
    dtype.  A pool before a conv (`_hands_sums`) writes only its window
    sums, which the conv reads as those means and its entry keeps
    (``pooled``, the pool's window and the means' dtype).  A conv's blocks
    run on the scratch planned for its visit.  Inference does not come
    here: a step runs its `StepProgram`.
    """
    spec = net.spec
    layers, s, batch = spec.layers, spec.first_lif, h.shape[0]
    ws, record = tape["workspace"], tape["caches"].append
    lif_dt = pooled = None  # the last LIF layer's currents' dtype; the sums h holds
    for i, (layer, par, plan) in enumerate(zip(layers, net.params, spec.layer_plan)):
        kind, cfg = layer.kind, plan.config
        if kind == "conv":
            y = conv2d(h, par["w"], cfg, ws.planned((i, "y")), take=ws.scratch(i),
                       pooled=pooled)
            if "b" in par:
                y += par["b"].reshape(1, -1, 1, 1)
            record((kind, cfg, h, pooled))
            h, pooled = y, None
        elif kind == "norm":
            repeats = t_steps if i < s else 1  # the stem's rows stand for T copies
            xhat = h if i > 0 and h.dtype == np.result_type(h, 1.0) else ws.planned((i, "xhat"), h)
            out = (xhat, ws.planned((i, "y"), h))
            h, tape["norm_updates"][i], cache = batch_norm_train_cached(h, par, repeats, out)
            record((kind, cache))
        elif kind == "lif":
            h = h.reshape((-1, batch) + h.shape[1:])
            spikes = _empty_steps(h[0], t_steps, ws, (i, "spikes"))
            if i == s:  # the stem's rows, the same at every step
                h = np.broadcast_to(h, (t_steps,) + h.shape[1:])
            norm = None
            if _rebuilds_currents(layers, i):
                xhat, _, gamma, view = tape["caches"][-1][1]
                norm = (xhat, gamma.reshape(view), net.params[i - 1]["beta"].reshape(view))
            spikes, cache = lif_unroll(h, cfg, net.smooth_spikes, spikes, norm)
            record((kind, cfg, cache))
            lif_dt, h = h.dtype, spikes.reshape((-1,) + spikes.shape[2:])
        elif kind == "pool":
            w = layer.window
            record((kind, w))
            if _hands_sums(layers, i):  # sums in channels-last memory, as a conv output
                # bool spikes after the stem pool into their potentials' dtype
                pooled = (w, lif_dt if h.dtype == bool and i > s else np.result_type(h, 1.0))
                h = avg_pool2d(h, w, ws.planned((i, "y")), sums=True)
            else:
                h = avg_pool2d(h, w, ws.planned((i, "y"), h[:, :, ::w, ::w]))
        else:  # fc / classifier
            shape = h.shape
            h = h.reshape(h.shape[0], -1)
            record((kind, h, shape))
            h = fully_connected(h, par["w"], par["b"])
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
    caller's thread too, runs on a clone (`clone_state`).  The call takes
    ``net.workspace`` (`Workspace.take`; a new `Workspace()` when another
    thread holds it) and lends each worker's clone one part of its arena
    (`Workspace.lend`), the `pack` of the `step_plan` of a tile, whose step
    buffers the clone lays out there.  The clones go with the call, the
    arena stays: a scan after the first, or one inside a `training.train`
    call, whose training steps the arena holds, allocates no step arrays.
    The kernels inside a tile run their own blocks inline.  Results are written
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

    params = inference_params(net)  # built once here, shared by the clones
    key = (min(rows, n), images.dtype, net.smooth_spikes, net.record_activity)
    with kernels.inline_blocks(True):  # a tile's step runs its kernels' blocks inline
        part = pack(step_plan(spec, params, key))[1]
    tiles = -(-n // rows)
    try:
        with net.workspace.take() as held, kernels.one_blas_thread():  # a lone tile held too
            workspace = Workspace() if held is None else held
            parts = workspace.lend([part] * len(kernels._block_workers(tiles)))
            kernels._run_on_scratch(tiles, tile, [net.clone_state(p) for p in parts],
                                    net.clone_state)
    finally:
        reset_states(net)
    return {"mean_logits": mean_logits, "activity": activity}
