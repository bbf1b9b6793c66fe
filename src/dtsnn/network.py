"""Stateful spiking network: LIF dynamics and the per-timestep forward pass.

The network consumes the raw analog input at every timestep (direct
encoding); the first convolution plus its LIF layer turn it into spike
trains.  Classifier logits are analog and are accumulated across timesteps;
the prediction is the running mean of those accumulated logits.

The stem -- the layers before the first LIF layer (`first_lif`) -- sees the
same input at every timestep, so its output does not depend on t.
`forward_timestep` computes it once per input and caches it on the instance,
keyed on the identity of the input array: the cache is reused while the same
array object is passed and is dropped by `reset_states`.  A caller that
mutates an input array in place between timesteps must call `reset_states`
first.

An SnnInstance is single-owner mutable state: one inference at a time.
Weights may be shared read-only between instances; `clone_state` gives each
worker its own membrane potentials (and no cached stem).
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataFormatError, ShapeError, StateError
from .kernels import (
    BatchNormState,
    ConvParams,
    avg_pool2d,
    batch_norm,
    conv2d,
    fully_connected,
)


@dataclass(frozen=True)
class LifConfig:
    """Leak factor and firing threshold of a leaky integrate-and-fire layer."""

    tau: float = 0.5
    v_th: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.tau <= 1.0):
            raise ValueError(f"tau must satisfy 0 < tau <= 1, got {self.tau}")
        if not self.v_th > 0.0:
            raise ValueError(f"v_th must satisfy v_th > 0, got {self.v_th}")


@dataclass
class LifState:
    """Membrane potentials and the spikes emitted at the last step."""

    u: np.ndarray
    last_spikes: np.ndarray


def lif_step(state, input_current, cfg):
    """One membrane update: leak, integrate, fire, hard reset.

    u <- tau*u + input; spike where u > v_th (strict); u <- u*(1-spike).
    The state is mutated in place and the binary spike tensor returned.
    """
    if input_current.shape != state.u.shape:
        raise ShapeError(
            f"input current shape {input_current.shape} does not match "
            f"membrane shape {state.u.shape}"
        )
    u = cfg.tau * state.u + input_current
    spikes = (u > cfg.v_th).astype(u.dtype)
    state.u = u * (1.0 - spikes)
    state.last_spikes = spikes
    return spikes


# Layer kinds understood by NetworkSpec.
LAYER_KINDS = ("conv", "fc", "lif", "norm", "pool", "classifier")
WEIGHTED_KINDS = ("conv", "fc", "classifier")


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the network; fields are interpreted per `kind`."""

    kind: str
    out_channels: int = 0       # conv
    kernel: int = 3             # conv
    stride: int = 1             # conv
    padding: int = 1            # conv
    window: int = 2             # pool
    out_features: int = 0       # fc
    bias: bool = False          # conv / fc (classifier always has a bias)
    tau: float = 0.0            # lif override; 0 means use the network default
    v_th: float = 0.0           # lif override; 0 means use the network default

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture description: ordered layers plus network-wide settings."""

    input_shape: tuple          # (C, H, W)
    num_classes: int
    t_max: int
    layers: tuple
    lif: LifConfig = LifConfig()

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")
        kinds = [l.kind for l in self.layers]
        if kinds.count("classifier") != 1 or kinds[-1] != "classifier":
            raise ValueError("network must end with exactly one classifier layer")
        if "lif" not in kinds:
            raise ValueError("network must contain at least one lif layer")
        self.layer_shapes()  # raises ShapeError if shapes do not compose

    def lif_config_for(self, layer):
        tau = layer.tau if layer.tau else self.lif.tau
        v_th = layer.v_th if layer.v_th else self.lif.v_th
        return LifConfig(tau=tau, v_th=v_th)

    def layer_shapes(self):
        """Per-layer (input_shape, output_shape) without the batch axis."""
        shapes = []
        cur = self.input_shape
        for layer in self.layers:
            inp = cur
            if layer.kind == "conv":
                if len(cur) != 3:
                    raise ShapeError(f"conv layer expects (C,H,W) input, got {cur}")
                p = self.conv_params(layer, cur[0])
                ho, wo = p.output_hw(cur[1], cur[2])
                cur = (layer.out_channels, ho, wo)
            elif layer.kind == "pool":
                if len(cur) != 3 or cur[1] % layer.window or cur[2] % layer.window:
                    raise ShapeError(
                        f"pool window {layer.window} does not divide spatial size {cur}"
                    )
                cur = (cur[0], cur[1] // layer.window, cur[2] // layer.window)
            elif layer.kind == "fc":
                flat = int(np.prod(cur))
                cur = (layer.out_features,)
            elif layer.kind == "classifier":
                cur = (self.num_classes,)
            # lif / norm preserve shape
            shapes.append((inp, cur))
        return shapes

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


def check_finite(x):
    """Reject inputs holding NaN or infinity, which would otherwise yield a
    silent prediction (no spikes, uniform output)."""
    bad = x.size - np.count_nonzero(np.isfinite(x))
    if bad:
        raise DataFormatError(f"input contains {bad} non-finite values (NaN or inf)")


@dataclass
class SnnInstance:
    """A NetworkSpec bound to weights plus the mutable inference state.

    ``stem`` caches ``(input, stem output, stem activity counts)`` for the
    input array last passed to `forward_timestep`.  It lives until
    `reset_states` or until a different array object is passed; instances
    from `clone_state` start without it.
    """

    spec: NetworkSpec
    params: list                  # per layer: dict of arrays / BatchNormState / None
    lif_states: dict = field(default_factory=dict)
    accumulated_logits: np.ndarray = None
    t: int = 0
    record_activity: bool = False
    activity: list = field(default_factory=list)  # one row per timestep
    smooth_spikes: bool = False   # gradient-check mode, see training module
    stem: tuple = None            # (input, stem output, stem activity counts)

    def clone_state(self):
        """New instance sharing weights but with fresh inference state."""
        return SnnInstance(
            spec=self.spec,
            params=self.params,
            record_activity=self.record_activity,
        )


def _init_params(spec, seed, dtype):
    rng = np.random.default_rng(seed)
    params = []
    for layer, (in_shape, out_shape) in zip(spec.layers, spec.layer_shapes()):
        if layer.kind == "conv":
            p = spec.conv_params(layer, in_shape[0])
            fan_in = p.in_channels * p.kernel_h * p.kernel_w
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(
                p.out_channels, p.in_channels, p.kernel_h, p.kernel_w)).astype(dtype)
            entry = {"w": w}
            if layer.bias:
                entry["b"] = np.zeros(p.out_channels, dtype=dtype)
            params.append(entry)
        elif layer.kind in ("fc", "classifier"):
            fan_in = int(np.prod(in_shape))
            fan_out = spec.num_classes if layer.kind == "classifier" else layer.out_features
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in)).astype(dtype)
            entry = {"w": w, "b": np.zeros(fan_out, dtype=dtype)}
            params.append(entry)
        elif layer.kind == "norm":
            params.append(BatchNormState.create(in_shape[0] if len(in_shape) == 3 else in_shape[0], dtype=dtype))
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


def _count_inputs(h, analog):
    """Per-sample drive presented to a crossbar-mapped layer this timestep.

    Analog inputs (direct encoding into the first weighted layer) drive every
    row, so the count is the number of elements; spiking inputs count the
    nonzero lines only.
    """
    n = h.shape[0]
    flat = h.reshape(n, -1)
    if analog:
        return np.full(n, flat.shape[1], dtype=np.float64)
    return np.count_nonzero(flat, axis=1).astype(np.float64)


def forward_timestep(net, x):
    """Run every layer for one timestep and accumulate the classifier logits.

    x is the raw input batch (N,C,H,W), presented identically at every
    timestep.  The stem runs only when x is not the array whose stem output
    is cached (see the module docstring).  Returns this step's logits (N, K).
    """
    spec = net.spec
    if net.t >= spec.t_max:
        raise StateError(f"forward_timestep called beyond t_max={spec.t_max}")
    x = np.asarray(x)
    if x.shape[1:] != spec.input_shape:
        raise ShapeError(
            f"input shape {x.shape[1:]} does not match network input {spec.input_shape}"
        )
    s = first_lif(spec)
    if net.stem is None or net.stem[0] is not x:
        check_finite(x)
        stem_counts = []
        net.stem = (x, _run_layers(net, x, range(s), stem_counts), stem_counts)
    _, h, stem_counts = net.stem
    step_counts = list(stem_counts) if net.record_activity else None
    h = _run_layers(net, h, range(s, len(spec.layers)), step_counts)
    if net.accumulated_logits is None:
        net.accumulated_logits = np.zeros_like(h)
    net.accumulated_logits = net.accumulated_logits + h
    net.t += 1
    if net.record_activity:
        net.activity.append(np.stack(step_counts, axis=1))  # (N, mapped layers)
    return h


def _run_layers(net, h, indices, counts):
    """Apply the layers at ``indices`` to h; when ``counts`` is a list, append
    the per-sample input count of every weighted layer to it."""
    spec = net.spec
    n = h.shape[0]
    first_weighted = next(i for i, l in enumerate(spec.layers) if l.kind in WEIGHTED_KINDS)
    for i in indices:
        layer = spec.layers[i]
        if layer.kind in WEIGHTED_KINDS and counts is not None:
            counts.append(_count_inputs(h, analog=i == first_weighted))
        if layer.kind == "conv":
            p = spec.conv_params(layer, h.shape[1])
            h = conv2d(h, net.params[i]["w"], p)
            if "b" in net.params[i]:
                h = h + net.params[i]["b"].reshape(1, -1, 1, 1)
        elif layer.kind == "norm":
            h, _ = batch_norm(h, net.params[i], "eval")
        elif layer.kind == "lif":
            state = net.lif_states.get(i)
            if state is None or state.u.shape != h.shape:
                if state is not None:
                    raise StateError(
                        "batch size changed mid-inference; call reset_states first"
                    )
                state = LifState(u=np.zeros_like(h), last_spikes=np.zeros_like(h))
                net.lif_states[i] = state
            h = lif_step(state, h, spec.lif_config_for(layer))
        elif layer.kind == "pool":
            h = avg_pool2d(h, layer.window)
        elif layer.kind in ("fc", "classifier"):
            h = fully_connected(h.reshape(n, -1), net.params[i]["w"], net.params[i]["b"])
    return h


def mean_output(net):
    """Accumulated logits divided by the number of executed timesteps."""
    if net.t < 1:
        raise StateError("mean_output requires at least one executed timestep")
    return net.accumulated_logits / net.t


def static_forward(net, x, t_steps):
    """Reset, run a fixed number of timesteps, return the mean logits."""
    if not 1 <= t_steps <= net.spec.t_max:
        raise ValueError(
            f"t_steps must be in [1, {net.spec.t_max}], got {t_steps}"
        )
    reset_states(net)
    for _ in range(t_steps):
        forward_timestep(net, x)
    return mean_output(net)


def scan_timesteps(net, images, t_steps, batch_size=512):
    """Batched unroll over all timesteps recording the running means.

    Returns a dict with
      mean_logits: (N, T, K) running-mean classifier output after each step,
      activity:    (N, T, L) per-sample spike counts per mapped layer, or
                   None when the instance does not record activity.
    Samples are processed in batches; results are merged by sample index so
    the outcome does not depend on the batch split.
    """
    n = images.shape[0]
    k = net.spec.num_classes
    mean_logits = np.zeros((n, t_steps, k), dtype=np.float32)
    activities = [] if net.record_activity else None
    for start in range(0, n, batch_size):
        chunk = images[start : start + batch_size]
        reset_states(net)
        for t in range(t_steps):
            forward_timestep(net, chunk)
            mean_logits[start : start + len(chunk), t] = mean_output(net)
        if activities is not None:
            activities.append(np.stack(net.activity, axis=1))  # (B, T, L)
    reset_states(net)
    activity = np.concatenate(activities, axis=0) if activities else None
    return {"mean_logits": mean_logits, "activity": activity}


def spec_to_dict(spec):
    return {
        "input_shape": list(spec.input_shape),
        "num_classes": spec.num_classes,
        "t_max": spec.t_max,
        "lif": {"tau": spec.lif.tau, "v_th": spec.lif.v_th},
        "layers": [
            {
                "kind": l.kind,
                "out_channels": l.out_channels,
                "kernel": l.kernel,
                "stride": l.stride,
                "padding": l.padding,
                "window": l.window,
                "out_features": l.out_features,
                "bias": l.bias,
                "tau": l.tau,
                "v_th": l.v_th,
            }
            for l in spec.layers
        ],
    }


def spec_from_dict(d):
    return NetworkSpec(
        input_shape=tuple(d["input_shape"]),
        num_classes=d["num_classes"],
        t_max=d["t_max"],
        lif=LifConfig(**d["lif"]),
        layers=tuple(LayerSpec(**l) for l in d["layers"]),
    )
