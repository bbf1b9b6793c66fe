"""Analytical cost model of a tiled in-memory-computing accelerator.

Weight matrices are bit-sliced across fixed-size crossbars (one slice per
device-precision group of weight bits); crossbars group into tiles.  Energy
per timestep is a fixed term per allocated crossbar (switching, shift-add,
accumulation, local buffering), an activity term proportional to the spikes
presented to each layer, and a flat per-timestep control term.  For layers l
with x_l allocated crossbars, c_l mapped columns and s_l presented spikes:

    E_step = sum_l (e_crossbar_digital + e_crossbar_buffer) * x_l
             + sum_l (e_mac + e_adc / crossbar_size) * c_l * s_l
             + e_step_digital + e_step_buffer

`component_energy_matrix` computes E_step for every sample and timestep, and
`inference_costs` is the one pricing rule on top of it: an inference of t
timesteps costs the sum of its t step energies plus the entropy-exit module,
sigma_e_ratio * E_step(t=1) per invocation (one per executed timestep on the
dynamic-timestep hardware, none on a static run), and no latency.  Latency
is strictly linear in timesteps: timesteps are processed sequentially
without pipelining.  `cost_of_inference` (one request) and `dataset_cost_fn`
(dataset means) both price through it.

All energies are in normalized units: the default coefficients are
calibrated (see `calibrate_energy_coefficients` and data/reference_trace.json)
so that one timestep of the bundled reference workload costs 1.0, the
8-timestep/1-timestep energy ratio is 4.9, and the component shares at four
timesteps are 45% digital peripherals, 25% crossbar+ADC, 30%
buffers/interconnect.
"""

import functools
import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ConfigError, ShapeError, bounded, check_bounds


@dataclass(frozen=True)
class ArchConfig:
    """Accelerator parameters; geometry defaults follow the reference design.

    The energy coefficients are in normalized units per event (see module
    docstring); every value can be overridden from the hardware section of a
    run configuration.
    """

    crossbar_size: int = bounded(64, ge=1)
    crossbars_per_tile: int = bounded(64, ge=1)
    device_bits: int = bounded(4, ge=1)
    weight_bits: int = bounded(8, ge=1)
    # Energy coefficients (normalized units), frozen from
    # calibrate_energy_coefficients() on the bundled reference trace:
    e_mac: float = bounded(1.4225149475838339e-08, ge=0)
    e_adc: float = bounded(7.112574737919169e-07, ge=0)
    e_crossbar_digital: float = bounded(2.976925708891303e-05, ge=0)
    e_crossbar_buffer: float = bounded(1.9846171392777032e-05, ge=0)
    e_step_digital: float = bounded(0.09175735585005537, ge=0)
    e_step_buffer: float = bounded(0.06117157056722247, ge=0)
    sigma_e_ratio: float = bounded(2e-5, ge=0)
    latency_per_timestep: float = bounded(1.0, gt=0)

    def __post_init__(self):
        check_bounds(self, ConfigError)
        if self.weight_bits % self.device_bits:
            raise ConfigError(
                f"weight_bits ({self.weight_bits}) must be divisible by "
                f"device_bits ({self.device_bits})"
            )

    @property
    def bit_slices(self):
        return self.weight_bits // self.device_bits


@dataclass(frozen=True)
class LayerMap:
    """Crossbar allocation of one weighted layer."""

    index: int
    kind: str
    fan_in: int
    fan_out: int
    bit_slices: int
    cols_needed: int
    row_blocks: int
    col_blocks: int
    crossbar_count: int
    tile_count: int


@dataclass(frozen=True)
class LayerMapping:
    """Per-layer crossbar allocation for a whole network."""

    layers: tuple

    @property
    def total_crossbars(self):
        return sum(l.crossbar_count for l in self.layers)


def map_layer(index, kind, fan_in, fan_out, arch):
    """Bit-slice one weight matrix onto fixed-size crossbars."""
    if fan_in < 1 or fan_out < 1:
        raise ShapeError(
            f"layer {index} has zero-size weight matrix ({fan_in} x {fan_out})"
        )
    slices = arch.bit_slices
    cols_needed = fan_out * slices
    row_blocks = math.ceil(fan_in / arch.crossbar_size)
    col_blocks = math.ceil(cols_needed / arch.crossbar_size)
    crossbars = row_blocks * col_blocks
    return LayerMap(
        index=index,
        kind=kind,
        fan_in=fan_in,
        fan_out=fan_out,
        bit_slices=slices,
        cols_needed=cols_needed,
        row_blocks=row_blocks,
        col_blocks=col_blocks,
        crossbar_count=crossbars,
        tile_count=math.ceil(crossbars / arch.crossbars_per_tile),
    )


def map_network(spec, arch):
    """Allocate crossbars for the weight matrix of every weighted layer:
    fan_in rows by fan_out columns (`NetworkSpec.layer_plan`)."""
    return LayerMapping(layers=tuple(
        map_layer(i, layer.kind, plan.fan_in, plan.weight_shape[0], arch)
        for i, (layer, plan) in enumerate(zip(spec.layers, spec.layer_plan))
        if plan.weight_shape is not None
    ))


_KEYS = ("crossbar_adc", "digital", "buffer_interconnect", "total")


@functools.lru_cache(maxsize=64)
def _step_constants(mapping, arch):
    """(per_spike, digital, buffer, fixed) of one (mapping, arch): each
    layer's energy per presented spike (read-only), the digital and the
    buffer/interconnect energy of a step, and their sum."""
    layers = mapping.layers
    fixed_digital, fixed_buffer = np.array([
        [arch.e_crossbar_digital * l.crossbar_count for l in layers],
        [arch.e_crossbar_buffer * l.crossbar_count for l in layers],
    ]).sum(axis=1).tolist()
    per_spike = np.array([
        arch.e_mac * l.cols_needed + arch.e_adc * l.cols_needed / arch.crossbar_size
        for l in layers
    ])
    per_spike.flags.writeable = False
    fixed = fixed_digital + fixed_buffer + arch.e_step_digital + arch.e_step_buffer
    return (per_spike, fixed_digital + arch.e_step_digital,
            fixed_buffer + arch.e_step_buffer, fixed)


def component_energy_matrix(activity, mapping, arch):
    """Per-timestep energies, split by component, for activity of shape (..., T, L).

    Returns {"crossbar_adc", "digital", "buffer_interconnect", "total"}, each
    of shape (..., T).  The activity term is linear in presented spikes: each
    spike drives one row across the layer's active columns (e_mac per column)
    and contributes a proportional share of the column conversions (e_adc per
    crossbar_size rows, i.e. converters duty-cycle with row occupancy).
    "total" is crossbar_adc plus the whole fixed per-step energy summed once,
    so it equals the sum of the three components up to rounding.
    """
    activity = np.asarray(activity, dtype=np.float64)
    if activity.shape[-1:] != (len(mapping.layers),):
        raise ValueError(
            f"activity has {activity.shape[-1:]} entries per row, mapping has "
            f"{len(mapping.layers)} layers"
        )
    per_spike, digital, buffer, fixed = _step_constants(mapping, arch)
    crossbar_adc = np.add.reduce(activity * per_spike, axis=-1)
    shape = activity.shape[:-1]
    return {
        "crossbar_adc": crossbar_adc,
        "digital": np.full(shape, digital),
        "buffer_interconnect": np.full(shape, buffer),
        "total": crossbar_adc + fixed,
    }


def energy_per_timestep(mapping, activity, arch):
    """Energy of one timestep given per-layer presented-spike counts.

    Returns (total, components) where components splits the total into
    crossbar_adc / digital / buffer_interconnect.
    """
    activity = np.asarray(activity, dtype=np.float64)
    if activity.shape != (len(mapping.layers),):
        raise ValueError(
            f"activity has {activity.shape} entries, mapping has "
            f"{len(mapping.layers)} layers"
        )
    comps = {k: float(v) for k, v in component_energy_matrix(activity, mapping, arch).items()}
    return comps.pop("total"), comps


def inference_costs(steps, chosen_t, arch, dynamic=True):
    """Per-sample cost of N inferences, sample i run for chosen_t[i] timesteps.

    steps is the `component_energy_matrix` of an (N, T, L) activity and
    chosen_t holds (N,) integers in [1, T].  Returns per-sample arrays:
    crossbar_adc, digital and buffer_interconnect summed over the executed
    timesteps; sigma_e, the exit module run once per executed timestep at
    sigma_e_ratio of the first timestep's energy (none when dynamic=False,
    a static run); energy, the executed step totals plus sigma_e; latency.
    """
    total = steps["total"]
    n, t_max = total.shape
    chosen_t = np.asarray(chosen_t)
    if (chosen_t.shape != (n,) or chosen_t.dtype.kind not in "iu"
            or (n and (np.minimum.reduce(chosen_t) < 1
                       or np.maximum.reduce(chosen_t) > t_max))):
        raise ValueError(
            f"chosen_t must hold ({n},) integers in [1, {t_max}], got {chosen_t}"
        )
    mask = np.arange(1, t_max + 1) <= chosen_t[:, None]
    # One masked sum over the stacked components: per call it costs less
    # than four.
    sums = np.add.reduce(np.array([steps[k] for k in _KEYS]) * mask, axis=2)
    sigma_e = chosen_t * (arch.sigma_e_ratio if dynamic else 0.0) * total[:, 0]
    return {
        "crossbar_adc": sums[0],
        "digital": sums[1],
        "buffer_interconnect": sums[2],
        "sigma_e": sigma_e,
        "energy": sums[3] + sigma_e,
        "latency": chosen_t * arch.latency_per_timestep,
    }


@dataclass(frozen=True)
class CostReport:
    """Cost of one inference."""

    total_energy: float
    total_latency: float
    edp: float
    per_timestep_energy: tuple
    components: dict


def _reject_counts(rows):
    """Raise the ValueError of (t, L) step activity that holds a NaN,
    infinite or negative count, naming the first, or that prices to a
    non-finite energy."""
    bad = np.argwhere(~(np.isfinite(rows) & (rows >= 0)))
    if len(bad):
        step, layer = bad[0]
        raise ValueError(f"step activity counts must be finite and >= 0, got "
                         f"{rows[step, layer]} at timestep {step + 1}, layer {layer}")
    raise ValueError("step activity prices to a non-finite energy")


def cost_of_inference(step_activities, mapping, arch, dynamic=True):
    """Price one inference with `inference_costs`.

    step_activities: per-layer spike counts, one row per executed timestep,
    shape (t, L) for t >= 1 and the mapping's L layers; a count that is NaN,
    infinite or negative raises ValueError, as does any other shape.
    dynamic=False prices a static run without the exit module.
    """
    rows = np.asarray(list(step_activities), dtype=np.float64)
    if len(rows) == 0:
        raise ValueError("cost_of_inference requires at least one timestep of activity")
    if rows.ndim != 2 or rows.shape[1] != len(mapping.layers):
        raise ValueError(
            f"step activity must have shape (t, {len(mapping.layers)}), one row of "
            f"per-layer counts per executed timestep, got {rows.shape}"
        )
    if not np.minimum.reduce(rows, axis=None) >= 0:  # NaN compares False too
        _reject_counts(rows)
    steps = component_energy_matrix(rows[None], mapping, arch)
    costs = inference_costs(steps, (len(rows),), arch, dynamic)
    energy, latency = costs["energy"].item(0), costs["latency"].item(0)
    if not math.isfinite(energy):  # an infinite count
        _reject_counts(rows)
    return CostReport(
        total_energy=energy,
        total_latency=latency,
        edp=energy * latency,
        per_timestep_energy=tuple(steps["total"][0].tolist()),
        components={
            "crossbar_adc": costs["crossbar_adc"].item(0),
            "digital": costs["digital"].item(0),
            "buffer_interconnect": costs["buffer_interconnect"].item(0),
            "sigma_e": costs["sigma_e"].item(0),
        },
    )


def dataset_cost_fn(mapping, arch, dynamic=True):
    """Build a cost callback for threshold sweeps.

    Returns f(chosen_t, activity) -> (mean energy, mean latency, their
    product) of `inference_costs`, where activity has shape (N, T, L) and
    chosen_t is (N,).  Dataset-level EDP follows the mean-energy x
    mean-latency convention.
    """

    def cost(chosen_t, activity):
        costs = inference_costs(
            component_energy_matrix(activity, mapping, arch), chosen_t, arch, dynamic
        )
        mean_e = float(costs["energy"].mean())
        mean_l = float(costs["latency"].mean())
        return mean_e, mean_l, mean_e * mean_l

    return cost


def apply_device_variation(weights, sigma_over_mu, seed):
    """Multiplicative conductance noise: w' = w * (1 + eps), eps ~ N(0, sigma/mu).

    `weights` may be a single array or a list of arrays; the same seed always
    produces the same perturbation.
    """
    if not 0.0 <= sigma_over_mu < math.inf:
        raise ValueError(f"sigma_over_mu must be finite and >= 0, got {sigma_over_mu}")
    rng = np.random.default_rng(seed)
    single = isinstance(weights, np.ndarray)
    arrays = [weights] if single else list(weights)
    out = []
    for w in arrays:
        if sigma_over_mu == 0.0:
            out.append(w.copy())
        else:
            eps = rng.normal(0.0, sigma_over_mu, size=w.shape)
            out.append((w * (1.0 + eps)).astype(w.dtype))
    return out[0] if single else out


def perturbed_instance(net, sigma_over_mu, seed):
    """Clone an instance with device-variation noise on its mapped weights.

    Only crossbar-resident weight matrices ("w") are perturbed; biases and
    normalization parameters live in digital logic and stay exact.  The
    clone's parameter dicts are its own (`clone_state`), so neither the noise
    nor training the clone touches the source's parameters.
    """
    clone = net.clone_state()
    for i, p in enumerate(clone.params):
        if p is not None and "w" in p:
            p["w"] = apply_device_variation(p["w"], sigma_over_mu, seed + i)
    return clone


# ---------------------------------------------------------------------------
# Calibration against the bundled reference workload.
# ---------------------------------------------------------------------------

def load_reference_trace():
    """Reference workload: layer geometry plus dataset-mean spike counts.

    The trace describes a deep feedforward stack (VGG-like fan-in/fan-outs)
    with the dense analog drive of the first layer repeated every timestep
    and spiking activity that is strongest at the first timestep and decays
    as membranes settle.
    """
    with resources.files("dtsnn.data").joinpath("reference_trace.json").open() as fh:
        raw = json.load(fh)
    return raw


def reference_mapping(trace, arch):
    entries = [
        map_layer(i, l["kind"], l["fan_in"], l["fan_out"], arch)
        for i, l in enumerate(trace["layers"])
    ]
    return LayerMapping(layers=tuple(entries))


# Anchor points of the calibration.
ENERGY8_RATIO = 4.9          # energy of 8 reference timesteps over that of 1
SHARE_AT_T = 4               # timesteps at which DIGITAL_SHARE holds
DIGITAL_SHARE = 0.45         # digital peripherals' share of the energy
ADC_PER_MAC = 50.0           # e_adc / e_mac
PER_CROSSBAR_FRACTION = 0.7  # of the fixed budgets, the part paid per crossbar


def calibrate_energy_coefficients(trace, arch):
    """Solve the energy coefficients against the published anchor points.

    Anchors (the module constants above): energy(8)/energy(1) ==
    ENERGY8_RATIO on the reference trace; the digital share at SHARE_AT_T
    timesteps equals DIGITAL_SHARE, and buffers take the rest of the fixed
    budget (30% on the bundled trace, leaving crossbar+ADC 25%); one
    reference timestep costs 1.0.  The fixed digital/buffer budgets are
    split between a per-crossbar term and a flat per-timestep term by
    PER_CROSSBAR_FRACTION.  Raises ConfigError for a trace that cannot meet
    the anchors.
    """
    mapping = reference_mapping(trace, arch)
    spikes = np.asarray(trace["spikes"], dtype=np.float64)  # (8, L)
    if spikes.shape[0] < 8:
        raise ConfigError("reference trace must cover 8 timesteps")
    cols = np.array([l.cols_needed for l in mapping.layers], dtype=np.float64)
    act_coeff = cols * (1.0 + ADC_PER_MAC / arch.crossbar_size)  # e_mac = 1 unit
    u = (spikes * act_coeff).sum(axis=1)
    fixed_total = (ENERGY8_RATIO * u[0] - u[:8].sum()) / (8.0 - ENERGY8_RATIO)
    if fixed_total <= 0:
        raise ConfigError(
            "reference trace is incompatible with the energy-ratio anchor "
            "(activity does not decay enough)"
        )
    total_at_share_t = SHARE_AT_T * fixed_total + u[:SHARE_AT_T].sum()
    fixed_digital = DIGITAL_SHARE * total_at_share_t / SHARE_AT_T
    fixed_buffer = fixed_total - fixed_digital
    if fixed_buffer <= 0:
        raise ConfigError("component-share anchors leave no buffer budget")
    total_xbars = mapping.total_crossbars
    scale = 1.0 / (fixed_total + u[0])  # one reference timestep == 1.0
    return {
        "e_mac": scale,
        "e_adc": ADC_PER_MAC * scale,
        "e_crossbar_digital": PER_CROSSBAR_FRACTION * fixed_digital / total_xbars * scale,
        "e_step_digital": (1 - PER_CROSSBAR_FRACTION) * fixed_digital * scale,
        "e_crossbar_buffer": PER_CROSSBAR_FRACTION * fixed_buffer / total_xbars * scale,
        "e_step_buffer": (1 - PER_CROSSBAR_FRACTION) * fixed_buffer * scale,
    }
