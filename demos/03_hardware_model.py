"""The crossbar cost model: mapping, calibration anchors, and what a
dynamic-timestep run saves.

Run: python3 demos/03_hardware_model.py   (instant, no training)
"""

import numpy as np

from dtsnn import (
    ArchConfig,
    LayerSpec,
    NetworkSpec,
    component_energy_matrix,
    cost_of_inference,
    inference_costs,
    map_network,
)
from dtsnn.hardware import calibrate_energy_coefficients, load_reference_trace, reference_mapping

arch = ArchConfig()
print("reference hardware parameters:")
print(f"  crossbar {arch.crossbar_size}x{arch.crossbar_size}, "
      f"{arch.crossbars_per_tile}/tile, {arch.device_bits}-bit devices, "
      f"{arch.weight_bits}-bit weights -> {arch.bit_slices} slices per weight")

spec = NetworkSpec(
    input_shape=(1, 28, 28), num_classes=10, t_max=4,
    layers=(
        LayerSpec("conv", out_channels=12), LayerSpec("norm"), LayerSpec("lif"),
        LayerSpec("pool", window=2),
        LayerSpec("conv", out_channels=24), LayerSpec("norm"), LayerSpec("lif"),
        LayerSpec("pool", window=2),
        LayerSpec("conv", out_channels=48), LayerSpec("norm"), LayerSpec("lif"),
        LayerSpec("pool", window=7),
        LayerSpec("classifier"),
    ),
)
print("\nmapping the desk network onto crossbars:")
mapping = map_network(spec, arch)
for m in mapping.layers:
    print(f"  layer {m.index:>2} ({m.kind:>10}): fan {m.fan_in}x{m.fan_out} -> "
          f"{m.row_blocks}x{m.col_blocks} = {m.crossbar_count} crossbars, "
          f"{m.tile_count} tile(s)")

print("\ncalibration anchors on the bundled reference workload:")
trace = load_reference_trace()
ref_map = reference_mapping(trace, arch)
spikes = np.asarray(trace["spikes"])[:8]
# The same 8-step trace run for t = 1..8 steps, priced by the one pricing rule.
steps = component_energy_matrix(np.stack([spikes] * 8), ref_map, arch)
static = inference_costs(steps, np.arange(1, 9), arch, dynamic=False)
energies, lats = static["energy"], static["latency"]
print(f"  energy(1) = {energies[0]:.4f} normalized units")
print(f"  energy(8)/energy(1) = {energies[7] / energies[0]:.3f}  (anchor: 4.9)")
print(f"  latency(8)/latency(1) = {lats[7] / lats[0]:.1f}  (anchor: 8)")
parts = ("crossbar_adc", "digital", "buffer_interconnect")
print("  component shares at T=4 "
      + ", ".join(f"{k} {static[k][3] / energies[3]:.2%}" for k in parts))
sigma_e = inference_costs(steps, np.arange(1, 9), arch)["sigma_e"]
print(f"  exit-module overhead per invocation: "
      f"{sigma_e[0] / energies[0]:.1e} of a 1-timestep inference")

print("\nre-deriving the shipped coefficients from the anchors:")
coeffs = calibrate_energy_coefficients(trace, arch)
for name, value in coeffs.items():
    print(f"  {name:>20} = {value:.6e} (shipped {getattr(arch, name):.6e})")

print("\nwhat early exit buys on a toy activity log (desk net, 4 timesteps):")
activity = [[784, 250, 90, 40], [784, 120, 50, 25], [784, 90, 40, 20], [784, 80, 35, 18]]
static = cost_of_inference(activity, mapping, arch, dynamic=False)
dynamic = cost_of_inference(activity[:2], mapping, arch)  # exited after t=2
print(f"  static 4 steps: energy {static.total_energy:.4f}, latency {static.total_latency:.1f}, "
      f"EDP {static.edp:.4f}")
print(f"  exit at t=2:    energy {dynamic.total_energy:.4f}, latency {dynamic.total_latency:.1f}, "
      f"EDP {dynamic.edp:.4f}")
print(f"  EDP ratio: {dynamic.edp / static.edp:.3f}")
