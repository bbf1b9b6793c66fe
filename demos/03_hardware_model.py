"""The crossbar cost model: mapping, calibration anchors, and what a
dynamic-timestep run saves.

Run: python3 demos/03_hardware_model.py   (instant, no training)
"""

import numpy as np

from dtsnn import ArchConfig, LayerSpec, NetworkSpec, latency, map_network
from dtsnn.hardware import (
    calibrate_energy_coefficients,
    cost_of_inference,
    energy_per_timestep,
    load_reference_trace,
    reference_mapping,
    sigma_e_energy,
)

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
spikes = np.asarray(trace["spikes"])
energies = [energy_per_timestep(ref_map, spikes[t], arch)[0] for t in range(8)]
print(f"  energy(1) = {energies[0]:.4f} normalized units")
print(f"  energy(8)/energy(1) = {sum(energies) / energies[0]:.3f}  (anchor: 4.9)")
print(f"  latency(8)/latency(1) = {latency(8, arch) / latency(1, arch):.1f}  (anchor: 8)")
comps = {"crossbar_adc": 0.0, "digital": 0.0, "buffer_interconnect": 0.0}
for t in range(4):
    for k, v in energy_per_timestep(ref_map, spikes[t], arch)[1].items():
        comps[k] += v
total = sum(comps.values())
print("  component shares at T=4 "
      + ", ".join(f"{k} {v / total:.2%}" for k, v in comps.items()))
print(f"  exit-module overhead per invocation: "
      f"{sigma_e_energy(1.0, 1, arch.sigma_e_ratio):.1e} of a 1-timestep inference")

print("\nre-deriving the shipped coefficients from the anchors:")
coeffs = calibrate_energy_coefficients(trace, arch)
for name, value in coeffs.items():
    print(f"  {name:>20} = {value:.6e} (shipped {getattr(arch, name):.6e})")

print("\nwhat early exit buys on a toy activity log (desk net, 4 timesteps):")
activity = [[784, 250, 90, 40], [784, 120, 50, 25], [784, 90, 40, 20], [784, 80, 35, 18]]
static = cost_of_inference(activity, mapping, arch, sigma_e_invocations=0)
dynamic = cost_of_inference(activity[:2], mapping, arch)  # exited after t=2
print(f"  static 4 steps: energy {static.total_energy:.4f}, latency {static.total_latency:.1f}, "
      f"EDP {static.edp:.4f}")
print(f"  exit at t=2:    energy {dynamic.total_energy:.4f}, latency {dynamic.total_latency:.1f}, "
      f"EDP {dynamic.edp:.4f}")
print(f"  EDP ratio: {dynamic.edp / static.edp:.3f}")
