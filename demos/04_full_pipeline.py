"""End to end on synthetic data: train, sweep thresholds, price the result.

A scaled-down version of the full workflow (smaller net and dataset so it
finishes in about a minute).  For the real desk-scale runs use the CLI with
configs/synth.yaml or configs/mnist.yaml.

Run: python3 demos/04_full_pipeline.py
"""

import time

import numpy as np

from dtsnn import (
    ArchConfig,
    LayerSpec,
    NetworkSpec,
    TrainConfig,
    build_instance,
    map_network,
    synth_dataset,
    threshold_sweep,
    train,
)
from dtsnn.hardware import component_energy_matrix, dataset_cost_fn

spec = NetworkSpec(
    input_shape=(1, 16, 16),
    num_classes=6,
    t_max=4,
    layers=(
        LayerSpec("conv", out_channels=8), LayerSpec("norm"), LayerSpec("lif"),
        LayerSpec("pool", window=2),
        LayerSpec("conv", out_channels=16), LayerSpec("norm"), LayerSpec("lif"),
        LayerSpec("pool", window=8),
        LayerSpec("classifier"),
    ),
)
train_ds = synth_dataset("stripes", 2400, 6, seed=11, image_size=16, noise=1.3)
test_ds = synth_dataset("stripes", 800, 6, seed=12, image_size=16, noise=1.3)

print("training (4 timesteps, per-timestep loss)...")
net = build_instance(spec, seed=0)
t0 = time.time()
log = train(
    net, train_ds.images, train_ds.labels, test_ds.images, test_ds.labels,
    TrainConfig(epochs=8, batch_size=128, lr0=0.06, t_train=4, seed=0),
    progress=lambda r: print(
        f"  epoch {r.epoch}: loss {r.train_loss:.3f}, "
        f"acc@t {[round(a, 3) for a in r.eval_acc]}"
    ),
)
print(f"trained in {time.time() - t0:.0f}s")

arch = ArchConfig()
mapping = map_network(spec, arch)
net.record_activity = True
rows, scan = threshold_sweep(
    net, test_ds.images, test_ds.labels,
    [0.0, 0.05, 0.12, 0.25, 0.4, 0.6], 4,
    cost_fn=dataset_cost_fn(mapping, arch),
)
static_energy = float(
    component_energy_matrix(scan["activity"], mapping, arch)["total"].sum(axis=1).mean()
)
static_edp = static_energy * 4 * arch.latency_per_timestep

print("\nthreshold sweep (energy/EDP relative to the static 4-step run):")
print(f"{'theta':>6} {'acc':>7} {'mean T^':>8} {'energy':>7} {'EDP':>6}  exit histogram")
for row in rows:
    print(
        f"{row['theta']:>6.2f} {row['accuracy']:>7.4f} {row['mean_t']:>8.3f} "
        f"{row['energy'] / static_energy:>6.3f}x {row['edp'] / static_edp:>5.3f}x  "
        f"{row['histogram'].tolist()}"
    )
best = min(
    (r for r in rows if r["accuracy"] >= rows[0]["accuracy"] - 0.003),
    key=lambda r: r["edp"],
)
print(
    f"\nat theta={best['theta']:.2f} the dynamic policy keeps static accuracy "
    f"({best['accuracy']:.4f} vs {rows[0]['accuracy']:.4f}) while using "
    f"{best['mean_t']:.2f} timesteps on average and "
    f"{best['edp'] / static_edp:.2f}x the EDP."
)
