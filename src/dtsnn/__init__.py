"""dtsnn: spiking-network engine with entropy-gated dynamic timesteps and an
analytical in-memory-computing cost model.

Typical flow: describe a network with NetworkSpec, train it with
training.train (surrogate-gradient BPTT, per-timestep or standard loss), run
input-aware inference with exit_policy.dynamic_infer / threshold_sweep, and
price the result on crossbar hardware with hardware.map_network,
hardware.component_energy_matrix and hardware.inference_costs, the one
pricing rule behind cost_of_inference and dataset_cost_fn.
"""

__version__ = "0.1.0"

from .errors import (
    ChecksumError,
    ConfigError,
    DataFormatError,
    DtsnnError,
    ShapeError,
    StateError,
    TrainingError,
    VersionError,
)
from .kernels import (
    ConvParams,
    avg_pool2d,
    batch_norm,
    conv2d,
    fully_connected,
    norm_params,
)
from .network import (
    LayerSpec,
    LifConfig,
    LifState,
    NetworkSpec,
    SnnInstance,
    build_instance,
    forward_timestep,
    lif_step,
    lif_unroll,
    mean_output,
    reset_states,
    scan_timesteps,
)
from .training import (
    TrainConfig,
    TrainingLog,
    cosine_lr,
    evaluate_per_timestep,
    loss_per_timestep,
    loss_standard,
    surrogate_grad,
    train,
)
from .exit_policy import (
    ExitPolicy,
    ExitTrace,
    dynamic_infer,
    normalized_entropy,
    scan_with_entropy,
    softmax,
    threshold_sweep,
)
from .hardware import (
    ArchConfig,
    CostReport,
    LayerMapping,
    apply_device_variation,
    calibrate_energy_coefficients,
    component_energy_matrix,
    cost_of_inference,
    energy_per_timestep,
    inference_costs,
    map_network,
    perturbed_instance,
)
from .datasets import Dataset, load_idx, synth_dataset
from .checkpoint import (
    Checkpoint,
    instance_from_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from .config import AppConfig, parse_config, serialize_config
