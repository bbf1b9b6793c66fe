"""Input-aware dynamic timestep selection via normalized-entropy thresholding.

After every executed timestep the softmax of the accumulated (running-mean)
classifier output is reduced to a normalized Shannon entropy in [0, 1].
Inference stops at the first timestep whose entropy falls strictly below the
threshold theta; if none qualifies, all t_max timesteps run.  Larger theta
therefore never increases a sample's timestep count.

Entropy and softmax are computed in float64 regardless of network precision;
probabilities are clamped at 1e-12 before the log so the 0*log(0) = 0
convention holds in floating point.
"""

import csv
import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, bounded, check_bounds
from .network import (
    as_images,
    as_labels,
    forward_timestep,
    mean_output,
    reset_states,
    scan_timesteps,
)


@dataclass(frozen=True)
class ExitPolicy:
    """Entropy threshold and the timestep budget of dynamic inference."""

    theta: float = bounded(ge=0, le=1)
    t_max: int = bounded(ge=1)

    def __post_init__(self):
        check_bounds(self, ValueError)


@dataclass
class ExitTrace:
    """Record of one dynamic inference: entropies visited, exit point, result."""

    entropies: list          # one entry per executed timestep (length == chosen_t)
    chosen_t: int
    prediction: int
    probabilities: np.ndarray
    mean_logits: np.ndarray
    step_activity: list = field(default_factory=list)  # per-timestep layer counts


def softmax(logits):
    """Row-wise softmax with max subtraction, computed in float64.

    Works in one new array with direct ufunc calls: at batch 1 the call
    overhead, not the ten-element row, is the cost.
    """
    z = np.array(logits, dtype=np.float64)
    np.subtract(z, np.maximum.reduce(z, axis=-1, keepdims=True), out=z)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def normalized_entropy(pi, num_classes):
    """Shannon entropy of pi divided by log(num_classes); result in [0, 1].

    ValueError unless pi holds num_classes probabilities, each in [0, 1]
    (NaN is not), that sum to 1 within 1e-4.
    """
    pi = np.asarray(pi, dtype=np.float64)
    if pi.shape != (num_classes,):
        raise ValueError(
            f"probability vector has length {pi.shape}, expected ({num_classes},)"
        )
    if not ((pi >= 0.0) & (pi <= 1.0)).all():  # NaN fails both comparisons
        raise ValueError(f"probabilities must lie in [0, 1], got {pi}")
    total = pi.sum()
    if abs(total - 1.0) > 1e-4:
        raise ValueError(f"probabilities must sum to 1 (got {total:.6f})")
    return float(_entropy_rows(pi[None, :])[0])


def _entropy_rows(probs):
    """Normalized entropy of each row of a (N, K) probability matrix."""
    terms = np.maximum(probs, 1e-12)
    np.log(terms, out=terms)
    terms *= probs
    return np.add.reduce(terms, axis=1) / _minus_log_classes(probs.shape[1])


@functools.cache
def _minus_log_classes(k):
    """-np.log(k), minus the entropy of k equally likely classes: dividing
    by it rounds as negating the sum and dividing by np.log(k) does."""
    return -np.log(k)


def dynamic_infer(net, x, policy):
    """Per-sample dynamic inference: run timesteps until the entropy of the
    running-mean output drops below theta, else stop at t_max.

    x is a single input, with or without the leading batch axis; a batch of
    more than one input raises ShapeError, and anything but an array of
    real numbers DataFormatError.  A policy t_max beyond the network's t_max
    raises ValueError.
    """
    if policy.t_max > net.spec.t_max:
        raise ValueError(
            f"policy t_max={policy.t_max} exceeds the network's t_max={net.spec.t_max}"
        )
    x = as_images(x)
    shape = net.spec.input_shape
    if x.shape == shape:
        x = x[None]
    elif x.shape != (1,) + shape:
        raise ShapeError(
            f"dynamic_infer takes one input of shape {shape} or {(1,) + shape}, "
            f"got {x.shape}"
        )
    reset_states(net)
    entropies = []
    for _ in range(policy.t_max):
        forward_timestep(net, x)
        logits = mean_output(net)  # (1, K), as a scan row
        probs = softmax(logits)
        entropy = _entropy_rows(probs).item()
        entropies.append(entropy)
        if entropy < policy.theta:  # strict: a tie runs on
            break
    return ExitTrace(
        entropies=entropies,
        chosen_t=len(entropies),
        prediction=int(probs.argmax()),
        probabilities=probs[0],
        mean_logits=logits[0],
        step_activity=[row[0] for row in net.activity] if net.record_activity else [],
    )


def scan_with_entropy(net, images, t_max, batch_size=512):
    """Batched unroll recording running-mean logits, entropies and activity.

    The per-timestep trajectories do not depend on theta, so one scan serves
    any number of thresholds.  Returns a dict with
      mean_logits (N,T,K), entropy (N,T), predictions (N,T), activity (N,T,L) or None.
    Runs `scan_timesteps`, whose cache-sized tiles ``batch_size`` only caps.
    """
    scan = scan_timesteps(net, images, t_max, batch_size=batch_size)
    ml = scan["mean_logits"]
    n, t_steps, k = ml.shape
    probs = softmax(ml.reshape(n * t_steps, k))
    entropy = _entropy_rows(probs).reshape(n, t_steps)
    return {
        "mean_logits": ml,
        "entropy": entropy,
        "predictions": ml.argmax(axis=2),
        "activity": scan["activity"],
    }


def exit_times(entropy, policy):
    """First timestep (1-based) whose entropy is below theta, else t_max.

    Raises ValueError when policy.t_max exceeds the scanned timesteps.
    """
    if policy.t_max > entropy.shape[1]:
        raise ValueError(
            f"policy t_max={policy.t_max} exceeds the scan's {entropy.shape[1]} timesteps"
        )
    below = entropy[:, : policy.t_max] < policy.theta
    first = np.argmax(below, axis=1) + 1
    never = ~below.any(axis=1)
    first[never] = policy.t_max
    return first


@dataclass
class PolicySummary:
    theta: float
    accuracy: float
    mean_t: float
    histogram: np.ndarray      # counts of chosen_t over 1..t_max
    chosen_t: np.ndarray       # (N,)
    predictions: np.ndarray    # (N,)


def summarize_policy(scan, labels, policy):
    """Apply an exit policy to a finished scan and aggregate the outcome.

    ``labels`` must hold one class index per scanned sample (`as_labels`).
    """
    t_hat = exit_times(scan["entropy"], policy)
    labels = as_labels(labels, len(t_hat), scan["mean_logits"].shape[2])
    preds = scan["predictions"][np.arange(len(t_hat)), t_hat - 1]
    hist = np.bincount(t_hat, minlength=policy.t_max + 1)[1:]
    return PolicySummary(
        theta=policy.theta,
        accuracy=float((preds == labels).mean()),
        mean_t=float(t_hat.mean()),
        histogram=hist,
        chosen_t=t_hat,
        predictions=preds,
    )


def threshold_sweep(net, images, labels, thetas, t_max, cost_fn=None,
                    batch_size=512):
    """One summary row per theta, joined with hardware costs when given.

    cost_fn(chosen_t, activity) -> (energy, latency, edp) computes the
    dataset-mean hardware metrics for the per-sample exit decisions; when
    omitted the cost columns are zero.  Rows share a single scan of the
    network, so per-sample trajectories are identical across thetas;
    ``batch_size`` caps the rows of its cache-sized tiles (`scan_timesteps`).
    Raises ValueError for an empty image set or an empty theta list, and
    checks ``labels`` (`as_labels`) before the scan runs.
    """
    if len(images) == 0:
        raise ValueError("threshold_sweep requires a non-empty dataset")
    if len(thetas) == 0:
        raise ValueError("threshold_sweep requires at least one theta")
    labels = as_labels(labels, len(images), net.spec.num_classes)
    record = net.record_activity
    net.record_activity = net.record_activity or cost_fn is not None
    try:
        scan = scan_with_entropy(net, images, t_max, batch_size=batch_size)
    finally:
        net.record_activity = record
    rows = []
    for theta in thetas:
        policy = ExitPolicy(theta=theta, t_max=t_max)
        summary = summarize_policy(scan, labels, policy)
        if cost_fn is not None:
            energy, latency, edp = cost_fn(summary.chosen_t, scan["activity"])
        else:
            energy = latency = edp = 0.0
        rows.append(
            {
                "theta": float(theta),
                "accuracy": summary.accuracy,
                "mean_t": summary.mean_t,
                "energy": float(energy),
                "latency": float(latency),
                "edp": float(edp),
                "histogram": summary.histogram,
            }
        )
    return rows, scan


def write_trace_csv(path, scan, labels, policy):
    """Per-sample trace export: sample_id, label, prediction, chosen_t, entropies."""
    summary = summarize_policy(scan, labels, policy)
    labels, t_hat, preds = np.asarray(labels), summary.chosen_t, summary.predictions
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["sample_id", "label", "prediction", "chosen_t"]
            + [f"entropy_t{t}" for t in range(1, policy.t_max + 1)]
        )
        for i in range(len(t_hat)):
            ent = [f"{e:.6f}" for e in scan["entropy"][i, : t_hat[i]]]
            writer.writerow([i, labels[i], preds[i], t_hat[i]] + ent)
