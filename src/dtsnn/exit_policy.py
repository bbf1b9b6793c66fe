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
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .network import forward_timestep, mean_output, reset_states, scan_timesteps


@dataclass(frozen=True)
class ExitPolicy:
    """Entropy threshold and the timestep budget of dynamic inference."""

    theta: float
    t_max: int

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must satisfy 0 <= theta <= 1, got {self.theta}")
        if self.t_max < 1:
            raise ValueError(f"t_max must satisfy t_max >= 1, got {self.t_max}")


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
    """Row-wise softmax with max subtraction, computed in float64."""
    z = np.asarray(logits, dtype=np.float64)
    squeeze = z.ndim == 1
    if squeeze:
        z = z[None, :]
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    return p[0] if squeeze else p


def normalized_entropy(pi, num_classes):
    """Shannon entropy of pi divided by log(num_classes); result in [0, 1]."""
    pi = np.asarray(pi, dtype=np.float64)
    if pi.shape != (num_classes,):
        raise ValueError(
            f"probability vector has length {pi.shape}, expected ({num_classes},)"
        )
    total = pi.sum()
    if abs(total - 1.0) > 1e-4:
        raise ValueError(f"probabilities must sum to 1 (got {total:.6f})")
    return float(_entropy_rows(pi[None, :])[0])


def _entropy_rows(probs):
    """Normalized entropy of each row of a (N, K) probability matrix."""
    k = probs.shape[1]
    logs = np.log(np.maximum(probs, 1e-12))
    return -(probs * logs).sum(axis=1) / np.log(k)


def should_exit(entropy, policy):
    """True iff the entropy is strictly below the policy threshold."""
    return bool(entropy < policy.theta)


def dynamic_infer(net, x, policy):
    """Per-sample dynamic inference: run timesteps until the entropy of the
    running-mean output drops below theta, else stop at t_max.

    x is a single input, with or without the leading batch axis; a batch of
    more than one input raises ShapeError.
    """
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
    probs = None
    for t in range(1, policy.t_max + 1):
        forward_timestep(net, x)
        probs = softmax(mean_output(net)[0])
        entropy = float(_entropy_rows(probs[None, :])[0])
        entropies.append(entropy)
        if should_exit(entropy, policy):
            break
    logits = mean_output(net)[0]
    return ExitTrace(
        entropies=entropies,
        chosen_t=len(entropies),
        prediction=int(np.argmax(probs)),
        probabilities=probs,
        mean_logits=logits,
        step_activity=[row[0] for row in net.activity] if net.record_activity else [],
    )


def scan_with_entropy(net, images, t_max, batch_size=512):
    """Batched unroll recording running-mean logits, entropies and activity.

    The per-timestep trajectories do not depend on theta, so one scan serves
    any number of thresholds.  Returns a dict with
      mean_logits (N,T,K), entropy (N,T), predictions (N,T), activity (N,T,L) or None.
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
    """First timestep (1-based) whose entropy is below theta, else t_max."""
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
    """Apply an exit policy to a finished scan and aggregate the outcome."""
    labels = np.asarray(labels)
    t_hat = exit_times(scan["entropy"], policy)
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


def evaluate_policy(net, images, labels, policy, batch_size=512, scan=None):
    """Accuracy, mean timestep count and exit histogram over a labeled set."""
    if len(images) == 0:
        raise ValueError("evaluate_policy requires a non-empty dataset")
    if scan is None:
        scan = scan_with_entropy(net, images, policy.t_max, batch_size=batch_size)
    return summarize_policy(scan, labels, policy)


def threshold_sweep(net, images, labels, thetas, t_max, cost_fn=None,
                    batch_size=512):
    """One summary row per theta, joined with hardware costs when given.

    cost_fn(chosen_t, activity) -> (energy, latency, edp) computes the
    dataset-mean hardware metrics for the per-sample exit decisions; when
    omitted the cost columns are zero.  Rows share a single scan of the
    network, so per-sample trajectories are identical across thetas.
    """
    if len(thetas) == 0:
        raise ValueError("threshold_sweep requires at least one theta")
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
    labels = np.asarray(labels)
    t_hat = exit_times(scan["entropy"], policy)
    preds = scan["predictions"][np.arange(len(t_hat)), t_hat - 1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["sample_id", "label", "prediction", "chosen_t"]
            + [f"entropy_t{t}" for t in range(1, policy.t_max + 1)]
        )
        for i in range(len(t_hat)):
            ent = [f"{e:.6f}" for e in scan["entropy"][i, : t_hat[i]]]
            writer.writerow([i, labels[i], preds[i], t_hat[i]] + ent)
