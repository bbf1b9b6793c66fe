"""Backpropagation-through-time with a triangular surrogate gradient.

Training unrolls the network layer by layer over a time-stacked batch
(timesteps folded into the batch axis), which keeps the matrix multiplies
large and lets batch normalization pool its statistics over
(batch x timestep).  Under direct encoding the stem -- the layers before the
first LIF layer (`network.first_lif`) -- sees the same input at every
timestep, so it runs once on the B input rows and its output is broadcast to
the T*B stacked rows at the first LIF.  This is exact:
  - stem batch norm over T identical copies has the statistics of the B rows;
    only the unbiased running-variance factor count/(count-1) differs, so it
    keeps count = T*B*H*W (the `repeats` argument of the norm kernel);
  - in the backward pass the gradient is summed over T at the stem boundary,
    and the stem's norm and conv backward run on B rows; the norm backward
    over T copies equals the B-row formula applied to the T-summed gradient.
The walk back stops at the first layer with parameters, whose input
gradient nothing reads (the conv computes only dW there).  LIF layers unroll
the time axis internally, caching pre-reset membrane potentials for the
backward pass.

Gradient conventions:
  - the spike nonlinearity uses max(0, v_th - |u - v_th|) in place of its
    zero-almost-everywhere derivative;
  - the hard-reset multiplier (1 - s) passes gradient through the membrane
    path but is treated as constant w.r.t. the spike itself;
  - temporal credit flows through the tau * u recurrence.

Two loss functions are provided: cross-entropy on the T-step mean output,
and the mean of cross-entropies applied to every running-mean output
f_t = (1/t) * sum_{t'<=t} logits_t'.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import StateError, TrainingError
from .kernels import (
    avg_pool2d,
    avg_pool2d_backward,
    batch_norm,
    batch_norm_backward,
    batch_norm_train_cached,
    conv2d,
    conv2d_backward,
    fully_connected,
    fully_connected_backward,
)
from .network import check_finite, first_lif, scan_timesteps


def surrogate_grad(u, v_th):
    """Triangular stand-in derivative of the firing function, peak at u == v_th."""
    return np.maximum(0.0, v_th - np.abs(u - v_th))


def spike_ramp(u, v_th):
    """C1 antiderivative of surrogate_grad, used as a smooth firing function
    in gradient-check mode: ramps from 0 (u <= 0) to v_th**2 (u >= 2*v_th)."""
    a = np.clip(u, 0.0, v_th)
    b = np.clip(u - v_th, 0.0, v_th)
    return 0.5 * a * a + b * v_th - 0.5 * b * b


def _log_softmax64(logits):
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _check_labels(labels, k):
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(
            f"labels must lie in [0, {k}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    return labels


def loss_standard(logits, labels):
    """Batch-mean cross entropy of the final mean output."""
    logits = np.asarray(logits)
    labels = _check_labels(labels, logits.shape[1])
    logp = _log_softmax64(logits)
    return float(-logp[np.arange(len(labels)), labels].mean())


def loss_per_timestep(step_mean_logits, labels):
    """Mean over timesteps of the cross entropy on each running-mean output."""
    if len(step_mean_logits) == 0:
        raise ValueError("loss_per_timestep requires at least one timestep output")
    return float(np.mean([loss_standard(f, labels) for f in step_mean_logits]))


def running_means(step_logits):
    """f_t = (1/t) * sum_{t'<=t} logits_t' for step_logits of shape (T,B,K)."""
    t = step_logits.shape[0]
    cums = np.cumsum(step_logits.astype(np.float64), axis=0)
    return cums / np.arange(1, t + 1, dtype=np.float64).reshape(-1, 1, 1)


def loss_and_grad(step_logits, labels, loss_mode, per_timestep_target="running_mean"):
    """Loss plus its gradient w.r.t. every per-step logit tensor.

    step_logits: (T, B, K).  Returns (loss, dstep_logits of same shape).
    """
    t_steps, batch, k = step_logits.shape
    labels = _check_labels(labels, k)
    onehot = np.zeros((batch, k), dtype=np.float64)
    onehot[np.arange(batch), labels] = 1.0
    if loss_mode == "standard":
        f_final = running_means(step_logits)[-1]
        loss = loss_standard(f_final, labels)
        d_final = (np.exp(_log_softmax64(f_final)) - onehot) / batch
        dstep = np.broadcast_to(d_final / t_steps, step_logits.shape).astype(
            step_logits.dtype
        )
        return loss, np.ascontiguousarray(dstep)
    if loss_mode != "per_timestep":
        raise ValueError(f"loss_mode must be 'standard' or 'per_timestep', got {loss_mode!r}")
    if per_timestep_target == "running_mean":
        targets = running_means(step_logits)
    elif per_timestep_target == "step_logits":
        targets = step_logits.astype(np.float64)
    else:
        raise ValueError(f"unknown per_timestep_target {per_timestep_target!r}")
    losses = []
    d_targets = np.empty_like(targets)
    for t in range(t_steps):
        logp = _log_softmax64(targets[t])
        losses.append(float(-logp[np.arange(batch), labels].mean()))
        d_targets[t] = (np.exp(logp) - onehot) / (batch * t_steps)
    loss = float(np.mean(losses))
    if per_timestep_target == "step_logits":
        return loss, d_targets.astype(step_logits.dtype)
    # d logits_t' = sum_{t >= t'} (1/t) * dL/df_t  (suffix sum)
    weighted = d_targets / np.arange(1, t_steps + 1, dtype=np.float64).reshape(-1, 1, 1)
    dstep = np.cumsum(weighted[::-1], axis=0)[::-1]
    return loss, dstep.astype(step_logits.dtype)


def _empty_steps(like, t_steps):
    """Uninitialized (t_steps,) + like.shape array, timestep-major, whose
    every step has the memory order of ``like``.

    Conv outputs are channels-last in memory, and the pool and conv kernels
    downstream run markedly faster on that order than on NCHW.  (empty_like
    would put a broadcast time axis innermost.)
    """
    order = np.argsort(like.strides, kind="stable")[::-1]
    buf = np.empty((t_steps,) + tuple(np.take(like.shape, order)), dtype=like.dtype)
    return buf.transpose((0,) + tuple(1 + np.argsort(order)))


def lif_unroll(currents, cfg, smooth=False):
    """Forward a (T, B, ...) current tensor through one LIF layer.

    Returns (spikes, cache) where cache holds the pre-reset potentials and
    the emitted spikes, both needed for the backward unroll.
    """
    t_steps = currents.shape[0]
    u = np.zeros_like(currents[0])
    u_pre = _empty_steps(currents[0], t_steps)
    spikes = _empty_steps(currents[0], t_steps)
    for t in range(t_steps):
        u = cfg.tau * u + currents[t]
        u_pre[t] = u
        s = spike_ramp(u, cfg.v_th) if smooth else (u > cfg.v_th).astype(u.dtype)
        spikes[t] = s
        u = u * (1.0 - s)
    return spikes, (u_pre, spikes)


def lif_unroll_backward(dspikes, cache, cfg):
    """Reverse-time unroll: surrogate through the firing, tau through the
    membrane recurrence, (1 - s) through the detached reset multiplier."""
    u_pre, spikes = cache
    t_steps = dspikes.shape[0]
    d_currents = np.empty_like(dspikes)
    du_post = np.zeros_like(dspikes[0])
    for t in reversed(range(t_steps)):
        du_pre = dspikes[t] * surrogate_grad(u_pre[t], cfg.v_th) + du_post * (
            1.0 - spikes[t]
        )
        d_currents[t] = du_pre
        du_post = cfg.tau * du_pre
    return d_currents


def forward_with_tape(net, x, t_steps, train_mode=True):
    """Layer-major unrolled forward pass over stacked timesteps.

    The stem (layers before the first LIF) runs on the B input rows; the
    first LIF layer receives its output broadcast over T, and every later
    layer runs on T*B rows, timestep-major.  Raises DataFormatError when x
    holds a non-finite value.

    Returns (step_logits (T,B,K), tape).  In train mode, normalization layers
    use batch statistics pooled over (timestep x batch) -- over the B rows in
    the stem, with the running-variance count of T*B rows -- and the tape
    carries their proposed running-statistic updates; nothing is committed to
    the instance until `commit_norm_updates` is called.
    """
    spec = net.spec
    batch = x.shape[0]
    check_finite(x)
    s = first_lif(spec)
    h = x
    caches = []
    norm_updates = {}
    for i, layer in enumerate(spec.layers):
        if layer.kind == "conv":
            p = spec.conv_params(layer, h.shape[1])
            cols_list = []
            y = conv2d(h, net.params[i]["w"], p, cols_out=cols_list)
            if "b" in net.params[i]:
                y = y + net.params[i]["b"].reshape(1, -1, 1, 1)
            caches.append(("conv", p, h, cols_list[0]))
            h = y
        elif layer.kind == "norm":
            if train_mode:
                repeats = t_steps if i < s else 1
                h, new_state, cache = batch_norm_train_cached(h, net.params[i], repeats)
                norm_updates[i] = new_state
                caches.append(("norm", cache))
            else:
                h, _ = batch_norm(h, net.params[i], "eval")
                caches.append(("norm", None))
        elif layer.kind == "lif":
            cfg = spec.lif_config_for(layer)
            if i == s:
                currents = np.broadcast_to(h, (t_steps,) + h.shape)
            else:
                currents = h.reshape((t_steps, batch) + h.shape[1:])
            spikes, cache = lif_unroll(currents, cfg, smooth=net.smooth_spikes)
            caches.append(("lif", cfg, cache))
            h = spikes.reshape((t_steps * batch,) + spikes.shape[2:])
        elif layer.kind == "pool":
            caches.append(("pool", layer.window))
            h = avg_pool2d(h, layer.window)
        elif layer.kind in ("fc", "classifier"):
            flat = h.reshape(h.shape[0], -1)
            caches.append((layer.kind, flat, h.shape))
            h = fully_connected(flat, net.params[i]["w"], net.params[i]["b"])
    step_logits = h.reshape(t_steps, batch, -1)
    return step_logits, {"caches": caches, "norm_updates": norm_updates, "t": t_steps}


def backward_through_time(net, tape, dstep_logits):
    """Walk the tape in reverse, producing a gradient for every parameter.

    The gradient is summed over timesteps at the first LIF layer, so the
    stem's backward runs on B rows.  The walk ends at the first layer with
    parameters and skips its input gradient, which nothing reads.

    Returns {layer_index: {param_name: gradient}} with shapes mirroring the
    parameters exactly.
    """
    spec = net.spec
    caches = tape["caches"]
    if len(caches) != len(spec.layers):
        raise StateError("tape does not match the network (was forward_with_tape run?)")
    t_steps, batch, k = dstep_logits.shape
    if t_steps != tape["t"]:
        raise StateError(
            f"tape recorded {tape['t']} timesteps but gradient has {t_steps}"
        )
    s = first_lif(spec)
    first_param = next(i for i, p in enumerate(net.params) if p is not None)
    g = dstep_logits.reshape(t_steps * batch, k)
    grads = {}
    for i in reversed(range(first_param, len(spec.layers))):
        layer = spec.layers[i]
        cache = caches[i]
        if layer.kind in ("fc", "classifier"):
            _, flat_in, orig_shape = cache
            dx, dw, db = fully_connected_backward(g, flat_in, net.params[i]["w"])
            grads[i] = {"w": dw, "b": db}
            g = dx.reshape(orig_shape)
        elif layer.kind == "pool":
            g = avg_pool2d_backward(g, cache[1])
        elif layer.kind == "lif":
            _, cfg, lif_cache = cache
            gs = g.reshape((t_steps, batch) + g.shape[1:])
            g = lif_unroll_backward(gs, lif_cache, cfg)
            g = g.sum(axis=0) if i == s else g.reshape((t_steps * batch,) + g.shape[2:])
        elif layer.kind == "norm":
            if cache[1] is None:
                raise StateError("cannot backprop through an eval-mode tape")
            dx, dgamma, dbeta = batch_norm_backward(g, cache[1])
            grads[i] = {"gamma": dgamma, "beta": dbeta}
            g = dx
        elif layer.kind == "conv":
            _, p, x_in, cols = cache
            entry = {"w": None}
            if "b" in net.params[i]:
                entry["b"] = g.sum(axis=(0, 2, 3))
            dx, dw = conv2d_backward(
                g, x_in, net.params[i]["w"], p, cols=cols, need_dx=i > first_param
            )
            entry["w"] = dw
            grads[i] = entry
            g = dx
    return grads


def commit_norm_updates(net, tape):
    """Adopt the running statistics proposed by a training forward pass."""
    for i, new_state in tape["norm_updates"].items():
        net.params[i] = new_state


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule settings for one training run."""

    epochs: int
    batch_size: int = 128
    lr0: float = 0.1
    weight_decay: float = 5e-4
    momentum: float = 0.9
    loss_mode: str = "per_timestep"
    per_timestep_target: str = "running_mean"
    seed: int = 0
    t_train: int = 4
    eval_batch: int = 512

    def __post_init__(self):
        if self.lr0 <= 0:
            raise ValueError(f"lr0 must satisfy lr0 > 0, got {self.lr0}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must satisfy weight_decay >= 0, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must satisfy batch_size >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must satisfy epochs >= 1, got {self.epochs}")
        if self.t_train < 1:
            raise ValueError(f"t_train must satisfy t_train >= 1, got {self.t_train}")
        if self.loss_mode not in ("standard", "per_timestep"):
            raise ValueError(f"loss_mode must be 'standard' or 'per_timestep', got {self.loss_mode!r}")
        if self.per_timestep_target not in ("running_mean", "step_logits"):
            raise ValueError(
                f"per_timestep_target must be 'running_mean' or 'step_logits', "
                f"got {self.per_timestep_target!r}"
            )


def cosine_lr(lr0, epoch, total_epochs):
    """lr0 * 0.5 * (1 + cos(pi * epoch / total_epochs))."""
    return lr0 * 0.5 * (1.0 + np.cos(np.pi * epoch / total_epochs))


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    eval_acc: tuple  # accuracy at t = 1..t_train
    batch_hash: str


@dataclass
class TrainingLog:
    records: list = field(default_factory=list)

    def csv_rows(self):
        t_train = len(self.records[0].eval_acc) if self.records else 0
        header = ["epoch", "lr", "train_loss"] + [
            f"eval_acc_t{t}" for t in range(1, t_train + 1)
        ] + ["batch_hash"]
        rows = [header]
        for r in self.records:
            rows.append(
                [r.epoch, f"{r.lr:.8f}", f"{r.train_loss:.6f}"]
                + [f"{a:.6f}" for a in r.eval_acc]
                + [r.batch_hash]
            )
        return rows


def evaluate_per_timestep(net, images, labels, t_steps, batch_size=512):
    """Accuracy of the running-mean prediction after each timestep."""
    scan = scan_timesteps(net, images, t_steps, batch_size=batch_size)
    preds = scan["mean_logits"].argmax(axis=2)  # (N, T)
    return (preds == np.asarray(labels).reshape(-1, 1)).mean(axis=0)


def sgd_step(net, grads, velocities, lr, momentum, weight_decay):
    """SGD with momentum; L2 decay applied to weight matrices only."""
    for i, layer_grads in grads.items():
        for name, g in layer_grads.items():
            if name == "w" and weight_decay:
                g = g + weight_decay * _get_param(net, i, name)
            key = (i, name)
            v = velocities.get(key)
            v = g if v is None else momentum * v + g
            velocities[key] = v
            _set_param(net, i, name, _get_param(net, i, name) - (lr * v).astype(
                _get_param(net, i, name).dtype))


def _get_param(net, i, name):
    p = net.params[i]
    if isinstance(p, dict):
        return p[name]
    return getattr(p, name)  # BatchNormState


def _set_param(net, i, name, value):
    p = net.params[i]
    if isinstance(p, dict):
        p[name] = value
    else:
        from dataclasses import replace

        net.params[i] = replace(p, **{name: value})


def train(net, train_images, train_labels, eval_images, eval_labels, cfg,
          progress=None):
    """SGD with momentum, L2 decay and a cosine-annealed learning rate.

    Returns a TrainingLog with one record per epoch: train loss, the
    learning rate used, eval accuracy at every timestep 1..t_train, and a
    hash of the epoch's batch order (so paired runs can prove they saw the
    same data).
    """
    if cfg.t_train > net.spec.t_max:
        raise ValueError(
            f"t_train={cfg.t_train} exceeds the network's t_max={net.spec.t_max}"
        )
    rng = np.random.default_rng(cfg.seed)
    n = len(train_images)
    velocities = {}
    log = TrainingLog()
    for epoch in range(cfg.epochs):
        lr = float(cosine_lr(cfg.lr0, epoch, cfg.epochs))
        perm = rng.permutation(n)
        batch_hash = hashlib.sha1(perm.tobytes()).hexdigest()[:12]
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            xb = train_images[idx]
            yb = train_labels[idx]
            step_logits, tape = forward_with_tape(net, xb, cfg.t_train)
            loss, dstep = loss_and_grad(
                step_logits, yb, cfg.loss_mode, cfg.per_timestep_target
            )
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            grads = backward_through_time(net, tape, dstep)
            commit_norm_updates(net, tape)
            sgd_step(net, grads, velocities, lr, cfg.momentum, cfg.weight_decay)
            losses.append(loss)
        acc = evaluate_per_timestep(
            net, eval_images, eval_labels, cfg.t_train, cfg.eval_batch
        )
        record = EpochRecord(
            epoch=epoch,
            lr=lr,
            train_loss=float(np.mean(losses)),
            eval_acc=tuple(float(a) for a in acc),
            batch_hash=batch_hash,
        )
        log.records.append(record)
        if progress is not None:
            progress(record)
    return log
