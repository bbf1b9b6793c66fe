"""Backpropagation-through-time with a triangular surrogate gradient.

The forward pass is `network.run_layers` over a time-stacked batch
(timesteps folded into the batch axis), which keeps the matrix multiplies
large and lets batch normalization pool its statistics over
(batch x timestep).  The stem -- the layers before the first LIF layer --
runs once on the B input rows and is broadcast to the T*B stacked rows at
the first LIF.  This is exact:
  - stem batch norm over T identical copies has the statistics of the B rows;
    only the unbiased running-variance factor count/(count-1) differs, so it
    keeps count = T*B*H*W (the `repeats` argument of the norm kernel);
  - in the backward pass the gradient is summed over T at the stem boundary,
    and the stem's norm and conv backward run on B rows; the norm backward
    over T copies equals the B-row formula applied to the T-summed gradient.
The walk back stops at the first layer with parameters, whose input
gradient nothing reads (the conv computes only dW there).

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

from . import kernels
from .errors import StateError, TrainingError, bounded, check_bounds
from .kernels import (
    avg_pool2d_backward,
    batch_norm_backward,
    conv2d_backward,
    fully_connected_backward,
)
# lif_unroll and spike_ramp are public here too.
from .network import (
    Workspace,
    _lif_potentials,
    _lif_scratch,
    as_images,
    as_labels,
    check_finite,
    lif_unroll,
    run_layers,
    scan_timesteps,
    spike_ramp,
    tape_plan,
)


def surrogate_grad(u, v_th, out=None):
    """Triangular stand-in derivative of the firing function, peak at u == v_th:
    max(0, v_th - |u - v_th|), written into ``out`` when it is given."""
    if out is None:
        out = np.empty_like(u, dtype=np.result_type(u, v_th))
    np.subtract(u, v_th, out=out)
    np.abs(out, out=out)
    np.subtract(v_th, out, out=out)
    return np.maximum(0.0, out, out=out)


def _log_softmax64(logits):
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def loss_standard(logits, labels):
    """Batch-mean cross entropy of the final mean output."""
    logits = np.asarray(logits)
    labels = as_labels(labels, len(logits), logits.shape[1])
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


def loss_and_grad(step_logits, labels, loss_mode):
    """Loss plus its gradient w.r.t. every per-step logit tensor.

    step_logits: (T, B, K).  Returns (loss, dstep_logits of same shape).
    """
    t_steps, batch, k = step_logits.shape
    labels = as_labels(labels, batch, k)
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
    targets = running_means(step_logits)
    losses = []
    d_targets = np.empty_like(targets)
    for t in range(t_steps):
        logp = _log_softmax64(targets[t])
        losses.append(float(-logp[np.arange(batch), labels].mean()))
        d_targets[t] = (np.exp(logp) - onehot) / (batch * t_steps)
    loss = float(np.mean(losses))
    # d logits_t' = sum_{t >= t'} (1/t) * dL/df_t  (suffix sum)
    weighted = d_targets / np.arange(1, t_steps + 1, dtype=np.float64).reshape(-1, 1, 1)
    dstep = np.cumsum(weighted[::-1], axis=0)[::-1]
    return loss, dstep.astype(step_logits.dtype)


def lif_unroll_backward(dspikes, cache, cfg, out=None, step_sum=None, take=kernels._new_array,
                        window=None):
    """Reverse-time unroll: surrogate through the firing, tau through the
    membrane recurrence, (1 - s) through the detached reset multiplier.

    ``cache`` is `network.lif_unroll`'s (kept, affine, smooth), which holds
    no spikes and no potentials.  Each block rebuilds its rows' currents
    from kept (the norm's xhat * gamma + beta for affine (gamma, beta), the
    stem's B rows once for all T steps) and recomputes their potentials
    before the reset (`network._lif_potentials`) in its worker's scratch,
    ("u_pre", k) of ``take(role, shape, dtype)`` (new arrays by default;
    `network._lif_scratch` gives the shapes).  The reset multiplier comes
    from those potentials, u_pre <= v_th under strict firing and
    1 - spike_ramp(u_pre) under smooth firing, the values 1 - s of the
    spikes the forward pass wrote.

    Each step's gradient is built in its own row of the result, ``out`` when
    it is given (which may be dspikes itself); one carry buffer holds
    tau * du[t+1] * (1 - s[t]).  Samples are independent: the batch axis of
    (T, B, ...) runs in blocks whose T steps are about `kernels.BLOCK_BYTES`
    (`kernels.run_blocks`), each through all T steps.  With ``step_sum``, a
    (B, ...) array, each block also adds its rows' gradients over the T
    steps into it, in step order as ``sum(axis=0)`` does, and step_sum is
    returned.

    With ``window``, dspikes (T, B, C, H/window, W/window) is the input
    gradient of the pool of that window after the layer, and step_sum is
    required: each block spreads its rows of it as
    `kernels.avg_pool2d_backward` does (`kernels._spread_pooled`) into its
    worker's ("dspikes", k) scratch, channels-last, and builds its
    gradients over them there, so the (T, B) gradient of the spikes is
    never whole.  `backward_through_time` runs the first LIF layer so when
    a pool follows it.
    """
    kept, affine, smooth = cache
    t_steps, batch = dspikes.shape[:2]
    shape = dspikes.shape[2:]
    if window is not None:
        if step_sum is None:
            raise ValueError("a pool's gradient spread by the LIF layer needs step_sum")
        shape = shape[:-2] + (shape[-2] * window, shape[-1] * window)
        d_dtype = np.result_type(dspikes, 1.0)
    else:
        d_currents = np.empty_like(dspikes) if out is None else out
        d_dtype = d_currents.dtype
    broadcast = kept.ndim < dspikes.ndim  # the stem's B rows
    step, shapes = _lif_scratch(t_steps, batch, shape, d_dtype.itemsize, window is not None)
    dtype = kept.dtype if affine is None else np.result_type(kept, affine[0])
    dtypes, workers = {"u_pre": dtype, "dspikes": d_dtype}, {}
    for role, flat in shapes.items():  # each worker's (u_pre, dspikes) or (u_pre,)
        workers.setdefault(role[1], []).append(take(role, flat, dtypes[role[0]]))
    scratch = list(workers.values())

    def block(i, mem):
        rows = slice(i * step, min(i * step + step, batch))
        steps = kept[:, rows] if not broadcast else \
            np.broadcast_to(kept[rows], (t_steps,) + kept[rows].shape)
        u_pre = _lif_potentials(steps, affine, cfg, smooth, mem[0])
        if window is None:
            d_spikes, d_rows = dspikes[:, rows], d_currents[:, rows]
        else:
            c, h, w = shape
            m = len(steps[0])
            spread = mem[1][: t_steps * m * c * h * w].reshape(t_steps, m, h, w, c)
            kernels._spread_pooled(dspikes[:, rows], window,
                                   spread.reshape(t_steps, m, h // window, window,
                                                  w // window, window, c))
            d_spikes = d_rows = spread.transpose(0, 1, 4, 2, 3)
        _lif_rows_backward(d_spikes, u_pre, smooth, cfg, d_rows)
        if step_sum is not None:
            total = step_sum[rows]
            total[...] = d_rows[0]
            for d in d_rows[1:]:
                total += d

    kernels._run_on_scratch(max(1, -(-batch // step)), block, scratch,
                            lambda: tuple(np.empty(a.shape, a.dtype) for a in scratch[0]))
    return d_currents if step_sum is None else step_sum


def _lif_rows_backward(dspikes, u_pre, smooth, cfg, d_currents):
    """`lif_unroll_backward` of one block of samples, into d_currents, which
    may be dspikes: step t reads dspikes[t] before it writes d_currents[t]."""
    t_steps = dspikes.shape[0]
    carry = np.empty_like(dspikes[0])
    term = np.empty_like(carry)
    for t in reversed(range(t_steps)):
        du = d_currents[t]
        if t + 1 < t_steps:
            np.multiply(d_currents[t + 1], cfg.tau, out=carry)
            if smooth:
                np.subtract(1.0, spike_ramp(u_pre[t], cfg.v_th), out=term)
            else:
                np.less_equal(u_pre[t], cfg.v_th, out=term)
            carry *= term
        surrogate_grad(u_pre[t], cfg.v_th, out=term)
        np.multiply(term, dspikes[t], out=du)
        if t + 1 < t_steps:
            du += carry


def forward_with_tape(net, x, t_steps, *, workspace=None):
    """Layer-major unrolled forward pass over t_steps stacked timesteps.

    Every LIF layer starts from rest; the instance's inference state
    (``lif_states``, ``stem``, ``t``) is neither read nor changed.  Raises
    DataFormatError when x is not an array of real numbers or holds a
    non-finite value.  BLAS is held at one thread throughout
    (`kernels.one_blas_thread`).

    Returns (step_logits (T,B,K), tape).  Normalization layers use batch
    statistics pooled over (timestep x batch), and the tape carries their
    proposed running-statistic updates; nothing is committed to the
    instance until `commit_norm_updates` is called.

    The tape's arrays, and the input gradients `backward_through_time`
    computes from it, are the planned arrays of one `network.Workspace`,
    laid out for the step first (`network.tape_plan`): a new one, or the
    ``workspace`` passed, which only `train` does (the instance's, which
    the next step overwrites, and so does a scan of the instance or of its
    clones, `network.scan_timesteps`).  Arrays whose lifetimes do not overlap share
    bytes, so the backward pass writes over the tape's arrays once their
    last reader has run: a tape can be walked back once.  Parameter
    gradients are new arrays either way.  ConfigError when the step's
    arrays cannot be allocated.
    """
    x = as_images(x)
    check_finite(x)
    ws = Workspace() if workspace is None else workspace
    ws.lay_out(tape_plan(net, x.shape[0], t_steps, x.dtype))
    tape = {"caches": [], "norm_updates": {}, "t": t_steps, "workspace": ws, "lends": ws.lends}
    with kernels.one_blas_thread():
        h = run_layers(net, x, t_steps, tape)
    return h.reshape(t_steps, x.shape[0], -1), tape


def backward_through_time(net, tape, dstep_logits):
    """Walk the tape in reverse, producing a gradient for every parameter.

    The gradient is summed over timesteps at the first LIF layer, inside
    `lif_unroll_backward`'s blocks, so the stem's backward runs on B rows.
    The walk ends at the first layer with parameters and skips its input
    gradient, which nothing reads.  The input gradients of pool, conv and
    the first LIF layer are planned arrays of the tape's workspace, keyed by
    layer index, which may lie over tape arrays whose last reader has run,
    and so is the scratch of the convolutions and of the LIF layers'
    recompute (`network.Workspace.scratch`); LIF and norm layers overwrite
    the gradient they receive, which nothing else holds.  BLAS is held at one thread throughout
    (`kernels.one_blas_thread`).

    Returns {layer_index: {param_name: gradient}} with shapes mirroring the
    parameters exactly, in new arrays.  Raises StateError for a tape walked
    back before, one whose workspace has lent its arena since the tape was
    made (`network.Workspace.lend`: a scan of an instance on it, such as
    ``net.workspace``, overwrote it), or a gradient of other timesteps or
    of another dtype than the logits.
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
    ws = tape["workspace"]
    if ws is None:
        raise StateError("the tape was walked back before: its arrays hold input gradients")
    if ws.lends != tape["lends"]:
        raise StateError("the tape's workspace was lent to a scan since the tape was made: "
                         "its arrays hold the scan's")
    if dstep_logits.dtype != ws.plan.logits:
        raise StateError(f"gradient of dtype {dstep_logits.dtype} for logits of "
                         f"dtype {ws.plan.logits}")
    tape["workspace"] = None  # the walk writes input gradients over its arrays
    s = spec.first_lif
    first_param = next(i for i, p in enumerate(net.params) if p is not None)
    g = dstep_logits.reshape(t_steps * batch, k)
    grads, window = {}, None  # window: that of the pool whose gradient the first LIF spreads
    with kernels.one_blas_thread():
        for i in reversed(range(first_param, len(spec.layers))):
            layer = spec.layers[i]
            cache = caches[i]
            if layer.kind in ("fc", "classifier"):
                _, flat_in, orig_shape = cache
                dx, dw, db = fully_connected_backward(g, flat_in, net.params[i]["w"])
                grads[i] = {"w": dw, "b": db}
                g = dx.reshape(orig_shape)
            elif layer.kind == "pool" and i - 1 == s:
                window = cache[1]  # the first LIF layer's blocks spread g
            elif layer.kind == "pool":
                g = avg_pool2d_backward(g, cache[1], out=ws.planned((i, "dx")))
            elif layer.kind == "lif":
                _, cfg, lif_cache = cache
                gs = g.reshape((t_steps, batch) + g.shape[1:])
                take = ws.scratch(2 * len(spec.layers) - 1 - i)
                if i == s:
                    g = lif_unroll_backward(gs, lif_cache, cfg, out=gs, take=take, window=window,
                                            step_sum=ws.planned((i, "dx"),
                                                                None if window else gs[0]))
                else:
                    g = lif_unroll_backward(gs, lif_cache, cfg, out=gs, take=take).reshape(g.shape)
            elif layer.kind == "norm":
                xhat, _, gamma, _ = cache[1]
                in_place = g.dtype == np.result_type(g, xhat, gamma)
                dx, dgamma, dbeta = batch_norm_backward(
                    g, cache[1], out=g if in_place else None,
                    take=ws.scratch(2 * len(spec.layers) - 1 - i))
                grads[i] = {"gamma": dgamma, "beta": dbeta}
                g = dx
            elif layer.kind == "conv":
                _, p, x_in, pooled = cache
                entry = {"w": None}
                if "b" in net.params[i]:
                    entry["b"] = g.sum(axis=(0, 2, 3))
                need_dx = i > first_param
                out = ws.planned((i, "dx")) if need_dx else None
                dx, dw = conv2d_backward(g, x_in, net.params[i]["w"], p, need_dx=need_dx, out=out,
                                         take=ws.scratch(2 * len(spec.layers) - 1 - i),
                                         pooled=pooled)
                entry["w"] = dw
                grads[i] = entry
                g = dx
    return grads


def commit_norm_updates(net, tape):
    """Adopt the running statistics proposed by a training forward pass."""
    for i, new_params in tape["norm_updates"].items():
        net.params[i] = new_params


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule settings for one training run."""

    epochs: int = bounded(ge=1)
    batch_size: int = bounded(128, ge=1)
    lr0: float = bounded(0.1, gt=0)
    weight_decay: float = bounded(5e-4, ge=0)
    momentum: float = bounded(0.9, ge=0, lt=1)
    loss_mode: str = bounded("per_timestep", choices=("standard", "per_timestep"))
    seed: int = bounded(0, ge=0)
    t_train: int = bounded(4, ge=1)

    def __post_init__(self):
        check_bounds(self, ValueError)


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
    """Accuracy of the running-mean prediction after each timestep.

    ``labels`` must hold one class index per image (`network.as_labels`).
    Runs `scan_timesteps`, whose cache-sized tiles ``batch_size`` only caps
    and which rejects an empty batch, with ``net.record_activity`` off: only
    the predictions are read.  The flag is restored afterwards.
    """
    images = as_images(images)
    labels = as_labels(labels, len(images), net.spec.num_classes)
    record = net.record_activity
    net.record_activity = False
    try:
        scan = scan_timesteps(net, images, t_steps, batch_size=batch_size)
    finally:
        net.record_activity = record
    preds = scan["mean_logits"].argmax(axis=2)  # (N, T)
    return (preds == labels.reshape(-1, 1)).mean(axis=0)


def sgd_step(net, grads, velocities, lr, momentum, weight_decay):
    """SGD with momentum; L2 decay applied to weight matrices only."""
    for i, layer_grads in grads.items():
        p = net.params[i]
        for name, g in layer_grads.items():
            if name == "w" and weight_decay:
                g = g + weight_decay * p[name]
            key = (i, name)
            v = velocities.get(key)
            v = g if v is None else momentum * v + g
            velocities[key] = v
            p[name] = p[name] - (lr * v).astype(p[name].dtype)


def _check_params_finite(net, epoch):
    """Raise TrainingError naming the first parameter array (weights or
    running statistics) that holds a non-finite value."""
    for i, p in enumerate(net.params):
        for name, a in (p or {}).items():
            if not np.isfinite(a).all():
                raise TrainingError(
                    f"parameter {name!r} of layer {i} became non-finite at "
                    f"epoch {epoch} (training diverged)"
                )


def train(net, train_images, train_labels, eval_images, eval_labels, cfg,
          progress=None):
    """SGD with momentum, L2 decay and a cosine-annealed learning rate.

    Returns a TrainingLog with one record per epoch: train loss, the
    learning rate used, eval accuracy at every timestep 1..t_train, and a
    hash of the epoch's batch order (so paired runs can prove they saw the
    same data).  Raises ValueError for an empty training or evaluation split,
    before the first epoch, and TrainingError when a step's loss or any
    parameter after it is non-finite.

    A step's forward and backward pass each hold the loaded OpenBLAS at one
    thread (`kernels.one_blas_thread`): their row-independent kernels split
    their rows into blocks across the workers of `kernels.run_blocks`, and
    no BLAS thread spins between them.  The result is bit-identical for any
    worker count.

    The call holds the instance's `network.Workspace`, shared with its
    clones, and every step's tape and input gradients reuse its arena,
    laid out by lifetime: arrays never alive at the same layer visit share
    bytes, so the arena is about the largest set of a step's arrays alive
    at once (27.0 MiB where the arrays add up to 98.5 MiB, for
    configs/mnist.yaml at B=128, T=4 on two workers, each worker's kernel
    scratch included: no LIF layer keeps its spikes, currents or
    potentials; one after a norm rebuilds its currents from the norm's
    xhat; a pool before a conv keeps byte window sums, not float means;
    the first LIF layer spreads its pool's gradient in its own blocks).
    Steps after the first allocate none of them (a smaller last batch
    takes a prefix), and neither does the eval of each epoch: its scan
    takes the workspace again on this thread and runs its tiles on parts
    of the arena (`network.scan_timesteps`), which the next step's tape
    writes over.  A call that finds the workspace held by another thread
    (a call on a clone) runs each step, and each eval, on a new arena.
    Raises DataFormatError when a split is not an array of real numbers,
    and ConfigError when a step's arena cannot be allocated.
    """
    if cfg.t_train > net.spec.t_max:
        raise ValueError(
            f"t_train={cfg.t_train} exceeds the network's t_max={net.spec.t_max}"
        )
    train_images, eval_images = as_images(train_images), as_images(eval_images)
    for split, images in (("training", train_images), ("evaluation", eval_images)):
        if len(images) == 0:
            raise ValueError(f"train requires a non-empty {split} split")
    k = net.spec.num_classes
    train_labels = as_labels(train_labels, len(train_images), k)
    eval_labels = as_labels(eval_labels, len(eval_images), k)
    rng = np.random.default_rng(cfg.seed)
    n = len(train_images)
    velocities = {}
    log = TrainingLog()
    with net.workspace.take() as workspace:
        for epoch in range(cfg.epochs):
            lr = float(cosine_lr(cfg.lr0, epoch, cfg.epochs))
            perm = rng.permutation(n)
            batch_hash = hashlib.sha1(perm.tobytes()).hexdigest()[:12]
            losses = []
            for start in range(0, n, cfg.batch_size):
                idx = perm[start : start + cfg.batch_size]
                xb = train_images[idx]
                yb = train_labels[idx]
                step_logits, tape = forward_with_tape(net, xb, cfg.t_train, workspace=workspace)
                loss, dstep = loss_and_grad(step_logits, yb, cfg.loss_mode)
                if not np.isfinite(loss):
                    raise TrainingError(f"non-finite loss at epoch {epoch}")
                grads = backward_through_time(net, tape, dstep)
                commit_norm_updates(net, tape)
                sgd_step(net, grads, velocities, lr, cfg.momentum, cfg.weight_decay)
                _check_params_finite(net, epoch)
                losses.append(loss)
            acc = evaluate_per_timestep(net, eval_images, eval_labels, cfg.t_train)
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
