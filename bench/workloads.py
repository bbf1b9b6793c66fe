"""The benchmark's three workloads: set-up, one timed operation, checks.

Every workload follows the same protocol, driven by run.py:

  setup()        config parse, input generation, model load and warm-up;
  op(k)          the k-th timed operation; returns its wall time in seconds;
  finish()       correctness checks and the modelled metrics, untimed.

Operations come in rounds of `round_len`; a round is the smallest unit of
work that repeats exactly, so rounds can be compared and alternated.
All package calls go through module attributes (`exit_policy.dynamic_infer`,
not a name imported here), so the tracer sees them.
"""

import copy
import dataclasses
import hashlib
import math
from time import perf_counter

import numpy as np

import common

THETA = 0.4              # workload exit threshold; also a point of the default grid
T_MAX = 4
TEST_NOISE = 1.3         # inference inputs: mixes easy and hard samples at THETA
SWEEP_BATCH = 512        # samples per threshold_sweep call (one scan batch)
SWEEP_CHUNKS = 4         # distinct sweep inputs per round
DYNAMIC_POOL = 512       # distinct requests per round
TRAIN_BATCH = 128
TRAIN_STEPS = 4          # training calls per round, each one SGD step from the last
TRAIN_EVAL = 64          # eval split passed to every training call
TRAIN_HELDOUT = 2048     # untimed evaluation of the model a round produced
WARMUP_REQUESTS = 32

# sha256 of bench/model.ckpt as written by train_model.py.
MODEL_SHA256 = "b62be5c14513cddb201674624c4c0cbc40ccdda4f6255c2c1882f7175a313532"

# Calibration anchors of the energy model (README "Configuration file"),
# with the tolerances the package's own calibration test uses.
ANCHOR_E1 = 1.0
ANCHOR_RATIO8 = 4.9
ANCHOR_SHARES = {"digital": 0.45, "crossbar_adc": 0.25, "buffer_interconnect": 0.30}


class Workload:
    """Shared set-up and bookkeeping; subclasses define the operation."""

    round_len = 1
    samples_per_op = 1

    def __init__(self, dtsnn, seed):
        self.dtsnn = dtsnn
        self.seed = seed
        self.failures = []      # (op index, message)
        self.failed_ops = set()

    def fail(self, k, message):
        self.failures.append((k, message))
        self.failed_ops.add(k)

    def load_config(self):
        cfg = self.dtsnn.config.parse_config(common.CONFIG_PATH)
        if cfg.network.t_max != T_MAX:
            raise SystemExit(f"configs/mnist.yaml has t_max={cfg.network.t_max}, expected {T_MAX}")
        return cfg

    def stripes(self, n, seed, noise):
        return self.dtsnn.datasets.synth_dataset(
            "stripes", n, self.cfg.network.num_classes, seed=seed, noise=noise
        )

    def load_model(self):
        with open(common.MODEL_PATH, "rb") as fh:
            self.model_sha256 = hashlib.sha256(fh.read()).hexdigest()
        ckpt = self.dtsnn.checkpoint.load_checkpoint(common.MODEL_PATH)
        if ckpt.spec != self.cfg.network:
            raise SystemExit("bench/model.ckpt does not match the configs/mnist.yaml architecture")
        net = self.dtsnn.checkpoint.instance_from_checkpoint(ckpt)
        net.record_activity = True
        return net

    def global_checks(self):
        """Checks that hold for the whole run rather than one operation."""
        problems = []
        if self.model_sha256 != MODEL_SHA256:
            problems.append(f"model sha256 {self.model_sha256} != pinned {MODEL_SHA256}")
        hw = self.dtsnn.hardware
        trace = hw.load_reference_trace()
        mapping = hw.reference_mapping(trace, self.cfg.arch)
        energies, comps4 = [], dict.fromkeys(ANCHOR_SHARES, 0.0)
        for t, row in enumerate(np.asarray(trace["spikes"])[:8]):
            e, comps = hw.energy_per_timestep(mapping, row, self.cfg.arch)
            energies.append(e)
            if t < 4:
                for key in comps4:
                    comps4[key] += comps[key]
        if not math.isclose(energies[0], ANCHOR_E1, rel_tol=1e-9):
            problems.append(f"anchor: one reference timestep costs {energies[0]}, expected 1.0")
        ratio = sum(energies) / energies[0]
        if abs(ratio - ANCHOR_RATIO8) / ANCHOR_RATIO8 >= 0.05:
            problems.append(f"anchor: E(8)/E(1) = {ratio:.4f}, expected {ANCHOR_RATIO8}")
        total4 = sum(comps4.values())
        for key, share in ANCHOR_SHARES.items():
            if abs(comps4[key] / total4 - share) >= 0.03:
                problems.append(f"anchor: {key} share at T=4 is {comps4[key] / total4:.4f}, "
                                f"expected {share}")
        return problems

    def info(self):
        return {}

    def layer_names(self):
        return [f"{m.kind}{m.index}" for m in self.mapping.layers]

    def spikes_per_sample(self):
        """Mean presented spikes per sample and mapped layer, over executed steps."""
        totals = self.recorded_activity().sum(axis=1).mean(axis=0)
        return dict(zip(self.layer_names(), totals.tolist()))


class SweepWorkload(Workload):
    """`dtsnn sweep`: threshold_sweep over the default grid, priced per theta."""

    round_len = SWEEP_CHUNKS
    samples_per_op = SWEEP_BATCH

    def setup(self):
        self.cfg = self.load_config()
        ds = self.stripes(SWEEP_BATCH * SWEEP_CHUNKS, self.seed, TEST_NOISE)
        self.chunks = [
            (ds.images[i : i + SWEEP_BATCH], ds.labels[i : i + SWEEP_BATCH])
            for i in range(0, len(ds), SWEEP_BATCH)
        ]
        self.net = self.load_model()
        self.mapping = self.dtsnn.hardware.map_network(self.net.spec, self.cfg.arch)
        self.thetas = list(self.dtsnn.config.DEFAULT_THETA_GRID)
        if THETA not in self.thetas:
            raise SystemExit(f"workload theta {THETA} is not on the default grid")
        self.first = [None] * SWEEP_CHUNKS  # (rows, chosen_t, exit loss, activity)
        self._sweep(self.chunks[0])  # warm-up

    def _sweep(self, chunk):
        exit_policy, hardware = self.dtsnn.exit_policy, self.dtsnn.hardware
        cost_fn = hardware.dataset_cost_fn(self.mapping, self.cfg.arch)
        return exit_policy.threshold_sweep(
            self.net, chunk[0], chunk[1], self.thetas, T_MAX,
            cost_fn=cost_fn, batch_size=SWEEP_BATCH,
        )

    def op(self, k):
        chunk = self.chunks[k % SWEEP_CHUNKS]
        start = perf_counter()
        rows, scan = self._sweep(chunk)
        elapsed = perf_counter() - start
        self.check(k, rows, scan, chunk[1])
        return elapsed

    def check(self, k, rows, scan, labels):
        if [r["theta"] for r in rows] != self.thetas:
            self.fail(k, "sweep rows do not follow the theta grid")
            return
        for r in rows:
            if r["edp"] != r["energy"] * r["latency"]:
                self.fail(k, f"theta {r['theta']}: edp {r['edp']} != energy x latency")
        mean_ts = [r["mean_t"] for r in rows]
        if any(b > a for a, b in zip(mean_ts, mean_ts[1:])):
            self.fail(k, f"mean_t increases with theta: {mean_ts}")
        slot = k % SWEEP_CHUNKS
        if self.first[slot] is None:
            policy = self.dtsnn.exit_policy.ExitPolicy(theta=THETA, t_max=T_MAX)
            chosen = self.dtsnn.exit_policy.exit_times(scan["entropy"], policy)
            exit_logits = scan["mean_logits"][np.arange(len(chosen)), chosen - 1]
            loss = self.dtsnn.training.loss_standard(exit_logits, labels)
            self.first[slot] = (rows, chosen, loss, scan["activity"])
        elif not _rows_equal(rows, self.first[slot][0]):
            self.fail(k, f"chunk {slot} swept differently than in the first round")

    def finish(self):
        done = [f for f in self.first if f is not None]
        rows = [f[0][self.thetas.index(THETA)] for f in done]
        chosen = np.concatenate([f[1] for f in done])
        energy = float(np.mean([r["energy"] for r in rows]))
        latency = float(np.mean([r["latency"] for r in rows]))
        self.chosen_t = chosen
        return {
            "accuracy": float(np.mean([r["accuracy"] for r in rows])),
            "mean_t": float(chosen.mean()),
            "model_energy": energy,
            "model_edp": energy * latency,
            "loss": float(np.mean([f[2] for f in done])),
        }

    def info(self):
        hist = np.bincount(self.chosen_t, minlength=T_MAX + 1)[1:]
        return {"exit_histogram": hist.tolist(), "theta": THETA}

    def recorded_activity(self):
        return np.concatenate([f[3] for f in self.first if f is not None])

    def useful_steps_per_op(self):
        return float(self.chosen_t.mean()) * SWEEP_BATCH


def _rows_equal(a, b):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if ra.keys() != rb.keys():
            return False
        for key in ra:
            if not np.array_equal(ra[key], rb[key]):
                return False
    return True


class DynamicWorkload(Workload):
    """Closed loop, one client: dynamic_infer at batch 1, then its cost."""

    round_len = DYNAMIC_POOL
    samples_per_op = 1

    def setup(self):
        self.cfg = self.load_config()
        ds = self.stripes(DYNAMIC_POOL, self.seed, TEST_NOISE)
        self.images, self.labels = ds.images, ds.labels
        self.net = self.load_model()
        self.mapping = self.dtsnn.hardware.map_network(self.net.spec, self.cfg.arch)
        self.policy = self.dtsnn.exit_policy.ExitPolicy(theta=THETA, t_max=T_MAX)
        n_layers = len(self.mapping.layers)
        self.chosen_t = np.zeros(DYNAMIC_POOL, dtype=np.int64)
        self.preds = np.zeros(DYNAMIC_POOL, dtype=np.int64)
        self.energy = np.zeros(DYNAMIC_POOL)
        self.latency = np.zeros(DYNAMIC_POOL)
        self.logits = np.zeros((DYNAMIC_POOL, self.cfg.network.num_classes))
        self.activity = np.zeros((DYNAMIC_POOL, T_MAX, n_layers))
        self.seen = np.zeros(DYNAMIC_POOL, dtype=bool)
        for i in range(WARMUP_REQUESTS):
            self._request(i)

    def _request(self, i):
        trace = self.dtsnn.exit_policy.dynamic_infer(self.net, self.images[i], self.policy)
        report = self.dtsnn.hardware.cost_of_inference(
            trace.step_activity, self.mapping, self.cfg.arch
        )
        return trace, report

    def op(self, k):
        i = k % DYNAMIC_POOL
        start = perf_counter()
        trace, report = self._request(i)
        elapsed = perf_counter() - start
        if not self.seen[i]:
            self.seen[i] = True
            self.chosen_t[i] = trace.chosen_t
            self.preds[i] = trace.prediction
            self.energy[i] = report.total_energy
            self.latency[i] = report.total_latency
            self.logits[i] = trace.mean_logits
            self.activity[i, : trace.chosen_t] = np.asarray(trace.step_activity)
        elif (trace.chosen_t, trace.prediction, report.total_energy) != (
            self.chosen_t[i], self.preds[i], self.energy[i]
        ):
            self.fail(k, f"request for sample {i} differs from its first answer")
        self.last_k = k
        return elapsed

    def finish(self):
        if not self.seen.all():
            raise RuntimeError("dynamic workload ended before one full pass of the pool")
        exit_policy, hardware = self.dtsnn.exit_policy, self.dtsnn.hardware
        # Reference: one batched scan of the same samples, summarized at THETA.
        scan = exit_policy.scan_with_entropy(self.net, self.images, T_MAX, batch_size=SWEEP_BATCH)
        ref = exit_policy.summarize_policy(scan, self.labels, self.policy)
        bad = np.flatnonzero((ref.chosen_t != self.chosen_t) | (ref.predictions != self.preds))
        bad_samples = set(bad.tolist())
        for k in range(self.last_k + 1):
            if k % DYNAMIC_POOL in bad_samples:
                self.fail(k, f"sample {k % DYNAMIC_POOL}: dynamic_infer disagrees with "
                             "summarize_policy(scan_with_entropy(...))")
        self.mismatches = int(len(bad))
        energy, latency = float(self.energy.mean()), float(self.latency.mean())
        cost_fn = hardware.dataset_cost_fn(self.mapping, self.cfg.arch)
        ds_energy, ds_latency, _ = cost_fn(self.chosen_t, self.activity)
        if not (math.isclose(energy, ds_energy, rel_tol=1e-9)
                and math.isclose(latency, ds_latency, rel_tol=1e-9)):
            self.fail(self.last_k, f"mean cost_of_inference (energy {energy}, latency "
                                   f"{latency}) != dataset_cost_fn ({ds_energy}, {ds_latency})")
        return {
            "accuracy": float((self.preds == self.labels).mean()),
            "mean_t": float(self.chosen_t.mean()),
            "model_energy": energy,
            "model_edp": energy * latency,
            "loss": self.dtsnn.training.loss_standard(self.logits, self.labels),
        }

    def info(self):
        hist = np.bincount(self.chosen_t, minlength=T_MAX + 1)[1:]
        return {"exit_histogram": hist.tolist(), "theta": THETA,
                "reference_mismatches": self.mismatches}

    def recorded_activity(self):
        return self.activity

    def useful_steps_per_op(self):
        return float(self.chosen_t.mean())


class TrainWorkload(Workload):
    """training.train on one batch of B=128 per call, T_train=4, per_timestep loss.

    A round fine-tunes the fixed model for TRAIN_STEPS calls, each on its own
    batch of the hard inference distribution, starting again from the
    checkpoint weights, so every round computes the same thing.  Training
    cost does not depend on the weights; starting from a trained model keeps
    the loss and the modelled metrics of the result stable across seeds.
    """

    round_len = TRAIN_STEPS
    samples_per_op = TRAIN_BATCH

    def setup(self):
        self.cfg = self.load_config()
        self.tcfg = dataclasses.replace(
            self.cfg.train, epochs=1, batch_size=TRAIN_BATCH, loss_mode="per_timestep",
            t_train=T_MAX,
        )
        train_ds = self.stripes(TRAIN_BATCH * TRAIN_STEPS, self.seed, TEST_NOISE)
        self.batches = [
            (train_ds.images[i : i + TRAIN_BATCH], train_ds.labels[i : i + TRAIN_BATCH])
            for i in range(0, len(train_ds), TRAIN_BATCH)
        ]
        eval_ds = self.stripes(TRAIN_EVAL, self.seed + 1, TEST_NOISE)
        self.eval = (eval_ds.images, eval_ds.labels)
        heldout = self.stripes(TRAIN_HELDOUT, self.seed + 2, TEST_NOISE)
        self.heldout = (heldout.images, heldout.labels)
        self.model = self.load_model()
        self.mapping = self.dtsnn.hardware.map_network(self.cfg.network, self.cfg.arch)
        self.first_losses = [None] * TRAIN_STEPS
        self.net = None
        self.trained = None
        self.op(-1)  # warm-up: one call from the checkpoint weights

    def op(self, k):
        step = k % TRAIN_STEPS
        if step == 0 or self.net is None:
            self.net = self.model.clone_state()
            self.net.params = copy.deepcopy(self.model.params)
        batch = self.batches[step]
        start = perf_counter()
        try:
            log = self.dtsnn.training.train(
                self.net, batch[0], batch[1], self.eval[0], self.eval[1], self.tcfg
            )
        except self.dtsnn.TrainingError as exc:  # raised on a non-finite loss
            if k < 0:
                raise
            self.fail(k, f"step {step}: {exc}")
            self.net = None  # the next operation starts again from the checkpoint
            return perf_counter() - start
        elapsed = perf_counter() - start
        if k < 0:
            return elapsed
        loss = log.records[-1].train_loss
        if self.first_losses[step] is None:
            self.first_losses[step] = loss
            if step == TRAIN_STEPS - 1:
                self.trained = self.net
        elif loss != self.first_losses[step]:
            self.fail(k, f"step {step} loss {loss} differs from the first round's "
                         f"{self.first_losses[step]}")
        return elapsed

    def finish(self):
        losses = [loss for loss in self.first_losses if loss is not None]
        if self.trained is None:
            if not self.failures:
                raise RuntimeError("train workload ended before one full round")
            # Every round failed before its last step: report the checkpoint
            # model, next to the counted failures.
            self.trained = self.model
        exit_policy, hardware = self.dtsnn.exit_policy, self.dtsnn.hardware
        net = self.trained
        net.record_activity = True
        rows, _ = exit_policy.threshold_sweep(
            net, self.heldout[0], self.heldout[1], [THETA], T_MAX,
            cost_fn=hardware.dataset_cost_fn(self.mapping, self.cfg.arch),
            batch_size=SWEEP_BATCH,
        )
        row = rows[0]
        return {
            "accuracy": row["accuracy"],
            "mean_t": row["mean_t"],
            "model_energy": row["energy"],
            "model_edp": row["edp"],
            "loss": float(np.mean(losses)) if losses else math.nan,
        }

    def recorded_activity(self):
        # The training path records no activity.
        return np.zeros((1, T_MAX, len(self.mapping.layers)))

    def useful_steps_per_op(self):
        # Every step of a training call feeds the loss or the eval accuracy.
        return float((TRAIN_BATCH + TRAIN_EVAL) * T_MAX)


WORKLOADS = {
    "train": TrainWorkload,
    "sweep": SweepWorkload,
    "dynamic": DynamicWorkload,
}
