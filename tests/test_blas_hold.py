"""The scan and the training tape's forward and backward passes hold OpenBLAS
at one thread while their workers run, and give the caller's thread count
back afterwards."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import dtsnn
from dtsnn import kernels

from conftest import BENCH_CKPT

pytestmark = pytest.mark.skipif(kernels.blas_threads() is None,
                                reason="numpy is not linked against OpenBLAS")


def test_hold_nests_and_restores_on_error():
    before = kernels.blas_threads()
    with pytest.raises(RuntimeError, match="inside"):
        with kernels.one_blas_thread() as held:
            assert held and kernels.blas_threads() == 1
            with kernels.one_blas_thread():
                assert kernels.blas_threads() == 1
            assert kernels.blas_threads() == 1  # the outer hold continues
            raise RuntimeError("inside")
    assert kernels.blas_threads() == before


def test_overlapping_holds_restore_when_the_last_leaves():
    before = kernels.blas_threads()
    entered, release = threading.Event(), threading.Event()

    def other():
        with kernels.one_blas_thread():
            entered.set()
            release.wait(10)

    thread = threading.Thread(target=other)
    with kernels.one_blas_thread():
        thread.start()
        assert entered.wait(10)
    assert kernels.blas_threads() == 1  # the other thread still holds
    release.set()
    thread.join(10)
    assert kernels.blas_threads() == before


SCAN = """
import hashlib, json, sys
from dtsnn import kernels, network
from dtsnn.checkpoint import instance_from_checkpoint, load_checkpoint
from dtsnn.datasets import synth_dataset

ckpt = load_checkpoint(sys.argv[1])
net = instance_from_checkpoint(ckpt)
net.record_activity = True
ds = synth_dataset("stripes", 96, ckpt.spec.num_classes, seed=7, noise=1.3)
seen, step = set(), network.forward_timestep
network.forward_timestep = lambda net, x: seen.add(kernels.blas_threads()) or step(net, x)
before = kernels.blas_threads()
scan = network.scan_timesteps(net, ds.images, ckpt.spec.t_max)
digest = hashlib.sha256(scan["mean_logits"].tobytes() + scan["activity"].tobytes())
print(json.dumps({"before": before, "during": sorted(seen), "after": kernels.blas_threads(),
                  "digest": digest.hexdigest()}))
"""


def in_subprocess(script, blas_threads):
    """JSON printed by ``script`` run on bench/model.ckpt in a new Python
    process whose OpenBLAS starts with ``blas_threads`` threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    package_root = str(Path(dtsnn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", script, str(BENCH_CKPT)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_scan_is_independent_of_the_blas_thread_count_and_restores_it():
    # 96 bench inputs make four 27-row tiles for the mnist.yaml architecture.
    two, one = in_subprocess(SCAN, 2), in_subprocess(SCAN, 1)
    assert two["digest"] == one["digest"]
    assert two["during"] == one["during"] == [1]
    assert two["before"] == two["after"] == min(2, len(os.sched_getaffinity(0)))
    assert one["before"] == one["after"] == 1


TAPE = """
import json, sys
from dtsnn import kernels, network, training
from dtsnn.checkpoint import instance_from_checkpoint, load_checkpoint
from dtsnn.datasets import synth_dataset

ckpt = load_checkpoint(sys.argv[1])
net = instance_from_checkpoint(ckpt)
ds = synth_dataset("stripes", 16, ckpt.spec.num_classes, seed=7, noise=1.3)
seen = {}

def record(module, name):
    kernel, seen[name] = getattr(module, name), set()
    setattr(module, name,
            lambda *a, **kw: seen[name].add(kernels.blas_threads()) or kernel(*a, **kw))

record(network, "fully_connected")
record(training, "fully_connected_backward")
before = kernels.blas_threads()
step_logits, tape = training.forward_with_tape(net, ds.images, ckpt.spec.t_max)
between = kernels.blas_threads()
_, dstep = training.loss_and_grad(step_logits, ds.labels, "per_timestep")
training.backward_through_time(net, tape, dstep)
print(json.dumps({"before": before, "between": between, "after": kernels.blas_threads(),
                  **{name: sorted(threads) for name, threads in seen.items()}}))
"""


def test_tape_calls_hold_one_blas_thread_and_restore_it():
    got = in_subprocess(TAPE, 2)
    assert got["fully_connected"] == got["fully_connected_backward"] == [1]
    cores = min(2, len(os.sched_getaffinity(0)))
    assert got["before"] == got["between"] == got["after"] == cores


TRAIN = """
import hashlib, json, sys
from dtsnn import kernels, network, training
from dtsnn.checkpoint import instance_from_checkpoint, load_checkpoint
from dtsnn.datasets import synth_dataset

ckpt = load_checkpoint(sys.argv[1])
net = instance_from_checkpoint(ckpt)
ds = synth_dataset("stripes", 96, ckpt.spec.num_classes, seed=7, noise=1.3)
cfg = training.TrainConfig(epochs=1, batch_size=64, t_train=ckpt.spec.t_max, seed=3)
seen, conv = set(), network.conv2d
network.conv2d = lambda *args, **kw: seen.add(kernels.blas_threads()) or conv(*args, **kw)
before = kernels.blas_threads()
log = training.train(net, ds.images[:80], ds.labels[:80], ds.images[80:], ds.labels[80:], cfg)
digest = hashlib.sha256(b"".join(a.tobytes() for p in net.params if p for a in p.values()))
print(json.dumps({"before": before, "during": sorted(seen), "after": kernels.blas_threads(),
                  "digest": digest.hexdigest(), "log": log.csv_rows()}))
"""


def test_training_is_independent_of_the_blas_thread_count_and_restores_it():
    # Two steps of bench inputs (64 and a ragged 16), then a 16-sample eval.
    two, one = (in_subprocess(TRAIN, threads) for threads in (2, 1))
    assert two["digest"] == one["digest"]
    assert two["log"] == one["log"]
    assert two["during"] == one["during"] == [1]
    assert two["before"] == two["after"] == min(2, len(os.sched_getaffinity(0)))
    assert one["before"] == one["after"] == 1
