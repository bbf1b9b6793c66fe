"""The scan holds OpenBLAS at one thread while its workers run, and gives
the caller's thread count back afterwards."""

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


def scan_in_subprocess(blas_threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    package_root = str(Path(dtsnn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", SCAN, str(BENCH_CKPT)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_scan_is_independent_of_the_blas_thread_count_and_restores_it():
    # 96 bench inputs make four 27-row tiles for the mnist.yaml architecture.
    two, one = scan_in_subprocess(2), scan_in_subprocess(1)
    assert two["digest"] == one["digest"]
    assert two["during"] == one["during"] == [1]
    assert two["before"] == two["after"] == min(2, len(os.sched_getaffinity(0)))
    assert one["before"] == one["after"] == 1
