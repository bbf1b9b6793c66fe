"""Process set-up shared by the benchmark scripts.

Nothing here imports numpy: the BLAS thread count has to be fixed in the
environment before numpy (and with it OpenBLAS) is loaded.
"""

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
CONFIG_PATH = REPO_ROOT / "configs" / "mnist.yaml"
MODEL_PATH = BENCH_DIR / "model.ckpt"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads(limit=None):
    """Cap the BLAS thread count at the number of usable cores (and `limit`).

    A value already set in the environment is kept when it is smaller.
    Returns (nproc, threads).
    """
    if "numpy" in sys.modules:
        raise RuntimeError("pin_blas_threads must run before numpy is imported")
    nproc = len(os.sched_getaffinity(0))
    threads = min(nproc, limit or nproc)
    for var in BLAS_THREAD_VARS:
        try:
            threads = min(threads, max(1, int(os.environ[var])))
        except (KeyError, ValueError):
            pass
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return nproc, threads


def import_dtsnn():
    """Import the package from this checkout's src/ directory, never another copy."""
    if not (SRC_DIR / "dtsnn" / "__init__.py").is_file():
        raise SystemExit(f"dtsnn sources not found under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    import dtsnn

    if Path(dtsnn.__file__).resolve().parent != (SRC_DIR / "dtsnn").resolve():
        raise SystemExit(f"imported dtsnn from {dtsnn.__file__}, expected {SRC_DIR}")
    return dtsnn
