"""Every demo runs to completion against the installed package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dtsnn

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", [
    "01_lif_dynamics.py", "02_entropy_exit.py", "03_hardware_model.py", "04_full_pipeline.py",
])
def test_instant_demo_exits_zero(script):
    env = dict(os.environ)
    package_root = str(Path(dtsnn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
