"""Every name and path the README documents exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import dtsnn

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
MODULES = {info.name for info in pkgutil.iter_modules(dtsnn.__path__)}

# `module.attr` at the start of a code span, for the package's own modules;
# `kernels.py` and the like name files, not attributes.
NAMES = sorted({(module, attr) for module, attr in re.findall(r"`(\w+)\.(\w+)", README)
                if module in MODULES and attr != "py"})
# Repository paths; the user supplies data/mnist/.
PATHS = sorted({path.rstrip(".,") for path in re.findall(
    r"(?<![\w/.])((?:configs|demos|src|tests|data)/[\w./-]*)", README)
    if not path.startswith("data/mnist/")})


def test_readme_names_something_to_check():
    assert ("network", "scan_timesteps") in NAMES
    assert "configs/synth.yaml" in PATHS


@pytest.mark.parametrize("module, attr", NAMES, ids=[".".join(name) for name in NAMES])
def test_named_attribute_exists(module, attr):
    assert hasattr(importlib.import_module(f"dtsnn.{module}"), attr)


@pytest.mark.parametrize("path", PATHS)
def test_named_path_exists(path):
    assert (ROOT / path).exists()
