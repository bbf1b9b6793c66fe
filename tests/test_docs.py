"""Every name and path the README documents exists, and every name the
package's own docstrings and comments refer to."""

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

# In the package's sources, a single-backtick span that is `module.attr` for
# a module of the package, a `_private` name or a `CamelCase` name, either
# optionally `.attr`; ``double`` backticks quote arguments and values.
SOURCE_NAME = re.compile(r"(?P<module>[a-z]\w*)\.\w+|(?:_\w+|[A-Z][a-z]\w*)(?:\.\w+)?")
SOURCE_NAMES = sorted({(path.name, name)
                       for path in (ROOT / "src" / "dtsnn").glob("*.py")
                       for name in re.findall(r"(?<!`)`([^`\n]+)`(?!`)", path.read_text())
                       if (m := SOURCE_NAME.fullmatch(name)) and not name.endswith(".py")
                       and (m["module"] is None or m["module"] in MODULES)})


def resolves(obj, path):
    for attr in path:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_readme_names_something_to_check():
    assert ("network", "scan_timesteps") in NAMES
    assert "configs/synth.yaml" in PATHS


@pytest.mark.parametrize("module, attr", NAMES, ids=[".".join(name) for name in NAMES])
def test_named_attribute_exists(module, attr):
    assert hasattr(importlib.import_module(f"dtsnn.{module}"), attr)


@pytest.mark.parametrize("path", PATHS)
def test_named_path_exists(path):
    assert (ROOT / path).exists()


def test_sources_name_something_to_check():
    assert ("network.py", "_step_program") in SOURCE_NAMES
    assert ("training.py", "kernels.run_row_blocks") in SOURCE_NAMES


@pytest.mark.parametrize("source, name", SOURCE_NAMES,
                         ids=[":".join(entry) for entry in SOURCE_NAMES])
def test_name_in_source_resolves(source, name):
    path = name.split(".")
    if path[0] in MODULES:  # module.attr
        assert resolves(importlib.import_module(f"dtsnn.{path[0]}"), path[1:])
    else:  # a _private or CamelCase name of some module of the package
        assert any(resolves(importlib.import_module(f"dtsnn.{module}"), path)
                   for module in MODULES)
