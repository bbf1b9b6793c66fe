"""Every name and path the README documents exists, and every name the
package's own docstrings and comments refer to."""

import importlib
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import dtsnn
from dtsnn import kernels, network, training
from dtsnn.config import parse_config
from dtsnn.network import (
    build_instance,
    inference_params,
    pack,
    scan_timesteps,
    step_plan,
    tape_plan,
)

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
    assert ("training.py", "kernels.run_blocks") in SOURCE_NAMES


@pytest.mark.parametrize("source, name", SOURCE_NAMES,
                         ids=[":".join(entry) for entry in SOURCE_NAMES])
def test_name_in_source_resolves(source, name):
    path = name.split(".")
    if path[0] in MODULES:  # module.attr
        assert resolves(importlib.import_module(f"dtsnn.{path[0]}"), path[1:])
    else:  # a _private or CamelCase name of some module of the package
        assert any(resolves(importlib.import_module(f"dtsnn.{module}"), path)
                   for module in MODULES)


def mnist_step_figures(batch, t_steps):
    """The MiB of a configs/mnist.yaml training step's planned arrays on two
    workers (the bench machine's), of the arena they pack into and of the
    arrays alive at the busiest layer visit."""
    net = build_instance(parse_config(ROOT / "configs" / "mnist.yaml").network, seed=0)
    plan = tape_plan(net, batch, t_steps, np.float32)
    sizes = {key: math.prod(shape) * dt.itemsize for key, (shape, dt) in plan.slots.items()}
    busiest = max(sum(size for key, size in sizes.items()
                      if plan.spans[key][0] <= visit <= plan.spans[key][1])
                  for visit in range(2 * len(net.spec.layers)))
    return [size / 2**20 for size in (sum(sizes.values()), pack(plan)[1], busiest)]


def assert_printed(printed, figures):
    """Each printed figure is its figure to the precision it is printed with."""
    for text, figure in zip(printed, figures, strict=True):
        assert text == f"{figure:.{len(text.partition('.')[2])}f}"


def test_the_workspace_figures_are_the_mnist_steps(monkeypatch):
    # The README's training-workspace figures, and those of the `train`
    # docstring: the sum of a step's planned arrays, the arena they pack
    # into and (in the README) the bytes alive at the busiest layer visit.
    monkeypatch.setattr(kernels, "_scan_workers", lambda: 2)
    text = " ".join(README.split())
    found = re.search(r"For `configs/mnist\.yaml` at B=(\d+), T=(\d+) on two workers the "
                      r"step's arrays add up to ([\d.]+) MiB but pack into a ([\d.]+) MiB "
                      r"arena: at most ([\d.]+) MiB", text)
    assert found is not None
    assert_printed(found.groups()[2:], mnist_step_figures(int(found[1]), int(found[2])))
    doc = " ".join(training.train.__doc__.split())
    found = re.search(r"\(([\d.]+) MiB where the arrays add up to ([\d.]+) MiB, for "
                      r"configs/mnist\.yaml at B=(\d+), T=(\d+) on two workers", doc)
    assert found is not None
    arrays, arena, _ = mnist_step_figures(int(found[3]), int(found[4]))
    assert_printed(found.groups()[:2], (arena, arrays))


def test_the_step_arena_figures_are_the_mnist_steps():
    # The README's inference-step figures: the arena a configs/mnist.yaml
    # step's `step_plan` packs into, on the one worker a step of at most one
    # scan tile runs its blocks on, and the sum of its planned arrays.
    text = " ".join(README.split())
    found = re.search(r"The `configs/mnist\.yaml` step at (\d+) rows in float32 \(strict, one "
                      r"worker\) packs into a ([\d,]+)-byte arena where its arrays add up to "
                      r"([\d,]+) bytes", text)
    assert found is not None
    net = build_instance(parse_config(ROOT / "configs" / "mnist.yaml").network, seed=0)
    with kernels.inline_blocks(True):
        plan = step_plan(net.spec, inference_params(net),
                         (int(found[1]), np.dtype(np.float32), False, False))
    arrays = sum(math.prod(shape) * dt.itemsize for shape, dt in plan.slots.values())
    assert found.groups()[1:] == (f"{pack(plan)[1]:,}", f"{arrays:,}")


def test_the_scan_part_figures_are_the_mnist_tiles(monkeypatch):
    # The README's figures for what a scanned instance keeps: on each of two
    # workers one part of its workspace's arena, the arena of a tile's step
    # rounded up to whole pages, and no more once a scan has run.
    monkeypatch.setattr(kernels, "_scan_workers", lambda: 2)
    text = " ".join(README.split())
    found = re.search(r"A scanned `configs/mnist\.yaml` instance in float32 on two workers "
                      r"keeps two (\d+)-row parts of ([\d,]+) bytes, the (\d+)-row step arena "
                      r"above rounded up to whole pages: ([\d,]+) bytes in all", text)
    assert found is not None
    net = build_instance(parse_config(ROOT / "configs" / "mnist.yaml").network, seed=0)
    rows = network._scan_rows(net.spec, 4, 512)
    with kernels.inline_blocks(True):
        plan = step_plan(net.spec, inference_params(net), (rows, np.dtype(np.float32), False, False))
    part = -(-pack(plan)[1] // 4096) * 4096
    assert (int(found[1]), int(found[3])) == (rows, rows)
    assert (found[2], found[4]) == (f"{part:,}", f"{2 * part:,}")
    scan_timesteps(net, np.zeros((64,) + net.spec.input_shape, np.float32), 1)
    assert net.workspace._arena.nbytes == 2 * part
