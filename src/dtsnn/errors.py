"""Exception hierarchy shared by all dtsnn modules, and declared field ranges."""

import dataclasses
import math
import operator


class DtsnnError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(DtsnnError, ValueError):
    """Tensor dimensions do not compose; message names the offending axes."""


class StateError(DtsnnError, RuntimeError):
    """Operation called on an instance in the wrong state (e.g. past T_max)."""


class ConfigError(DtsnnError, ValueError):
    """Invalid or unknown configuration value; message quotes the invariant."""


class DataFormatError(DtsnnError, ValueError):
    """Input data does not match the expected format: a malformed file, or an
    input array holding non-finite values."""


class ChecksumError(DtsnnError, ValueError):
    """Stored checksum does not match the payload (corrupted file)."""


class VersionError(DtsnnError, ValueError):
    """Serialized container has an unsupported format version."""


class TrainingError(DtsnnError, RuntimeError):
    """Optimization diverged (non-finite loss); message names the epoch."""


_COMPARE = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"),
            "le": (operator.le, "<="), "lt": (operator.lt, "<")}


def bounded(default=dataclasses.MISSING, **bounds):
    """A dataclass field whose range `check_bounds` enforces: ``gt`` or ``ge``
    and ``lt`` or ``le`` bound a finite number (each item of a tuple), or
    ``choices`` lists the values allowed."""
    return dataclasses.field(default=default, metadata={"bounds": bounds})


def check_bounds(obj, error):
    """Raise ``error`` naming the first field of dataclass ``obj`` whose value
    is outside the range declared with `bounded`."""
    for f in dataclasses.fields(obj):
        bounds, value = f.metadata.get("bounds"), getattr(obj, f.name)
        if bounds is None or value in bounds.get("choices", ()):
            continue
        if "choices" in bounds:
            *head, last = map(repr, bounds["choices"])
            raise error(f"{f.name} must be {', '.join(head)} or {last}, got {value!r}")
        for v in value if isinstance(value, tuple) else (value,):
            if not isinstance(v, int) and not math.isfinite(v):
                raise error(f"{f.name} must be finite, got {v}")
            if not all(_COMPARE[kind][0](v, bound) for kind, bound in bounds.items()):
                (kind, b), *upper = sorted(bounds.items())  # a lower bound (g*) sorts first
                condition = (f"{b} {_COMPARE[kind][1].replace('>', '<')} {f.name} "
                             f"{_COMPARE[upper[0][0]][1]} {upper[0][1]}" if upper
                             else f"{f.name} {_COMPARE[kind][1]} {b}")
                raise error(f"{f.name} must satisfy {condition}, got {v}")
