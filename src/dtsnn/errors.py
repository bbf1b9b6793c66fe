"""Exception hierarchy shared by all dtsnn modules."""


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
