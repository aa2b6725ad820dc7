"""Exception types shared across the package."""


class MmtlabError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(MmtlabError, ValueError):
    """Array shapes do not satisfy an operation's contract."""


class ConfigError(MmtlabError, ValueError):
    """A configuration value violates its invariants."""


class SchemaError(ConfigError):
    """A config file does not match the documented schema."""

    def __init__(self, message, offending_keys=()):
        super().__init__(message)
        self.offending_keys = tuple(offending_keys)


class DataError(MmtlabError, ValueError):
    """A data record is inconsistent (e.g. out-of-range label)."""


class CheckpointError(MmtlabError, ValueError):
    """A checkpoint file is unreadable or incompatible with the config."""
