"""Exception types shared across the toolkit."""


class ShoutKitError(Exception):
    """Base class for all toolkit errors."""


class FormatError(ShoutKitError):
    """A file is structurally malformed (bad header, truncated payload)."""


class UnsupportedError(ShoutKitError):
    """Input is well formed but outside the supported envelope."""


class DegenerateInputError(ShoutKitError):
    """Input is valid in type but carries no usable information."""


class NumericError(ShoutKitError):
    """A numeric invariant broke (non-finite value, diverging loss)."""


class ShapeError(ShoutKitError):
    """Array shapes do not line up for the requested operation."""


class StateError(ShoutKitError):
    """Operation called in the wrong order (e.g. backward without forward)."""


class RangeError(ShoutKitError):
    """A value falls outside its documented domain."""


class ConfigError(ShoutKitError):
    """Invalid experiment or model configuration."""


class ManifestError(ShoutKitError):
    """Corpus manifest violates its schema or invariants."""

    def __init__(self, message, row=None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class InsufficientRatingsError(ShoutKitError):
    """Fewer ratings are available than the aggregation protocol requires."""
