"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for the domain errors raised by this package."""


class InvalidPartitionError(EngineError):
    """A row-length list is not a valid partition."""


class DegreeMismatchError(EngineError):
    """Operands live over symmetric groups of different degrees."""


class ShapeMismatchError(EngineError):
    """A module operand or key disagrees with the expected factor shape."""


class UnsupportedGroupError(EngineError):
    """The requested group kind has no implemented classification."""


class OracleBoundError(EngineError):
    """A brute-force oracle was asked to exceed its configured bound."""
