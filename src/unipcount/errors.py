"""Exception types and the whole-number test shared across the engine."""


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


def whole_numbers(given: tuple) -> tuple[int, ...] | None:
    """The entries of given as ints, or None unless every one is a whole
    number: 2.0 and True are, while 2.7, "2", "x", nan, inf and None are
    not, so a caller refuses them rather than truncating them."""
    try:
        whole = tuple(map(int, given))
    except (TypeError, ValueError, OverflowError):
        return None
    return whole if whole == given else None
