"""Exception types, the size bounds behind SizeBoundError, the bound of the
engine's memos, and the whole-number test and the memo for self-checking
functions that the engine shares."""

from functools import lru_cache, update_wrapper


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


class SizeBoundError(EngineError):
    """An input would build an object larger than the engine can hold."""


# Entries of the longest per-row list the engine builds: the c_odd list of a
# count's fillings, or the rows of a cell label. 10**6 ints take about 36 MB.
MAX_ROWS = 10**6

# The largest n whose partitions all_diagrams lists: p(50) = 204,226 of them.
MAX_PARTITIONED = 50

# Entries of each of the engine's bounded memos.
MAX_MEMO = 1 << 14


def whole_numbers(given, error: type[EngineError], what: str) -> tuple[int, ...]:
    """The entries of given as ints when all are whole numbers: 2.0 and True
    are; 2.7, "2", "x", nan, inf, None and [1] are refused, not truncated, by
    error(f"{what}, got {v!r}") for the first such v, or for given itself
    when it is not a sequence."""
    try:
        entries = tuple(given)
    except TypeError:
        raise error(f"{what}, got {given!r}") from None
    try:
        whole = tuple(map(int, entries))
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole == entries:
        return whole
    for v in entries:  # stops at the first entry that int() refuses or changes
        try:
            if not int(v) == v:
                break
        except (TypeError, ValueError, OverflowError):
            break
    raise error(f"{what}, got {v!r}")


def _checked_cache(maxsize: int | None = None):
    """lru_cache(maxsize) for a function that checks its own arguments: a call
    the cache cannot hash, such as f([1]), is checked, and refused, uncached
    rather than failing on a bare TypeError. A refusal is never cached."""

    def decorate(build):
        memo = lru_cache(maxsize)(build)

        def call(*args):
            try:
                return memo(*args)
            except TypeError:  # an unhashable argument: checked below, uncached
                pass
            return build(*args)

        call.cache_info, call.cache_clear = memo.cache_info, memo.cache_clear
        return update_wrapper(call, build)

    return decorate
