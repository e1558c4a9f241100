"""Exception types, the size bounds behind SizeBoundError, and the two input
decisions the engine shares: whole_numbers, the whole-number test, which hands
exact ints back as they are, and _checked_cache, the one memo, bounded by
MAX_MEMO, that checks each distinct input of a self-checking function once."""

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
    when it is not a sequence. Exact ints, which the engine passes, are
    handed back untouched in a plain tuple."""
    try:
        entries = tuple(given)
    except TypeError:
        raise error(f"{what}, got {given!r}") from None
    if {int}.issuperset(map(type, entries)):  # a bool, an IntEnum or 2.0 is coerced below
        return entries
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


def _checked_cache(build):
    """lru_cache(MAX_MEMO) for a function that checks its own arguments, so
    that each distinct input is checked once: a call the cache cannot hash,
    such as f([1]), is checked, and refused, uncached rather than failing on a
    bare TypeError. A refusal raises and is never cached. A hit is exact:
    equal inputs that hash alike (2.0 and 2, True and 1) get the same result."""
    memo = lru_cache(MAX_MEMO)(build)

    def call(*args):
        try:
            return memo(*args)
        except TypeError:  # an unhashable argument: checked below, uncached
            pass
        return build(*args)

    call.cache_info, call.cache_clear = memo.cache_info, memo.cache_clear
    return update_wrapper(call, build)
