"""Partitions viewed as Young diagrams, and the orbit-level combinatorics
built on them: transpose, row profiles, parity splits, and the coset
signature attached to a nilpotent orbit.

All values are immutable; a diagram is a weakly decreasing tuple of positive
row lengths, with () the empty diagram.
"""

from functools import cache, lru_cache
from itertools import accumulate, chain, repeat, starmap
from operator import lt, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import MAX_PARTITIONED, InvalidPartitionError, SizeBoundError, whole_numbers

Diagram = tuple[int, ...]

_NOT_WHOLE = "row lengths must be whole numbers"


def check_diagram(d: Iterable[int]) -> Diagram:
    """Validate an already-canonical diagram (weakly decreasing, positive).

    Whole numbers such as 2.0 coerce to int; any other entry (2.7, "2") is
    rejected rather than truncated. A process checks each distinct diagram
    once, up to a bounded cache. A d that is not a sequence is refused.
    """
    try:
        given = tuple(d)
    except TypeError:
        raise InvalidPartitionError(f"a diagram is a sequence of row lengths, got {d!r}") from None
    try:
        return _checked(given)
    except TypeError:  # an unhashable row: whole_numbers refuses it unless it is whole
        return _checked(whole_numbers(given, InvalidPartitionError, _NOT_WHOLE))


# Bounded so that a long-lived process fed ever new diagrams stays small. A
# hit is exact: equal tuples of ints, whole floats and bools hash alike and
# get the same all-int result. A failed check raises and is not cached.
@lru_cache(maxsize=1 << 14)
def _checked(given: tuple) -> Diagram:
    rows = whole_numbers(given, InvalidPartitionError, _NOT_WHOLE)
    # Weakly decreasing rows are positive when the last one is; min is taken
    # only on refusal, so a row below 1 is named before the order.
    if rows and (rows[-1] < 1 or any(map(lt, rows, rows[1:]))):
        if min(rows) < 1:
            raise InvalidPartitionError(f"row lengths must be positive integers: {rows}")
        raise InvalidPartitionError(f"row lengths must be weakly decreasing: {rows}")
    return rows


def transpose(d: Diagram) -> Diagram:
    """Column lengths of d, i.e. the reflected diagram: the blocks of
    transposed_blocks, shortest row first, expanded and then reversed."""
    return tuple(chain.from_iterable(starmap(repeat, transposed_blocks(*row_profile(d)))))[::-1]


@cache
def all_diagrams(n: int) -> tuple[Diagram, ...]:
    """All partitions of n, in decreasing lexicographic order, for
    0 <= n <= MAX_PARTITIONED."""
    if n < 0:
        raise InvalidPartitionError(f"cannot partition a negative total: {n}")
    if n > MAX_PARTITIONED:
        raise SizeBoundError(f"cannot list the partitions of {n}: the bound is n <= {MAX_PARTITIONED}")
    return tuple(_partitions(n, n))


def _partitions(n: int, largest: int) -> Iterator[Diagram]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


class RowProfile(NamedTuple):
    """Distinct nonzero row lengths with their multiplicities."""

    lengths: tuple[int, ...]
    mults: tuple[int, ...]


def row_profile(d: Diagram) -> RowProfile:
    """Distinct row lengths of d, strictly decreasing, with multiplicities."""
    lengths: list[int] = []
    mults: list[int] = []
    for p in d:
        if lengths and lengths[-1] == p:
            mults[-1] += 1
        else:
            lengths.append(p)
            mults.append(1)
    return RowProfile(tuple(lengths), tuple(mults))


def transposed_blocks(lengths: Sequence[int], mults: Sequence[int]) -> Iterator[tuple[int, int]]:
    """(row length, multiplicity) pairs of the transpose of the diagram with mults[i] rows
    of length lengths[i], lengths strictly decreasing, shortest row first (Macdonald I.1):
    the running totals of mults, each with the gap from its length to the next shorter
    one (or to 0) as multiplicity."""
    return zip(accumulate(mults), map(sub, lengths, (*lengths[1:], 0)))


def even_odd_split(d: Diagram) -> tuple[Diagram, Diagram]:
    """Split d into its even-length rows and its odd-length rows."""
    even = tuple(p for p in d if p % 2 == 0)
    odd = tuple(p for p in d if p % 2 == 1)
    return even, odd


def row_union(i: Diagram, j: Diagram) -> Diagram:
    """Diagram whose row multiset is the union of the rows of i and j."""
    return tuple(sorted(i + j, reverse=True))


class CosetSignature(NamedTuple):
    """Coordinate split of the weight-lattice coset attached to an orbit:
    n_h half-integral coordinates and n_0 integral ones."""

    n_h: int
    n_0: int


def coset_signature(d: Diagram) -> CosetSignature:
    """(total size of the even rows, total size of the odd rows), the sums of
    even_odd_split(d) read in one pass over d with no split built."""
    n_h = sum(x for x in d if not x % 2)
    return CosetSignature(n_h, sum(d) - n_h)


def parse_orbit(text: str) -> Diagram:
    """Parse the comma-separated row-length form, e.g. '3,1,1', in any row
    order. Anything but such a string is refused."""
    try:
        parts = [int(s) for s in text.split(",") if s.strip()]
    except (AttributeError, TypeError, ValueError) as exc:  # not a str, or a row not an int
        raise InvalidPartitionError(f"cannot parse orbit {text!r}") from exc
    if not parts:
        raise InvalidPartitionError(f"cannot parse orbit {text!r}")
    return check_diagram(sorted(parts, reverse=True))


def diagram_text(d: Diagram) -> str:
    """Plain comma-separated form, e.g. '3,1,1' (empty diagram gives '')."""
    return ",".join(str(p) for p in d)


def format_diagram(d: Diagram) -> str:
    """Bracketed row-length form used in tables, e.g. [3,1,1]."""
    return "[" + diagram_text(d) + "]"
