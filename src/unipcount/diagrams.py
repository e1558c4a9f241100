"""Partitions viewed as Young diagrams, and the orbit-level combinatorics
built on them: transpose, row profiles and the parity halves of an orbit,
and the coset signature attached to a nilpotent orbit.

All values are immutable; a diagram is a weakly decreasing tuple of positive
row lengths, with () the empty diagram.
"""

from itertools import accumulate, chain, groupby, repeat, starmap
from operator import countOf, lt, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import MAX_PARTITIONED, InvalidPartitionError, SizeBoundError, _checked_cache, whole_numbers

Diagram = tuple[int, ...]

_NOT_WHOLE = "row lengths must be whole numbers"


def check_diagram(d: Iterable[int]) -> Diagram:
    """Validate an already-canonical diagram (weakly decreasing, positive).

    Whole numbers such as 2.0 coerce to int; any other entry (2.7, "2") is
    rejected rather than truncated. A process checks each distinct diagram
    once, through errors._checked_cache. A d that is not a sequence is refused.
    """
    try:
        given = tuple(d)
    except TypeError:
        raise InvalidPartitionError(f"a diagram is a sequence of row lengths, got {d!r}") from None
    return _checked(given)


@_checked_cache
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
    """Column lengths of d, i.e. the reflected diagram."""
    return transposed_rows(*row_profile(d))


@_checked_cache
def all_diagrams(n: int) -> tuple[Diagram, ...]:
    """All partitions of n, in decreasing lexicographic order, for whole
    0 <= n <= MAX_PARTITIONED; 4.0 coerces to 4, as in character_table."""
    (n,) = whole_numbers((n,), InvalidPartitionError, "cannot partition a total that is not a whole number")
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
    """Distinct row lengths of d, strictly decreasing, with multiplicities counted run by run in C."""
    lengths: list[int] = []
    mults: list[int] = []
    for length, run in groupby(d):
        lengths.append(length)
        mults.append(countOf(run, length))
    return tuple.__new__(RowProfile, (tuple(lengths), tuple(mults)))


def transposed_blocks(lengths: Sequence[int], mults: Sequence[int]) -> Iterator[tuple[int, int]]:
    """(row length, multiplicity) pairs of the transpose of the diagram with mults[i] rows
    of length lengths[i], lengths strictly decreasing, shortest row first (Macdonald I.1):
    the running totals of mults, each with the gap from its length to the next shorter
    one (or to 0) as multiplicity."""
    return zip(accumulate(mults), map(sub, lengths, (*lengths[1:], 0)))


def transposed_rows(lengths: Sequence[int], mults: Sequence[int]) -> Diagram:
    """The transpose of the diagram with mults[i] rows of length lengths[i]: the blocks
    of transposed_blocks, shortest row first, expanded and then reversed."""
    return tuple(chain.from_iterable(starmap(repeat, transposed_blocks(lengths, mults))))[::-1]


def parity_halves(d: Diagram) -> tuple[tuple[list[int], list[int]], tuple[list[int], list[int]], list[bool]]:
    """The row profile of d filed by parity run by run, with no RowProfile built: (lengths, mults,
    odd_mult), each indexed by row parity i (0 even, 1 odd), where lengths[i] and mults[i] profile
    the rows of parity i and odd_mult[i] is whether one of those multiplicities is odd."""
    lengths, mults, odd_mult = ([], []), ([], []), [False, False]
    for length, run in groupby(d):
        half = length % 2
        m = countOf(run, length)
        lengths[half].append(length)
        mults[half].append(m)
        if m % 2:
            odd_mult[half] = True
    return lengths, mults, odd_mult


class CosetSignature(NamedTuple):
    """Coordinate split of the weight-lattice coset attached to an orbit:
    n_h half-integral coordinates and n_0 integral ones."""

    n_h: int
    n_0: int


def coset_signature(d: Diagram) -> CosetSignature:
    """(total size of the even rows, total size of the odd rows), read in one
    pass over d with nothing filed."""
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
