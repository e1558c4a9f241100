"""Partitions viewed as Young diagrams, and the orbit-level combinatorics
built on them: transpose, row profiles, parity splits, and the coset
signature attached to a nilpotent orbit.

All values are immutable; a diagram is a weakly decreasing tuple of positive
row lengths, with () the empty diagram.
"""

from functools import cache
from operator import lt
from typing import Iterable, Iterator, NamedTuple

from .errors import InvalidPartitionError

Diagram = tuple[int, ...]


def make_diagram(parts: Iterable[int]) -> Diagram:
    """Build a diagram from row lengths, sorting into canonical order.

    Zero and negative entries are rejected rather than dropped.
    """
    rows = tuple(sorted((int(p) for p in parts), reverse=True))
    if rows and rows[-1] < 1:
        raise InvalidPartitionError(
            f"row lengths must be positive integers, got {rows[-1]}"
        )
    return rows


def check_diagram(d: Iterable[int]) -> Diagram:
    """Validate an already-canonical diagram (weakly decreasing, positive)."""
    rows = tuple(map(int, d))
    if rows and min(rows) < 1:
        raise InvalidPartitionError(f"row lengths must be positive integers: {rows}")
    if any(map(lt, rows, rows[1:])):
        raise InvalidPartitionError(f"row lengths must be weakly decreasing: {rows}")
    return rows


def transpose(d: Diagram) -> Diagram:
    """Column lengths of d, i.e. the reflected diagram."""
    if not d:
        return ()
    return tuple(sum(1 for p in d if p > i) for i in range(d[0]))


@cache
def all_diagrams(n: int) -> tuple[Diagram, ...]:
    """All partitions of n, in decreasing lexicographic order."""
    if n < 0:
        raise InvalidPartitionError(f"cannot partition a negative total: {n}")
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
    """(total size of the even rows, total size of the odd rows)."""
    even, odd = even_odd_split(d)
    return CosetSignature(sum(even), sum(odd))


def parse_orbit(text: str) -> Diagram:
    """Parse the comma-separated row-length form, e.g. '3,1,1'."""
    items = [s.strip() for s in text.split(",") if s.strip()]
    try:
        parts = [int(s) for s in items]
    except ValueError as exc:
        raise InvalidPartitionError(f"cannot parse orbit {text!r}") from exc
    if not parts:
        raise InvalidPartitionError(f"cannot parse orbit {text!r}")
    return make_diagram(parts)


def diagram_text(d: Diagram) -> str:
    """Plain comma-separated form, e.g. '3,1,1' (empty diagram gives '')."""
    return ",".join(str(p) for p in d)


def format_diagram(d: Diagram) -> str:
    """Bracketed row-length form used in tables, e.g. [3,1,1]."""
    return "[" + diagram_text(d) + "]"
