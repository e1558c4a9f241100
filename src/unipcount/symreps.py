"""Exact character theory of the symmetric groups.

Character tables are built one class column at a time by the
Murnaghan-Nakayama rule, each label held as the bitmask of its bead set, so
that adding a border strip moves one bead. Tables may be cached on disk, and
dimensions come from the hook-length formula; all is integer arithmetic. A
table maps each label to its row, the tuple of its values at the classes in
all_diagrams order; the disk cache and the CLI's JSON hold the same rows.

Irreducible representations of S_n are labeled by diagrams of size n, with
the one-row diagram the trivial representation and the one-column diagram
the sign representation.
"""

import os
from collections import Counter
from functools import cache
from math import factorial, prod
from pathlib import Path

from .diagrams import Diagram, all_diagrams, check_diagram, diagram_text, transpose
from .errors import DegreeMismatchError, InvalidPartitionError, whole_numbers

IrrepLabel = Diagram


def _bead_moves(beads: int, length: int) -> list[tuple[int, int]]:
    """(larger bead set, sign) for every border strip of the given length
    that can be added to the label with this bead set: one bead moves up
    from b to the empty place b + length, and the sign is -1 to the number
    of beads it jumps over (the strip's height)."""
    moves = []
    rest = beads
    while rest:
        low = rest & -rest
        rest ^= low
        up = low << length
        if not beads & up:
            moves.append((beads ^ low ^ up, (-1) ** (beads & (up - 2 * low)).bit_count()))
    return moves


@cache
def irrep_dimension(label: IrrepLabel) -> int:
    """Dimension of the irreducible, by the hook-length formula."""
    n = sum(label)
    cols = transpose(label)
    hooks = prod(
        label[i] - j + cols[j] - i - 1
        for i in range(len(label))
        for j in range(label[i])
    )
    return factorial(n) // hooks


# Oracle-only; kept here because bench/spans.py wraps these names in symreps.
@cache
def centralizer_order(cls: Diagram) -> int:
    """Order of the centralizer of a permutation with cycle type cls."""
    z = 1
    for part, count in Counter(cls).items():
        z *= part**count * factorial(count)
    return z


class ClassFunction:
    """Integer-valued function on the conjugacy classes (partitions) of S_n,
    defined on every class. Equal by value. Values must be whole numbers:
    2.0 coerces to 2, and 2.5 or "2" is refused rather than truncated."""

    __slots__ = ("degree", "values")

    def __init__(self, degree: int, values: dict[Diagram, int]) -> None:
        self.degree = degree
        self.values = values
        self.__post_init__()

    def __post_init__(self) -> None:
        (self.degree,) = whole_numbers((self.degree,), DegreeMismatchError, "class function degree must be whole")
        if self.degree < 0 or not isinstance(self.values, dict):
            raise DegreeMismatchError(f"a class function takes a degree >= 0 and a dict, got {self!r}")
        whole = whole_numbers(
            self.values.values(), DegreeMismatchError, "class function values must be whole numbers"
        )
        clean = dict(zip(map(check_diagram, self.values), whole))
        if set(clean) != set(all_diagrams(self.degree)):
            raise DegreeMismatchError(
                f"class function must be defined on every partition of {self.degree}"
            )
        self.values = clean

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.degree, self.values) == (other.degree, other.values)

    def __repr__(self) -> str:
        return f"ClassFunction(degree={self.degree!r}, values={self.values!r})"


# Per-degree memo. Builds are pure and idempotent, so a race between two
# writers publishes equal tables; readers only ever see complete tables.
_TABLES: dict[int, dict[IrrepLabel, tuple[int, ...]]] = {}


def character_table(n: int, cache_dir: str | Path | None = None) -> dict[IrrepLabel, tuple[int, ...]]:
    """Full character table of S_n, memoized per degree: each label mapped
    to its row, the tuple of its values at the classes. Labels and the
    classes of every row run in all_diagrams order.

    With cache_dir set, rows are loaded from and stored to one JSON file per
    degree (chartable_<n>.json): a map from the label's comma-separated form
    to its row, labels and classes both in decreasing lexicographic order. A
    table not yet memoized is loaded from its file, or computed; either way
    the table is written when its file is missing or fails to load. A whole
    n such as 3.0 coerces to 3; any other n that is not a whole number >= 0
    is refused.
    """
    (n,) = whole_numbers((n,), InvalidPartitionError, "cannot partition a total that is not a whole number")
    table = _TABLES.get(n)
    on_disk = False
    if cache_dir is not None:
        loaded = _load_table(n, cache_dir)
        on_disk = loaded is not None
        if table is None:
            table = loaded
    if table is None:
        table = _build_table(n)
    _TABLES[n] = table
    if cache_dir is not None and n > 0 and not on_disk:
        _store_table(n, table, cache_dir)
    return table


def _table(n: int) -> dict[IrrepLabel, tuple[int, ...]]:
    """character_table(n) for an int n >= 0 the caller made itself: the memoized
    table without the whole-number check, else character_table(n). No table is empty."""
    return _TABLES.get(n) or character_table(n)


def _build_table(n: int) -> dict[IrrepLabel, tuple[int, ...]]:
    """The Murnaghan-Nakayama rule run forward, one class column at a time,
    on labels held as bitmasks of n beads, bead i at label[i] + n - 1 - i.

    The column of a class holds the nonzero values chi^lam(cls) by bead set,
    pushed from the column of the suffix cls[1:] through the bead moves of
    length cls[0]. Columns and moves live in memos filled by a loop, not a
    recursive closure, so no reference cycle keeps them after the build.
    """
    classes = all_diagrams(n)
    memo: dict[Diagram, dict[int, int]] = {(): {(1 << n) - 1: 1}}
    moves: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for cls in classes:
        for start in range(len(cls) - 1, -1, -1):
            suffix = cls[start:]
            if suffix in memo:
                continue
            column: dict[int, int] = {}
            for smaller, value in memo[suffix[1:]].items():
                key = (smaller, suffix[0])
                if key not in moves:
                    moves[key] = _bead_moves(*key)
                for larger, sign in moves[key]:
                    column[larger] = column.get(larger, 0) + sign * value
            memo[suffix] = {beads: v for beads, v in column.items() if v}
    # Each label becomes its bead set once, to key its row; rows keep class order.
    rows = {
        sum(1 << (p + n - 1 - i) for i, p in enumerate(lam + (0,) * (n - len(lam)))): [0] * len(classes)
        for lam in classes
    }
    for j, cls in enumerate(classes):
        for beads, value in memo[cls].items():
            rows[beads][j] = value
    return dict(zip(classes, map(tuple, rows.values())))


def _table_path(n: int, cache_dir: str | Path) -> Path:
    return Path(cache_dir) / f"chartable_{n}.json"


def _table_rows(table: dict[IrrepLabel, tuple[int, ...]]) -> dict[str, tuple[int, ...]]:
    """The table as the cache file and `chartable --format json` write it:
    each label's comma-separated form mapped to its row."""
    return {diagram_text(lam): row for lam, row in table.items()}


def _load_table(n: int, cache_dir: str | Path) -> dict[IrrepLabel, tuple[int, ...]] | None:
    path = _table_path(n, cache_dir)
    if not path.is_file():
        return None
    import json  # only the disk cache and the CLI's JSON output use it

    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError):  # ValueError: bytes that are not text, or not JSON
        return None
    classes = all_diagrams(n)
    if not isinstance(raw, dict) or list(raw) != [diagram_text(lam) for lam in classes]:
        return None
    # Each row must be a list of len(classes) ints; JSON true/false load as bool.
    rows = raw.values()
    width = len(classes)
    if not all(isinstance(row, list) and len(row) == width and {int}.issuperset(map(type, row)) for row in rows):
        return None
    return dict(zip(classes, map(tuple, rows)))


def _store_table(n: int, table: dict[IrrepLabel, tuple[int, ...]], cache_dir: str | Path) -> None:
    path = _table_path(n, cache_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Write a temp file beside the target and rename it into place, so a
    # reader never sees a partial table. json and tempfile are imported here
    # because only a store needs them and they cost several ms of import.
    import json
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(_table_rows(table)))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
