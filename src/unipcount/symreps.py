"""Exact character theory of the symmetric groups.

Character tables are built one class column at a time by the
Murnaghan-Nakayama border-strip rule, optionally cached on disk, and
dimensions come from the hook-length formula. Everything is integer
arithmetic.

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


@cache
def _strip_additions(label: Diagram, length: int) -> tuple[tuple[Diagram, int], ...]:
    """(larger label, sign) for every border strip of the given length that
    can be added to the label.

    Works on the beta-set (first-column hook lengths) padded with `length`
    zero rows, enough for a strip to start new rows: adding a strip moves
    one beta number up by that length, and the sign is -1 to the number of
    beta numbers it jumps over (the strip's height).
    """
    nrows = len(label) + length
    beta = [p + nrows - 1 - i for i, p in enumerate(label + (0,) * length)]
    out = []
    j = 0  # first bead at or below the target; moves down as b does
    for i, b in enumerate(beta):
        nb = b + length
        while beta[j] > nb:
            j += 1
        if beta[j] == nb:
            continue
        newbeta = beta[:j] + [nb] + beta[j:i] + beta[i + 1 :]
        larger = (x - (nrows - 1 - k) for k, x in enumerate(newbeta))
        out.append((tuple(p for p in larger if p), -1 if (i - j) % 2 else 1))
    return tuple(out)


@cache
def _column(cls: Diagram) -> dict[IrrepLabel, int]:
    """The nonzero values chi^lam(cls) over every label lam of size |cls|.

    The Murnaghan-Nakayama rule run forward: every value of the column of
    cls[1:] is pushed through the strips of length cls[0] that can be added
    to its label.
    """
    if not cls:
        return {(): 1}
    out: dict[IrrepLabel, int] = {}
    length = cls[0]
    for smaller, value in _column(cls[1:]).items():
        for larger, sign in _strip_additions(smaller, length):
            out[larger] = out.get(larger, 0) + sign * value
    return {lam: v for lam, v in out.items() if v}


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
        given = tuple(self.values.values())
        whole = whole_numbers(given)
        if whole is None:
            bad = next(v for v in given if whole_numbers((v,)) is None)
            raise DegreeMismatchError(f"class function values must be whole numbers, got {bad!r}")
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
_TABLES: dict[int, dict[IrrepLabel, dict[Diagram, int]]] = {}


def character_table(n: int, cache_dir: str | Path | None = None) -> dict[IrrepLabel, dict[Diagram, int]]:
    """Full character table of S_n, keyed [label][class] and memoized per
    degree. Labels and the classes of every row run in all_diagrams order.

    With cache_dir set, rows are loaded from and stored to one JSON file per
    degree (chartable_<n>.json): a map from the label's comma-separated form
    to its row of class values, labels and classes both in decreasing
    lexicographic order. A table not yet memoized is loaded from its file,
    or computed; either way the table is written when its file is missing or
    fails to load. A whole n such as 3.0 coerces to 3; any other n that is
    not a whole number >= 0 is refused.
    """
    if type(n) is not int:  # only such an n pays for whole_numbers
        if whole_numbers((n,)) is None:
            raise InvalidPartitionError(f"cannot partition a total that is not a whole number: {n!r}")
        n = int(n)
    table = _TABLES.get(n)
    on_disk = False
    if cache_dir is not None:
        loaded = _load_table(n, cache_dir)
        on_disk = loaded is not None
        if table is None:
            table = loaded
    if table is None:
        labels = all_diagrams(n)
        columns = [(mu, _column(mu)) for mu in labels]
        table = {lam: {mu: col.get(lam, 0) for mu, col in columns} for lam in labels}
    _TABLES[n] = table
    if cache_dir is not None and n > 0 and not on_disk:
        _store_table(n, table, cache_dir)
    return table


def _table_path(n: int, cache_dir: str | Path) -> Path:
    return Path(cache_dir) / f"chartable_{n}.json"


def _table_rows(n: int, table: dict[IrrepLabel, dict[Diagram, int]]) -> dict[str, list[int]]:
    """The table as the cache file and `chartable --format json` write it:
    each label's comma-separated form mapped to its row of class values."""
    classes = all_diagrams(n)
    return {diagram_text(lam): [table[lam][mu] for mu in classes] for lam in classes}


def _load_table(n: int, cache_dir: str | Path) -> dict[IrrepLabel, dict[Diagram, int]] | None:
    path = _table_path(n, cache_dir)
    if not path.is_file():
        return None
    import json  # only the disk cache and the CLI's JSON output use it

    try:
        raw = json.loads(path.read_text())
    except (OSError, ValueError):  # ValueError: bytes that are not text, or not JSON
        return None
    classes = all_diagrams(n)
    expected = [diagram_text(lam) for lam in classes]
    if not isinstance(raw, dict) or list(raw) != expected:
        return None
    table = {}
    for lam, key in zip(classes, expected):
        row = raw[key]
        if (
            not isinstance(row, list)
            or len(row) != len(classes)
            or not all(type(v) is int for v in row)  # JSON true/false load as bool
        ):
            return None
        table[lam] = dict(zip(classes, row))
    return table


def _store_table(n: int, table: dict[IrrepLabel, dict[Diagram, int]], cache_dir: str | Path) -> None:
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
            fh.write(json.dumps(_table_rows(n, table)))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
