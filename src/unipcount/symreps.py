"""Exact character theory of the symmetric groups.

Character tables come from the Murnaghan-Nakayama border-strip recursion,
optionally cached on disk, and dimensions from the hook-length formula.
Everything is integer arithmetic; rationals appear only transiently inside
the class-function inner products that the oracles use.

Irreducible representations of S_n are labeled by diagrams of size n, with
the one-row diagram the trivial representation and the one-column diagram
the sign representation.
"""

import json
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, prod
from pathlib import Path
from typing import Iterator

from .diagrams import Diagram, all_diagrams, check_diagram, diagram_text, transpose
from .errors import DegreeMismatchError

IrrepLabel = Diagram


def _strip_removals(label: Diagram, length: int) -> Iterator[tuple[Diagram, int]]:
    """Yield (smaller label, height) for every removable border strip.

    Works on the beta-set (first-column hook lengths): removing a strip of
    the given length moves one beta number down by that length, and the
    height is the number of beta numbers it jumps over.
    """
    nrows = len(label)
    beta = [label[i] + nrows - 1 - i for i in range(nrows)]
    present = set(beta)
    for b in beta:
        nb = b - length
        if nb < 0 or nb in present:
            continue
        height = sum(1 for c in beta if nb < c < b)
        newbeta = sorted((present - {b}) | {nb}, reverse=True)
        smaller = (x - (nrows - 1 - j) for j, x in enumerate(newbeta))
        yield tuple(p for p in smaller if p), height


@cache
def _mn(label: Diagram, cls: Diagram) -> int:
    if not cls:
        return 1
    length, rest = cls[0], cls[1:]
    return sum((-1) ** h * _mn(smaller, rest) for smaller, h in _strip_removals(label, length))


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


@dataclass(frozen=True)
class ClassFunction:
    """Integer-valued function on the conjugacy classes (partitions) of S_n,
    defined on every class."""

    degree: int
    values: dict[Diagram, int]

    def __post_init__(self) -> None:
        clean = {check_diagram(k): int(v) for k, v in self.values.items()}
        if set(clean) != set(all_diagrams(self.degree)):
            raise DegreeMismatchError(
                f"class function must be defined on every partition of {self.degree}"
            )
        object.__setattr__(self, "values", clean)

    def __call__(self, cls: Diagram) -> int:
        return self.values[cls]


def inner_product(f: ClassFunction, g: ClassFunction) -> Fraction:
    """Class-function inner product: (1/n!) sum over classes of size * f * g."""
    if f.degree != g.degree:
        raise DegreeMismatchError(
            f"cannot pair class functions of degrees {f.degree} and {g.degree}"
        )
    return sum(
        (
            Fraction(f.values[mu] * g.values[mu], centralizer_order(mu))
            for mu in all_diagrams(f.degree)
        ),
        start=Fraction(0),
    )


# Per-degree memo. Builds are pure and idempotent, so a race between two
# writers publishes equal tables; readers only ever see complete tables.
_TABLES: dict[int, dict[IrrepLabel, dict[Diagram, int]]] = {}


def character_table(n: int, cache_dir: str | Path | None = None) -> dict[IrrepLabel, dict[Diagram, int]]:
    """Full character table of S_n, keyed [label][class] and memoized per
    degree.

    With cache_dir set, rows are loaded from and stored to one JSON file per
    degree (chartable_<n>.json): a map from the label's comma-separated form
    to its row of class values, labels and classes both in decreasing
    lexicographic order. A table not yet memoized is loaded from its file,
    or computed; either way the table is written when its file is missing or
    fails to load.
    """
    table = _TABLES.get(n)
    on_disk = False
    if cache_dir is not None:
        loaded = _load_table(n, cache_dir)
        on_disk = loaded is not None
        if table is None:
            table = loaded
    if table is None:
        labels = all_diagrams(n)
        table = {lam: {mu: _mn(lam, mu) for mu in labels} for lam in labels}
    _TABLES[n] = table
    if cache_dir is not None and n > 0 and not on_disk:
        _store_table(n, table, cache_dir)
    return table


def _table_path(n: int, cache_dir: str | Path) -> Path:
    return Path(cache_dir) / f"chartable_{n}.json"


def _load_table(n: int, cache_dir: str | Path) -> dict[IrrepLabel, dict[Diagram, int]] | None:
    path = _table_path(n, cache_dir)
    if not path.is_file():
        return None
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
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
            or not all(isinstance(v, int) for v in row)
        ):
            return None
        table[lam] = dict(zip(classes, row))
    return table


def _store_table(n: int, table: dict[IrrepLabel, dict[Diagram, int]], cache_dir: str | Path) -> None:
    path = _table_path(n, cache_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    classes = all_diagrams(n)
    payload = {diagram_text(lam): [table[lam][mu] for mu in classes] for lam in classes}
    # Write a temp file beside the target and rename it into place, so a
    # reader never sees a partial table. tempfile is imported here because
    # only a store needs it and it costs several ms of import.
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(payload))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
