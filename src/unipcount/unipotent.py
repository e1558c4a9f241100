"""Orbit-level classification layer: induced-parameter enumerations for the
real general and special linear groups, cell labels, and the multiplicity
based counts of special unipotent representations for all supported kinds.
"""

from enum import Enum
from functools import lru_cache
from itertools import chain, product, repeat, takewhile
from math import prod
from operator import getitem
from typing import Iterator, NamedTuple

from .diagrams import Diagram, check_diagram, coset_signature, parity_halves, row_profile, transposed_blocks, transposed_rows
from .errors import MAX_MEMO, MAX_ROWS, DegreeMismatchError, InvalidPartitionError, SizeBoundError, UnsupportedGroupError, _checked_cache, whole_numbers
from .weylmodules import (
    ModuleDecomp,
    _pieri_count,
    _profile_fillings,
    coh_gl_complex,
    coh_sl_complex,
    coh_su,
    coh_u_cover,
)


class GroupKind(str, Enum):
    GL_R = "gl-r"
    SL_R = "sl-r"
    GL_C = "gl-c"
    SL_C = "sl-c"
    U_COVER = "u-tilde"
    SU = "su"
    GL_H = "gl-h"
    SL_H = "sl-h"


COMPLEX_KINDS = frozenset({GroupKind.GL_C, GroupKind.SL_C})
HERMITIAN_KINDS = frozenset({GroupKind.SU, GroupKind.U_COVER})
QUATERNIONIC_KINDS = frozenset({GroupKind.GL_H, GroupKind.SL_H})
ENUMERATED_KINDS = frozenset({GroupKind.GL_R, GroupKind.SL_R})
_CELL_KINDS = HERMITIAN_KINDS | COMPLEX_KINDS  # the kinds with a cell and a module
_COUNTED_KINDS = frozenset(GroupKind) - QUATERNIONIC_KINDS


# Kind and least n by value; a str-Enum member hashes as its value, so it finds its own entry.
_KINDS = {k.value: (k, 2 if k in ("sl-r", "sl-c", "sl-h", "gl-h") else 1) for k in GroupKind}
_Group = NamedTuple("_Group", [("kind", GroupKind), ("n", int), ("p", int | None), ("q", int | None)])


class GroupSpec(_Group):
    """A supported group: its kind with degree n, plus (p, q) for the
    hermitian kinds. Built by hand, it is checked as make_group's are."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: make_group(*fields))  # _replace builds with it

    def __new__(cls, *args, **kwargs) -> "GroupSpec":
        return make_group(*args, **kwargs)


def make_group(
    kind: GroupKind | str,
    n: int | None = None,
    p: int | None = None,
    q: int | None = None,
) -> GroupSpec:
    """Validated group constructor.

    Hermitian kinds take (p, q) with p, q >= 0 and p + q >= 1 (degenerate
    compact signatures are allowed); the other kinds take n, with n >= 2 for
    the special linear kinds and even n for the quaternionic ones. An
    unknown kind, or an n, p or q that is not a whole number, is refused.
    A process checks each distinct (kind, n, p, q) once, through
    errors._checked_cache, and hands back the same spec for it after that.
    """
    return _checked_group(kind, n, p, q)


# "su" and GroupKind.SU hash alike, so they share one entry and one spec.
@_checked_cache
def _checked_group(kind, n, p, q) -> GroupSpec:
    try:
        kind, minimum = _KINDS[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise UnsupportedGroupError(f"unknown group kind {kind!r}") from None
    if n is not None:
        (n,) = whole_numbers((n,), UnsupportedGroupError, f"kind {kind.value} takes a whole n")
    if kind in HERMITIAN_KINDS:
        if p is None or q is None:
            raise UnsupportedGroupError(f"kind {kind.value} requires p and q")
        p, q = whole_numbers((p, q), UnsupportedGroupError, f"kind {kind.value} takes whole p, q")
        if p < 0 or q < 0 or p + q < 1:
            raise UnsupportedGroupError(
                f"kind {kind.value} requires p, q >= 0 with p + q >= 1, got ({p}, {q})"
            )
        if n is not None and n != p + q:
            raise DegreeMismatchError(f"n = {n} does not match p + q = {p + q}")
        return tuple.__new__(GroupSpec, (kind, p + q, p, q))
    if p is not None or q is not None:
        raise UnsupportedGroupError(f"kind {kind.value} does not take p and q")
    if n is None:
        raise UnsupportedGroupError(f"kind {kind.value} requires n")
    if n < minimum:
        raise UnsupportedGroupError(f"kind {kind.value} requires n >= {minimum}, got {n}")
    if kind in QUATERNIONIC_KINDS and n % 2:
        raise UnsupportedGroupError(f"kind {kind.value} requires even n, got {n}")
    return tuple.__new__(GroupSpec, (kind, n, None, None))


class _Orbit(NamedTuple):
    first: Diagram
    second: Diagram | None = None


class OrbitSpec(_Orbit):
    """A nilpotent orbit input: one diagram, or an ordered pair of diagrams
    for the complex kinds. Each diagram is checked on construction
    (weakly decreasing, positive rows). A process checks each distinct
    (first, second) of tuples once, up to a bounded cache, as make_group
    does, and any other sequence at each call."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace builds with it

    # A NamedTuple body may not define __new__, hence the _Orbit base.
    def __new__(cls, first: Diagram, second: Diagram | None = None) -> "OrbitSpec":
        # Only tuples are keys: a check consumes an iterator, which no later call hits.
        if type(first) is tuple and (second is None or type(second) is tuple):
            return _checked_orbit(first, second)
        return _checked_orbit.__wrapped__(first, second)


@_checked_cache
def _checked_orbit(first, second) -> OrbitSpec:
    return tuple.__new__(OrbitSpec, (check_diagram(first), None if second is None else check_diagram(second)))


def _check_query(group: GroupSpec, orbit: OrbitSpec, kinds: frozenset, refusal: str) -> GroupKind:
    """The group's kind, once a query may run on it: the group and orbit
    are specs, the query serves the kind (or refusal names it), and the
    orbit fits the group: an ordered pair of diagrams for the complex kinds
    and a single diagram otherwise, each diagram of size n."""
    if not isinstance(group, GroupSpec):
        raise UnsupportedGroupError(f"a group is a GroupSpec from make_group, got {group!r}")
    if not isinstance(orbit, OrbitSpec):
        raise InvalidPartitionError(f"an orbit is an OrbitSpec, got {orbit!r}")
    kind = group.kind
    if kind not in kinds:
        raise UnsupportedGroupError(refusal.format(kind.value))
    if kind in COMPLEX_KINDS:
        if orbit.second is None:
            raise DegreeMismatchError(f"kind {kind.value} takes an ordered pair of diagrams")
        sizes = (sum(orbit.first), sum(orbit.second))
        if sizes != (group.n, group.n):
            raise DegreeMismatchError(f"orbit pair sizes {sizes} do not match n = {group.n}")
    else:
        if orbit.second is not None:
            raise DegreeMismatchError(f"kind {kind.value} takes a single diagram")
        if sum(orbit.first) != group.n:
            raise DegreeMismatchError(
                f"orbit size {sum(orbit.first)} does not match n = {group.n}"
            )
    return kind


# A sweep counts each orbit at every (p, q); bounded, as a c_odd list may hold MAX_ROWS.
@lru_cache(maxsize=MAX_MEMO)
def _orbit_record(orbit: Diagram) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The record _pieri_count reads for the orbit: (c_odd, even) of each block that can hold
    the cell, read off parity_halves(orbit) with no cell label. The block matching the
    transpose of one parity half, when each of that half's multiplicities is even, takes
    _profile_fillings of transposed_blocks of the other half (Macdonald I.1), the even half's
    block first. The pairs go to _profile_fillings as they are made, shortest transposed row
    first, since its products do not depend on the order. c_odd has one entry more than the
    other half's longest row at most; _profile_fillings refuses one longer than MAX_ROWS."""
    lengths, mults, odd_mult = parity_halves(orbit)
    record = ()
    if not odd_mult[0]:
        record += (_profile_fillings(transposed_blocks(lengths[1], mults[1])),)
    if not odd_mult[1]:
        record += (_profile_fillings(transposed_blocks(lengths[0], mults[0])),)
    return record


def cell_rep(group: GroupSpec, orbit: OrbitSpec) -> tuple[Diagram, ...]:
    """Label tuple of the cell attached to the orbit: for the hermitian kinds
    (transpose of the even rows, transpose of the odd rows), each expanded from
    its half of parity_halves, and refused past MAX_ROWS rows; the complex kinds
    double that tuple, built from the first pair component. Nothing is cached."""
    kind = _check_query(group, orbit, _CELL_KINDS, "no cell label for kind {}")
    d = orbit.first
    if d[0] > MAX_ROWS:
        raise SizeBoundError(f"row length {d[0]} exceeds {MAX_ROWS}: a cell label would have that many rows")
    pair = tuple(map(transposed_rows, *parity_halves(d)[:2]))
    return pair + pair if kind in COMPLEX_KINDS else pair


def coherent_module(group: GroupSpec, orbit: OrbitSpec) -> ModuleDecomp:
    """Coherent continuation module of the group at the orbit's coset
    (unitary and complex kinds)."""
    kind = _check_query(
        group, orbit, _CELL_KINDS, "no coherent continuation decomposition for kind {}"
    )
    sig = coset_signature(orbit.first)
    if kind is GroupKind.GL_C:
        return coh_gl_complex(sig)
    if kind is GroupKind.SL_C:
        return coh_sl_complex(sig)
    build = coh_su if kind is GroupKind.SU else coh_u_cover
    return build(group.p, group.q, sig)


def _real_params(group: GroupSpec, orbit: OrbitSpec) -> Iterator[tuple[tuple[int, ...], str | None]]:
    """The induced parameters of a gl-r or sl-r query, checked at the call
    by _check_query (enumeration is refused for every other kind), as (sign
    counts a, sign) over the multiplicities m of row_profile(orbit.first).

    gl-r has one parameter per tuple 0 <= a <= m, sign None, in
    lexicographic order. For sl-r the twist a -> m - a pairs each tuple with
    2a < m (lexicographically) with one with 2a > m; each pair restricts to
    one parameter, listed at its 2a < m member. The twist reverses the
    order, so those members lead it. The fixed point 2a = m, present exactly
    when every multiplicity is even, splits into the signed pair '+', '-',
    listed last.
    """
    kind = _check_query(
        group, orbit, ENUMERATED_KINDS, "explicit enumeration is only available for gl-r and sl-r, not {}"
    )
    m = row_profile(orbit.first).mults
    boxes = product(*(range(x + 1) for x in m))
    if kind is GroupKind.GL_R:
        return zip(boxes, repeat(None))
    below = takewhile(lambda a: tuple(2 * x for x in a) < m, boxes)
    fixed = () if any(x % 2 for x in m) else ((tuple(x // 2 for x in m), sign) for sign in "+-")
    return chain(zip(below, repeat(None)), fixed)


def count_unipotent(group: GroupSpec, orbit: OrbitSpec) -> int:
    """Number of special unipotent representations of the group attached to
    the orbit.

    Real general/special linear kinds count their enumerations without
    listing them, in one pass over the row multiplicities m of
    row_profile(orbit), with no record and no cell label. gl-r has one
    parameter per sign-count tuple, prod(m + 1) of them. For sl-r, the twist
    a -> m - a pairs off every tuple except the fixed point 2a = m, which
    exists (e = 1) exactly when every multiplicity is even; one parameter
    per pair and two at the fixed point give
    (prod(m + 1) - e)/2 + 2e = (prod(m + 1) + 3e)/2.
    The unitary and complex kinds count the multiplicity of the cell label
    in the coherent continuation module, computed directly, without
    building the module.

    Unitary kinds: the cell is (a, b) = (transpose of the even rows,
    transpose of the odd rows), with |a| = n_h and |b| = n_0. A block
    summand holds it only if the label in its matchings factor, a or b, of
    size r, has all rows even, and then as often as
    sign_induction_module(p - r/2, q - r/2) holds the other label: the
    _pieri_count of its _profile_fillings at d = (p - r/2) - (q - r/2) =
    p - q, with index i = (len(c_odd) - 1 + p - q)/2 in range. The summand
    needs min(p, q) >= r/2, and the range of i already ensures it: the
    other label has size p + q - r and len(c_odd) - 1 odd rows, so a block
    with min(p, q) < r/2 has |p - q| > p + q - r >= len(c_odd) - 1, which
    puts i outside 0 <= i < len(c_odd). By Macdonald
    I.1 the rows of a (of b) are running totals of the multiplicities of the
    even (odd) row lengths, so a has all rows even exactly when each of
    those multiplicities is, and a label's (row length, multiplicity) pairs
    are transposed_blocks of its half of parity_halves(orbit). One cached
    record per orbit diagram keeps (c_odd, even) for each block that can
    hold the cell, so a count at any (p, q) sums at most two products over
    those pairs, taken in the order they come, and builds no label.
    The diagonal summands of SU never contain the cell, so SU and the double
    cover share this formula. Proof: the largest part of transpose(d) is
    the number of rows of d, and it occurs as many times as the smallest row
    of d is long. That is even for a (built from even rows) and odd for b
    (built from odd rows), so a != b unless both are empty, i.e. n = 0,
    which no group allows. A diagonal key (x, x) therefore never equals
    (a, b).

    Complex kinds: an unequal orbit pair has no attached representations at
    all, so it counts 0. For an equal pair the cell is (a, b, a, b), and the
    general linear module holds it exactly once, being one copy of
    (x, y, x, y) per label pair. The special linear module adds copies
    (x, y, y, x); such a copy equals the cell only if x = a, y = b, y = a
    and x = b, hence a = b, which the argument above rules out. So the
    count is 1.
    """
    kind = _check_query(
        group,
        orbit,
        _COUNTED_KINDS,
        "counting for {} is not implemented: restriction from the quaternionic "
        "general linear group to the quaternionic special linear group is a "
        "bijection on special unipotent representations, and the general "
        "linear side's classification is external to this engine",
    )
    if kind in COMPLEX_KINDS:
        return int(orbit.first == orbit.second)
    if kind in ENUMERATED_KINDS:
        mults = row_profile(orbit.first).mults
        total = prod(m + 1 for m in mults)
        if kind is GroupKind.GL_R:
            return total
        return (total + 3 * (not any(m % 2 for m in mults))) // 2
    return _pieri_count(_orbit_record(orbit.first), group.p - group.q)


def query_record(group: GroupSpec, orbit: OrbitSpec, **fields) -> dict:
    """JSON-ready record of a query: its group (kind, n, and p and q for the
    hermitian kinds), its orbit (rows, or a pair of them), then fields."""
    head = {"kind": group.kind.value, "n": group.n}
    if group.kind in HERMITIAN_KINDS:
        head |= {"p": group.p, "q": group.q}
    first = list(orbit.first)
    return {"group": head, "orbit": first if orbit.second is None else [first, list(orbit.second)], **fields}


def count_record(group: GroupSpec, orbit: OrbitSpec) -> dict:
    """JSON-ready record of a count query."""
    count = count_unipotent(group, orbit)  # checks the query first
    n_h, n_0 = coset_signature(orbit.first)
    method = "enumeration" if group.kind in ENUMERATED_KINDS else "multiplicity"
    return query_record(group, orbit, n_h=n_h, n_0=n_0, count=count, method=method)


def _block_tags(orbit: Diagram) -> list[list[list[list]]]:
    """For each distinct row length of orbit, of multiplicity m, and each sign
    count s = 0..m, the [length, tag] pairs of its blocks in an induced
    parameter: m - s 'trivial', then s 'sign', each a shared pair."""
    return [
        [[[length, "trivial"]] * (m - s) + [[length, "sign"]] * s for s in range(m + 1)]
        for length, m in zip(*row_profile(orbit))
    ]


def enumeration_record(group: GroupSpec, orbit: OrbitSpec) -> dict:
    """JSON-ready record of an enumeration query, one row per parameter of
    _real_params: its sign counts a, and the blocks of its induced parameter,
    read off _block_tags by row length. The rows share their inner
    [length, tag] pairs."""
    params = _real_params(group, orbit)  # checks the query first
    tags = _block_tags(orbit.first)
    rows = []
    for index, (a, sign) in enumerate(params):
        row = {"index": index, "blocks": list(chain.from_iterable(map(getitem, tags, a))), "a": list(a)}
        if group.kind is GroupKind.SL_R:
            row["sign"] = sign
        rows.append(row)
    return query_record(group, orbit, count=len(rows), params=rows)
