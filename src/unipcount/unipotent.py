"""Orbit-level classification layer: induced-parameter enumerations for the
real general and special linear groups, cell labels, and the multiplicity
based counts of special unipotent representations for all supported kinds.
"""

from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import product
from math import prod
from typing import Iterator

from .diagrams import (
    Diagram,
    RowProfile,
    check_diagram,
    coset_signature,
    even_odd_split,
    row_profile,
    transpose,
)
from .errors import DegreeMismatchError, UnsupportedGroupError
from .weylmodules import (
    ModuleDecomp,
    block_multiplicity,
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


@dataclass(frozen=True)
class GroupSpec:
    """A supported group: its kind with degree n, plus (p, q) for the
    hermitian kinds."""

    kind: GroupKind
    n: int
    p: int | None = None
    q: int | None = None


def make_group(
    kind: GroupKind | str,
    n: int | None = None,
    p: int | None = None,
    q: int | None = None,
) -> GroupSpec:
    """Validated group constructor.

    Hermitian kinds take (p, q) with p, q >= 0 and p + q >= 1 (degenerate
    compact signatures are allowed); the other kinds take n, with n >= 2 for
    the special linear kinds and even n for the quaternionic ones.
    """
    kind = GroupKind(kind)
    if kind in HERMITIAN_KINDS:
        if p is None or q is None:
            raise UnsupportedGroupError(f"kind {kind.value} requires p and q")
        if p < 0 or q < 0 or p + q < 1:
            raise UnsupportedGroupError(
                f"kind {kind.value} requires p, q >= 0 with p + q >= 1, got ({p}, {q})"
            )
        if n is not None and n != p + q:
            raise DegreeMismatchError(f"n = {n} does not match p + q = {p + q}")
        return GroupSpec(kind, p + q, p, q)
    if p is not None or q is not None:
        raise UnsupportedGroupError(f"kind {kind.value} does not take p and q")
    if n is None:
        raise UnsupportedGroupError(f"kind {kind.value} requires n")
    minimum = 2 if kind in (GroupKind.SL_R, GroupKind.SL_C, GroupKind.SL_H, GroupKind.GL_H) else 1
    if n < minimum:
        raise UnsupportedGroupError(f"kind {kind.value} requires n >= {minimum}, got {n}")
    if kind in QUATERNIONIC_KINDS and n % 2:
        raise UnsupportedGroupError(f"kind {kind.value} requires even n, got {n}")
    return GroupSpec(kind, n)


@dataclass(frozen=True)
class OrbitSpec:
    """A nilpotent orbit input: one diagram, or an ordered pair of diagrams
    for the complex kinds. Each diagram is checked on construction
    (weakly decreasing, positive rows)."""

    first: Diagram
    second: Diagram | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "first", check_diagram(self.first))
        if self.second is not None:
            object.__setattr__(self, "second", check_diagram(self.second))

    @property
    def is_pair(self) -> bool:
        return self.second is not None


def _check_orbit(group: GroupSpec, orbit: OrbitSpec) -> None:
    """The orbit fits the group: an ordered pair of diagrams for the complex
    kinds and a single diagram otherwise, each diagram of size n."""
    kind = group.kind
    if kind in COMPLEX_KINDS:
        if not orbit.is_pair:
            raise DegreeMismatchError(f"kind {kind.value} takes an ordered pair of diagrams")
        sizes = (sum(orbit.first), sum(orbit.second))
        if sizes != (group.n, group.n):
            raise DegreeMismatchError(f"orbit pair sizes {sizes} do not match n = {group.n}")
    else:
        if orbit.is_pair:
            raise DegreeMismatchError(f"kind {kind.value} takes a single diagram")
        if sum(orbit.first) != group.n:
            raise DegreeMismatchError(
                f"orbit size {sum(orbit.first)} does not match n = {group.n}"
            )


# Cached: the cell depends only on the orbit, and a sweep counts each orbit
# at every (p, q).
@cache
def _cell(orbit: Diagram) -> tuple[Diagram, Diagram]:
    even, odd = even_odd_split(orbit)
    return transpose(even), transpose(odd)


def cell_rep(group: GroupSpec, orbit: OrbitSpec) -> tuple[Diagram, ...]:
    """Label tuple of the cell attached to the orbit.

    Hermitian kinds give (transpose of even rows, transpose of odd rows);
    the complex kinds double that tuple, built from the first pair component.
    """
    kind = group.kind
    if kind not in HERMITIAN_KINDS and kind not in COMPLEX_KINDS:
        raise UnsupportedGroupError(f"no cell label for kind {kind.value}")
    _check_orbit(group, orbit)
    pair = _cell(orbit.first)
    return pair + pair if kind in COMPLEX_KINDS else pair


def coherent_module(group: GroupSpec, orbit: OrbitSpec) -> ModuleDecomp:
    """Coherent continuation module of the group at the orbit's coset
    (unitary and complex kinds)."""
    kind = group.kind
    if kind not in HERMITIAN_KINDS and kind not in COMPLEX_KINDS:
        raise UnsupportedGroupError(
            f"no coherent continuation decomposition for kind {kind.value}"
        )
    _check_orbit(group, orbit)
    sig = coset_signature(orbit.first)
    if kind is GroupKind.GL_C:
        return coh_gl_complex(sig)
    if kind is GroupKind.SL_C:
        return coh_sl_complex(sig)
    build = coh_su if kind is GroupKind.SU else coh_u_cover
    return build(group.p, group.q, sig)


def _real_params(
    kind: GroupKind, profile: RowProfile
) -> Iterator[tuple[tuple[int, ...], str | None]]:
    """The induced parameters of gl-r or sl-r at an orbit with this row
    profile, as (sign counts a, sign), with a in lexicographic order.

    gl-r has one parameter per tuple 0 <= a <= m, sign None. For sl-r the
    twist a -> m - a pairs each tuple with 2a < m (lexicographically) with
    one with 2a > m; each pair restricts to one parameter, listed at its
    2a < m member. The fixed point 2a = m, present exactly when every
    multiplicity is even, splits into the signed pair '+', '-'. It comes
    after every 2a < m tuple and before every 2a > m one, so the signed pair
    is listed last.
    """
    m = profile.mults
    for a in product(*(range(x + 1) for x in m)):
        doubled = tuple(2 * x for x in a)
        if kind is GroupKind.GL_R or doubled < m:
            yield a, None
        elif doubled == m:
            yield a, "+"
            yield a, "-"


def count_unipotent(group: GroupSpec, orbit: OrbitSpec) -> int:
    """Number of special unipotent representations of the group attached to
    the orbit.

    Real general/special linear kinds count their enumerations without
    listing them. gl-r has one parameter per sign-count tuple, prod(m + 1)
    of them. For sl-r, the twist a -> m - a pairs off every tuple except
    the fixed point 2a = m, which exists (e = 1) exactly when every
    multiplicity is even; one parameter per pair and two at the fixed point
    give (prod(m + 1) - e)/2 + 2e = (prod(m + 1) + 3e)/2.
    The unitary and complex kinds count the multiplicity of the cell label
    in the coherent continuation module, computed directly, without
    building the module.

    Unitary kinds: the cell is (a, b) = (transpose of the even rows,
    transpose of the odd rows), with |a| = n_h and |b| = n_0. The two block
    summands contribute block_multiplicity(p, q, n_h, a, b) +
    block_multiplicity(p, q, n_0, b, a), where the sign-induction factor is
    read off by the Pieri rule for vertical strips (Macdonald, Symmetric
    Functions and Hall Polynomials, I.(5.16)-(5.17); see
    sign_induction_multiplicity). The diagonal summands of SU never contain
    the cell, so SU and the double cover share this formula. Proof: the
    largest part of transpose(d) is the number of rows of d, and it occurs
    as many times as the smallest row of d is long. That is even for a
    (built from even rows) and odd for b (built from odd rows), so a != b
    unless both are empty, i.e. n = 0, which no group allows. A diagonal
    key (x, x) therefore never equals (a, b).

    Complex kinds: an unequal orbit pair has no attached representations at
    all, so it counts 0. For an equal pair the cell is (a, b, a, b), and the
    general linear module holds it exactly once, being one copy of
    (x, y, x, y) per label pair. The special linear module adds copies
    (x, y, y, x); such a copy equals the cell only if x = a, y = b, y = a
    and x = b, hence a = b, which the argument above rules out. So the
    count is 1.
    """
    kind = group.kind
    if kind in QUATERNIONIC_KINDS:
        raise UnsupportedGroupError(
            f"counting for {kind.value} is not implemented: restriction from the "
            "quaternionic general linear group to the quaternionic special linear "
            "group is a bijection on special unipotent representations, and the "
            "general linear side's classification is external to this engine"
        )
    _check_orbit(group, orbit)
    if kind in ENUMERATED_KINDS:
        mults = row_profile(orbit.first).mults
        total = prod(m + 1 for m in mults)
        if kind is GroupKind.GL_R:
            return total
        fixed = all(m % 2 == 0 for m in mults)
        return (total + 3 * fixed) // 2
    if kind in COMPLEX_KINDS:
        return int(orbit.first == orbit.second)
    a, b = _cell(orbit.first)
    # |transpose(d)| = |d|, so a and b have the coset signature's sizes.
    n_h, n_0 = sum(a), sum(b)
    p, q = group.p, group.q
    return block_multiplicity(p, q, n_h, a, b) + block_multiplicity(p, q, n_0, b, a)


def group_record(group: GroupSpec) -> dict:
    rec: dict = {"kind": group.kind.value, "n": group.n}
    if group.kind in HERMITIAN_KINDS:
        rec["p"] = group.p
        rec["q"] = group.q
    return rec


def orbit_record(orbit: OrbitSpec) -> list:
    if orbit.is_pair:
        return [list(orbit.first), list(orbit.second)]
    return list(orbit.first)


def count_record(group: GroupSpec, orbit: OrbitSpec) -> dict:
    """JSON-ready record of a count query."""
    count = count_unipotent(group, orbit)
    sig = coset_signature(orbit.first)
    return {
        "group": group_record(group),
        "orbit": orbit_record(orbit),
        "n_h": sig.n_h,
        "n_0": sig.n_0,
        "count": count,
        "method": "enumeration" if group.kind in ENUMERATED_KINDS else "multiplicity",
    }


def enumeration_record(group: GroupSpec, orbit: OrbitSpec) -> dict:
    """JSON-ready record of an enumeration query (real kinds only). Each row
    holds the sign counts a, and the blocks of its induced parameter grouped
    by row length: m - a trivial blocks, then a sign blocks."""
    if group.kind not in ENUMERATED_KINDS:
        raise UnsupportedGroupError(
            f"explicit enumeration is only available for gl-r and sl-r, not {group.kind.value}"
        )
    _check_orbit(group, orbit)
    profile = row_profile(orbit.first)
    rows = []
    for index, (a, sign) in enumerate(_real_params(group.kind, profile)):
        blocks = []
        for length, mult, signs in zip(profile.lengths, profile.mults, a):
            blocks.extend([length, "trivial"] for _ in range(mult - signs))
            blocks.extend([length, "sign"] for _ in range(signs))
        row = {"index": index, "blocks": blocks, "a": list(a)}
        if group.kind is GroupKind.SL_R:
            row["sign"] = sign
        rows.append(row)
    return {
        "group": group_record(group),
        "orbit": orbit_record(orbit),
        "count": len(rows),
        "params": rows,
    }
