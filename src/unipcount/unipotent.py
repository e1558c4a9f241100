"""Orbit-level classification layer: induced-parameter enumerations for the
real general and special linear groups, cell labels, and the multiplicity
based counts of special unipotent representations for all supported kinds.
"""

from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import product
from math import prod
from typing import NamedTuple

from .diagrams import (
    Diagram,
    RowProfile,
    check_diagram,
    coset_signature,
    even_odd_split,
    row_profile,
    transpose,
)
from .errors import DegreeMismatchError, ParameterRangeError, UnsupportedGroupError
from .weylmodules import coh_su, coh_u_cover, sign_induction_multiplicity


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
    of equal size for the complex kinds."""

    first: Diagram
    second: Diagram | None = None

    @property
    def is_pair(self) -> bool:
        return self.second is not None


def make_orbit(first, second=None) -> OrbitSpec:
    first = check_diagram(first)
    if second is None:
        return OrbitSpec(first)
    return OrbitSpec(first, check_diagram(second))


def _validate(group: GroupSpec, orbit: OrbitSpec) -> None:
    if group.kind in COMPLEX_KINDS:
        if not orbit.is_pair:
            raise DegreeMismatchError(
                f"kind {group.kind.value} takes an ordered pair of diagrams"
            )
        if sum(orbit.first) != group.n or sum(orbit.second) != group.n:
            raise DegreeMismatchError(
                f"orbit pair sizes ({sum(orbit.first)}, {sum(orbit.second)}) "
                f"do not match n = {group.n}"
            )
    else:
        if orbit.is_pair:
            raise DegreeMismatchError(f"kind {group.kind.value} takes a single diagram")
        if sum(orbit.first) != group.n:
            raise DegreeMismatchError(
                f"orbit size {sum(orbit.first)} does not match n = {group.n}"
            )


def cell_rep(kind: GroupKind | str, orbit: OrbitSpec) -> tuple[Diagram, ...]:
    """Label tuple of the cell attached to the orbit.

    Hermitian kinds give (transpose of even rows, transpose of odd rows);
    the complex kinds double that tuple, built from the first pair component.
    """
    kind = GroupKind(kind)
    if kind not in HERMITIAN_KINDS and kind not in COMPLEX_KINDS:
        raise UnsupportedGroupError(f"no cell label for kind {kind.value}")
    if kind in COMPLEX_KINDS and not orbit.is_pair:
        raise DegreeMismatchError(f"kind {kind.value} takes an ordered pair of diagrams")
    if kind in HERMITIAN_KINDS and orbit.is_pair:
        raise DegreeMismatchError(f"kind {kind.value} takes a single diagram")
    even, odd = even_odd_split(orbit.first)
    pair = (transpose(even), transpose(odd))
    return pair + pair if kind in COMPLEX_KINDS else pair


CHAR_TRIVIAL = "trivial"
CHAR_SIGN = "sign"


@dataclass(frozen=True)
class InducedRepDescriptor:
    """Blocks of an induced parameter, grouped by size with trivial blocks
    before sign blocks, together with the sign-count tuple that produced
    them."""

    blocks: tuple[tuple[int, str], ...]
    a: tuple[int, ...]


def _descriptor(profile: RowProfile, a: tuple[int, ...]) -> InducedRepDescriptor:
    blocks: list[tuple[int, str]] = []
    for length, mult, signs in zip(profile.lengths, profile.mults, a):
        blocks.extend((length, CHAR_TRIVIAL) for _ in range(mult - signs))
        blocks.extend((length, CHAR_SIGN) for _ in range(signs))
    return InducedRepDescriptor(tuple(blocks), tuple(a))


def gl_r_params(orbit: Diagram) -> tuple[InducedRepDescriptor, ...]:
    """All induced parameters for the real general linear group at the orbit:
    one descriptor per sign-count tuple, in lexicographic order. There are
    prod(m_l + 1) of them."""
    profile = row_profile(check_diagram(orbit))
    return tuple(
        _descriptor(profile, a)
        for a in product(*(range(m + 1) for m in profile.mults))
    )


def sign_twist(a: tuple[int, ...], profile: RowProfile) -> tuple[int, ...]:
    """Effect of tensoring with the order-two character: a goes to m - a."""
    a = tuple(int(x) for x in a)
    if len(a) != profile.k or any(x < 0 or x > m for x, m in zip(a, profile.mults)):
        raise ParameterRangeError(
            f"sign counts {a} out of range for multiplicities {profile.mults}"
        )
    return tuple(m - x for x, m in zip(a, profile.mults))


class TwistSplit(NamedTuple):
    plus: tuple[tuple[int, ...], ...]
    minus: tuple[tuple[int, ...], ...]
    zero: tuple[tuple[int, ...], ...]


def split_by_twist(orbit: Diagram) -> TwistSplit:
    """Partition of the sign-count tuples under the twist a -> m - a.

    plus holds the tuples with 2a < m lexicographically, zero the fixed
    points 2a = m (one tuple when every multiplicity is even, none
    otherwise), and minus the twist of plus.
    """
    profile = row_profile(check_diagram(orbit))
    m = profile.mults
    plus: list[tuple[int, ...]] = []
    minus: list[tuple[int, ...]] = []
    zero: list[tuple[int, ...]] = []
    for a in product(*(range(x + 1) for x in m)):
        doubled = tuple(2 * x for x in a)
        if doubled < m:
            plus.append(a)
        elif doubled == m:
            zero.append(a)
        else:
            minus.append(a)
    return TwistSplit(tuple(plus), tuple(minus), tuple(zero))


@dataclass(frozen=True)
class SLRParam:
    """A special-linear parameter: the restriction of a descriptor from the
    plus half (sign None), or one member of the split pair at a twist-fixed
    descriptor (sign '+' or '-')."""

    descriptor: InducedRepDescriptor
    sign: str | None = None


def sl_r_enumerate(orbit: Diagram) -> tuple[SLRParam, ...]:
    """Parameters for the real special linear group at the orbit: one
    restricted parameter per plus tuple, and a pair of signed parameters at
    the twist-fixed tuple when present."""
    orbit = check_diagram(orbit)
    if sum(orbit) < 2:
        raise UnsupportedGroupError("special linear enumeration requires n >= 2")
    profile = row_profile(orbit)
    split = split_by_twist(orbit)
    params = [SLRParam(_descriptor(profile, a)) for a in split.plus]
    for a in split.zero:
        fixed = _descriptor(profile, a)
        params.append(SLRParam(fixed, "+"))
        params.append(SLRParam(fixed, "-"))
    return tuple(params)


@cache
def _block(p: int, q: int, r: int, matched: Diagram, other: Diagram) -> int:
    """Multiplicity of (matched, other) in a block summand of the unitary
    modules (block_matchings_first(p, q, r) read in that factor order):
    the matchings module on the degree-r factor, whose constituents are the
    diagrams with all rows even, times the sign inductions on the rest."""
    if r % 2 or min(p, q) < r // 2 or any(row % 2 for row in matched):
        return 0
    return sign_induction_multiplicity(other, p - r // 2, q - r // 2)


def count_unipotent(group: GroupSpec, orbit: OrbitSpec) -> int:
    """Number of special unipotent representations of the group attached to
    the orbit.

    Real general/special linear kinds are counted by explicit enumeration.
    The unitary and complex kinds count the multiplicity of the cell label
    in the coherent continuation module, computed directly, without
    building the module.

    Unitary kinds: the cell is (a, b) = (transpose of the even rows,
    transpose of the odd rows), with |a| = n_h and |b| = n_0. The two block
    summands contribute _block(p, q, n_h, a, b) + _block(p, q, n_0, b, a),
    where the sign-induction factor is read off by the Pieri rule for
    vertical strips (Macdonald, Symmetric Functions and Hall Polynomials,
    I.(5.16)-(5.17); see sign_induction_multiplicity). The diagonal
    summands of SU never contain the cell, so SU and the double cover share
    this formula. Proof: the largest part of transpose(d) is the number of
    rows of d, and it occurs as many times as the smallest row of d is
    long. That is even for a (built from even rows) and odd for b (built
    from odd rows), so a != b unless both are empty, i.e. n = 0, which no
    group allows. A diagonal key (x, x) therefore never equals (a, b).

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
    _validate(group, orbit)
    if kind is GroupKind.GL_R:
        return prod(m + 1 for m in row_profile(orbit.first).mults)
    if kind is GroupKind.SL_R:
        return len(sl_r_enumerate(orbit.first))
    if kind in COMPLEX_KINDS:
        return int(orbit.first == orbit.second)
    n_h, n_0 = coset_signature(orbit.first)
    a, b = cell_rep(kind, orbit)
    p, q = group.p, group.q
    return _block(p, q, n_h, a, b) + _block(p, q, n_0, b, a)


def verify_counting_equality(p: int, q: int, orbit: Diagram) -> bool:
    """Whether the SU(p, q) count and the double-cover count agree at the
    orbit: the cell multiplicities in the two built modules, and the direct
    counts of both groups."""
    orbit = check_diagram(orbit)
    if sum(orbit) != p + q:
        raise DegreeMismatchError(
            f"orbit size {sum(orbit)} does not match p + q = {p + q}"
        )
    spec = OrbitSpec(orbit)
    sig = coset_signature(orbit)
    cell = cell_rep(GroupKind.SU, spec)
    su = coh_su(p, q, sig).multiplicity(cell)
    cover = coh_u_cover(p, q, sig).multiplicity(cell)
    direct_su = count_unipotent(make_group(GroupKind.SU, p=p, q=q), spec)
    direct_cover = count_unipotent(make_group(GroupKind.U_COVER, p=p, q=q), spec)
    return su == cover == direct_su == direct_cover


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
    """JSON-ready record of an enumeration query (real kinds only)."""
    if group.kind not in ENUMERATED_KINDS:
        raise UnsupportedGroupError(
            f"explicit enumeration is only available for gl-r and sl-r, not {group.kind.value}"
        )
    _validate(group, orbit)
    rows = []
    if group.kind is GroupKind.GL_R:
        for index, desc in enumerate(gl_r_params(orbit.first)):
            rows.append(
                {
                    "index": index,
                    "blocks": [[size, tag] for size, tag in desc.blocks],
                    "a": list(desc.a),
                }
            )
    else:
        for index, param in enumerate(sl_r_enumerate(orbit.first)):
            rows.append(
                {
                    "index": index,
                    "blocks": [[size, tag] for size, tag in param.descriptor.blocks],
                    "a": list(param.descriptor.a),
                    "sign": param.sign,
                }
            )
    return {
        "group": group_record(group),
        "orbit": orbit_record(orbit),
        "count": len(rows),
        "params": rows,
    }
