"""Brute-force verifiers, deliberately independent of the closed forms and
recursions they certify: fixed-point counts on explicit matchings, the
induced-character fusion formula with inner-product decompositions,
Littlewood-Richardson coefficients by lattice-word tableaux, orthogonality
sweeps, exhaustive parameter enumeration, and the SU(p, q) against
double-cover counting equality.

Oracle bounds are conservative defaults; exceeding one raises instead of
approximating.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product
from math import factorial, prod
from typing import Iterator, Sequence

from . import unipotent, weylmodules
from .diagrams import (
    Diagram,
    RowProfile,
    all_diagrams,
    check_diagram,
    coset_signature,
    diagram_text,
    even_odd_split,
    row_profile,
    row_union,
    transpose,
)
from .errors import DegreeMismatchError, OracleBoundError
from .symreps import (
    ClassFunction,
    centralizer_order,
    character_table,
    inner_product,
    irrep_dimension,
)

MATCHINGS_BOUND = 4
ORTHOGONALITY_BOUND = 8


def all_matchings(r: int) -> list[frozenset[frozenset[int]]]:
    """Every perfect matching of {1, ..., 2r}, as a frozenset of pairs."""

    def build(items: tuple[int, ...]) -> Iterator[tuple[frozenset[int], ...]]:
        if not items:
            yield ()
            return
        first, rest = items[0], items[1:]
        for i, other in enumerate(rest):
            pair = frozenset((first, other))
            for more in build(rest[:i] + rest[i + 1 :]):
                yield (pair, *more)

    return [frozenset(m) for m in build(tuple(range(1, 2 * r + 1)))]


def class_representative(cls: Diagram) -> dict[int, int]:
    """A permutation of cycle type cls on {1, ..., n}, as an image map, with
    cycles laid out consecutively."""
    perm: dict[int, int] = {}
    start = 1
    for part in cls:
        cycle = list(range(start, start + part))
        for i, x in enumerate(cycle):
            perm[x] = cycle[(i + 1) % part]
        start += part
    return perm


@cache
def irreducible_character(label: Diagram) -> ClassFunction:
    """The irreducible character as a class function, built once per label.
    Callers share the result and must not mutate its values."""
    label = check_diagram(label)
    return ClassFunction(sum(label), dict(character_table(sum(label))[label]))


def matchings_character(r: int, bound: int = MATCHINGS_BOUND) -> ClassFunction:
    """Permutation character of S_{2r} on perfect matchings, by explicit
    fixed-point counting on one representative per class."""
    if r > bound:
        raise OracleBoundError(f"matchings oracle bound exceeded: r = {r} > {bound}")
    matchings = all_matchings(r)
    values = {}
    for cls in all_diagrams(2 * r):
        perm = class_representative(cls)
        values[cls] = sum(
            1
            for m in matchings
            if frozenset(frozenset(perm[x] for x in pair) for pair in m) == m
        )
    return ClassFunction(2 * r, values)


def _sub_multisets(counts: dict[int, int], target: int) -> Iterator[dict[int, int]]:
    """Sub-multisets of a {part: count} multiset with the given total size."""
    parts = sorted(counts)

    def rec(idx: int, remaining: int) -> Iterator[dict[int, int]]:
        if remaining == 0:
            yield {}
            return
        if idx == len(parts):
            return
        part = parts[idx]
        for take in range(min(counts[part], remaining // part) + 1):
            for rest in rec(idx + 1, remaining - take * part):
                if take:
                    out = dict(rest)
                    out[part] = take
                    yield out
                else:
                    yield rest

    yield from rec(0, target)


def _class_splits(
    counts: dict[int, int], degrees: Sequence[int]
) -> Iterator[tuple[dict[int, int], ...]]:
    if len(degrees) == 1:
        if sum(p * c for p, c in counts.items()) == degrees[0]:
            yield (counts,)
        return
    for sub in _sub_multisets(counts, degrees[0]):
        remaining = {
            p: c - sub.get(p, 0) for p, c in counts.items() if c - sub.get(p, 0) > 0
        }
        for tail in _class_splits(remaining, degrees[1:]):
            yield (sub, *tail)


def _counts_to_class(counts: dict[int, int]) -> Diagram:
    out: list[int] = []
    for part in sorted(counts, reverse=True):
        out.extend([part] * counts[part])
    return tuple(out)


def induced_character(
    sub_degrees: Sequence[int], sub_characters: Sequence[ClassFunction]
) -> ClassFunction:
    """Character induced to S_n from a product of symmetric subgroups, by the
    class-fusion formula with centralizer-order weights."""
    sub_degrees = tuple(int(d) for d in sub_degrees)
    if len(sub_degrees) != len(sub_characters) or not sub_degrees:
        raise DegreeMismatchError("one class function per factor is required")
    for d, f in zip(sub_degrees, sub_characters):
        if f.degree != d:
            raise DegreeMismatchError(
                f"factor degree {d} does not match class function degree {f.degree}"
            )
    n = sum(sub_degrees)
    values = {}
    for cls in all_diagrams(n):
        counts = dict(Counter(cls))
        total = Fraction(0)
        for split in _class_splits(counts, sub_degrees):
            subclasses = [_counts_to_class(s) for s in split]
            weight = Fraction(
                centralizer_order(cls),
                prod(centralizer_order(sc) for sc in subclasses),
            )
            total += weight * prod(
                f.values[sc] for f, sc in zip(sub_characters, subclasses)
            )
        assert total.denominator == 1
        values[cls] = int(total)
    return ClassFunction(n, values)


def lr_coefficient(lam: Diagram, mu: Diagram, nu: Diagram) -> int:
    """Littlewood-Richardson coefficient of nu in the product of lam and mu.

    Counts column-strict skew tableaux of shape nu/lam and content mu whose
    reverse reading word is a lattice word. The target size must match.
    """
    lam, mu, nu = check_diagram(lam), check_diagram(mu), check_diagram(nu)
    if sum(nu) != sum(lam) + sum(mu):
        raise DegreeMismatchError(
            f"target size {sum(nu)} differs from {sum(lam)} + {sum(mu)}"
        )
    return _lr(lam, mu, nu)


@cache
def _lr(lam: Diagram, mu: Diagram, nu: Diagram) -> int:
    nrows = len(nu)
    if len(lam) > nrows or any(lam[i] > nu[i] for i in range(len(lam))):
        return 0
    inner = tuple(lam[i] if i < len(lam) else 0 for i in range(nrows))
    # Reverse reading order: rows top to bottom, cells right to left. Both
    # neighbors that constrain a cell are then already filled, and the
    # lattice condition can be checked prefix by prefix.
    cells = [(i, j) for i in range(nrows) for j in range(nu[i] - 1, inner[i] - 1, -1)]
    nvals = len(mu)
    counts = [0] * nvals
    filling: dict[tuple[int, int], int] = {}

    def fill(idx: int) -> int:
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        lo = 1
        if i > 0 and j >= inner[i - 1]:
            lo = filling[i - 1, j] + 1
        hi = filling[i, j + 1] if j + 1 < nu[i] else nvals
        total = 0
        for v in range(lo, hi + 1):
            if counts[v - 1] >= mu[v - 1]:
                continue
            if v > 1 and counts[v - 2] <= counts[v - 1]:
                continue
            counts[v - 1] += 1
            filling[i, j] = v
            total += fill(idx + 1)
            counts[v - 1] -= 1
        return total

    return fill(0)


def decompose(cf: ClassFunction) -> dict[Diagram, int]:
    """Multiplicity of every irreducible in a class function, by inner
    products; multiplicities must come out integral."""
    out = {}
    for lam in all_diagrams(cf.degree):
        mult = inner_product(irreducible_character(lam), cf)
        assert mult.denominator == 1
        if mult:
            out[lam] = int(mult)
    return out


def orthogonality_check(
    n: int, table: dict[Diagram, dict[Diagram, int]] | None = None
) -> bool:
    """Whether both orthogonality relations hold exactly for the degree-n
    character table (optionally a supplied one, for negative tests)."""
    if n > ORTHOGONALITY_BOUND:
        raise OracleBoundError(
            f"orthogonality sweep bound exceeded: n = {n} > {ORTHOGONALITY_BOUND}"
        )
    labels = all_diagrams(n)
    if table is None:
        table = character_table(n)
    for a in labels:
        for b in labels:
            got = sum(
                Fraction(table[a][mu] * table[b][mu], centralizer_order(mu))
                for mu in labels
            )
            if got != (1 if a == b else 0):
                return False
    for mu in labels:
        for nu in labels:
            got = sum(table[lam][mu] * table[lam][nu] for lam in labels)
            if got != (centralizer_order(mu) if mu == nu else 0):
                return False
    return True


def parameter_tuples(profile: RowProfile) -> tuple[tuple[int, ...], ...]:
    """The full parameter box, 0..m_l in each coordinate, in lexicographic
    order by explicit cartesian product."""
    return tuple(product(*(range(m + 1) for m in profile.mults)))


def verify_counting_equality(p: int, q: int, orbit: Diagram) -> bool:
    """Whether the SU(p, q) count and the double-cover count agree at the
    orbit: the cell multiplicities in the two built modules, and the direct
    counts of both groups."""
    su = unipotent.make_group(unipotent.GroupKind.SU, p=p, q=q)
    cover = unipotent.make_group(unipotent.GroupKind.U_COVER, p=p, q=q)
    spec = unipotent.OrbitSpec(orbit)
    cell = unipotent.cell_rep(su, spec)
    return (
        unipotent.coherent_module(su, spec).multiplicity(cell)
        == unipotent.coherent_module(cover, spec).multiplicity(cell)
        == unipotent.count_unipotent(su, spec)
        == unipotent.count_unipotent(cover, spec)
    )


def run_checks(max_size: int = 8) -> list[dict]:
    """Cross-validation sweeps over every closed form in the engine.

    Returns one report entry per (check, instance), each a dict with keys
    check, instance, expected, actual, pass. Instances aggregate the inner
    loops of a sweep; a failing instance reports its first mismatch.
    """
    report: list[dict] = []

    def entry(check: str, instance: str, expected, actual) -> None:
        report.append(
            {
                "check": check,
                "instance": instance,
                "expected": str(expected),
                "actual": str(actual),
                "pass": str(expected) == str(actual),
            }
        )

    def mismatch_summary(bad: list[str]) -> str:
        if not bad:
            return "0 mismatches"
        return f"{len(bad)} mismatches; first: {bad[0]}"

    for n in range(0, min(max_size, 12) + 1):
        bad = [
            diagram_text(d)
            for d in all_diagrams(n)
            if transpose(transpose(d)) != d
        ]
        entry("transpose-involution", f"n={n}", "0 mismatches", mismatch_summary(bad))

    for n in range(0, max_size + 1):
        bad = []
        for d in all_diagrams(n):
            even, odd = even_odd_split(d)
            if row_union(even, odd) != d:
                bad.append(diagram_text(d))
        entry("split-union-roundtrip", f"n={n}", "0 mismatches", mismatch_summary(bad))

    for n in range(1, min(max_size, ORTHOGONALITY_BOUND) + 1):
        entry("orthogonality", f"n={n}", True, orthogonality_check(n))

    for n in range(1, min(max_size, 10) + 1):
        identity = (1,) * n
        bad = [
            diagram_text(lam)
            for lam in all_diagrams(n)
            if character_table(n)[lam][identity] != irrep_dimension(lam)
        ]
        entry("hook-dimension", f"n={n}", "0 mismatches", mismatch_summary(bad))

    for n in range(1, min(max_size, 10) + 1):
        total = sum(irrep_dimension(lam) ** 2 for lam in all_diagrams(n))
        entry("dimension-squares", f"n={n}", factorial(n), total)

    for r in range(0, min(max_size // 2, MATCHINGS_BOUND) + 1):
        closed = {key[0]: m for key, m in weylmodules.matchings_module(r).mults.items()}
        brute = decompose(matchings_character(r))
        entry("matchings-decomposition", f"r={r}", closed, brute)

    for r in range(0, min(max_size // 2, 5) + 1):
        expected = factorial(2 * r) // (2**r * factorial(r))
        entry(
            "matchings-dimension",
            f"r={r}",
            expected,
            weylmodules.matchings_module(r).dimension(),
        )

    for total in range(1, min(max_size, 8) + 1):
        bad = []
        for a in range(0, total + 1):
            b = total - a
            for lam in all_diagrams(a):
                for mu in all_diagrams(b):
                    induced = induced_character(
                        (a, b), (irreducible_character(lam), irreducible_character(mu))
                    )
                    for nu in all_diagrams(total):
                        frob = inner_product(irreducible_character(nu), induced)
                        lr = lr_coefficient(lam, mu, nu)
                        if frob != lr:
                            bad.append(
                                f"({diagram_text(lam)})*({diagram_text(mu)})"
                                f"->({diagram_text(nu)}): {frob} vs {lr}"
                            )
        entry("lr-frobenius", f"|lam|+|mu|={total}", "0 mismatches", mismatch_summary(bad))

    for n in range(1, max_size + 1):
        bad = []
        for orbit in all_diagrams(n):
            group = unipotent.make_group(unipotent.GroupKind.GL_R, n=n)
            params = unipotent.enumeration_record(group, unipotent.OrbitSpec(orbit))["params"]
            got = tuple(tuple(row["a"]) for row in params)
            if got != parameter_tuples(row_profile(orbit)):
                bad.append(diagram_text(orbit))
        entry("parameter-enumeration", f"n={n}", "0 mismatches", mismatch_summary(bad))

    for n in range(2, max_size + 1):
        bad = []
        for orbit in all_diagrams(n):
            mults = row_profile(orbit).mults
            e = 1 if all(m % 2 == 0 for m in mults) else 0
            formula = (prod(m + 1 for m in mults) + 3 * e) // 2
            group = unipotent.make_group(unipotent.GroupKind.SL_R, n=n)
            params = unipotent.enumeration_record(group, unipotent.OrbitSpec(orbit))["params"]
            if len(params) != formula:
                bad.append(diagram_text(orbit))
        entry("sl-count-formula", f"n={n}", "0 mismatches", mismatch_summary(bad))

    for n in range(0, min(max_size, 8) + 1):
        bad = []
        for n_h in range(0, n + 1):
            sig = (n_h, n - n_h)
            dim = weylmodules.coh_gl_complex(sig).dimension()
            if dim != factorial(n_h) * factorial(n - n_h):
                bad.append(f"sig={sig}")
        entry("regular-dimension", f"n={n}", "0 mismatches", mismatch_summary(bad))

    for n in range(1, max_size + 1):
        bad = []
        for orbit in all_diagrams(n):
            for p in range(0, n + 1):
                if not verify_counting_equality(p, n - p, orbit):
                    bad.append(f"(p,q)=({p},{n - p}) orbit={diagram_text(orbit)}")
        entry("counting-equality", f"n={n}", "0 mismatches", mismatch_summary(bad))

    for n in range(1, max_size + 1):
        bad = []
        for orbit in all_diagrams(n):
            n_h, n_0 = coset_signature(orbit)
            if n_h != n_0 or n_h == 0:
                continue
            su = unipotent.make_group(unipotent.GroupKind.SU, p=n, q=0)
            cell = unipotent.cell_rep(su, unipotent.OrbitSpec(orbit))
            if weylmodules.diagonal_module(n_h).multiplicity(cell) != 0:
                bad.append(diagram_text(orbit))
        entry("diagonal-zero", f"n={n}", "0 mismatches", mismatch_summary(bad))

    return report
