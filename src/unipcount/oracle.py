"""Brute-force verifiers, deliberately independent of the closed forms and
recursions they certify: fixed-point counts on explicit matchings, the
induced-character fusion formula with inner-product decompositions,
Littlewood-Richardson coefficients by lattice-word tableaux, orthogonality
sweeps, exhaustive parameter enumeration, and the SU(p, q) against
double-cover counting equality.

Oracle bounds are conservative defaults; exceeding one raises instead of
approximating.
"""

from functools import cache
from itertools import product
from math import factorial, prod
from operator import getitem, gt, mul
from typing import Iterator, Sequence

from . import unipotent, weylmodules
from .diagrams import (
    Diagram,
    RowProfile,
    all_diagrams,
    check_diagram,
    coset_signature,
    diagram_text,
    parity_halves,
    row_profile,
    transpose,
)
from .errors import DegreeMismatchError, InvalidPartitionError, OracleBoundError, whole_numbers
from .symreps import ClassFunction, _table, centralizer_order, irrep_dimension

MATCHINGS_BOUND = 4
ORTHOGONALITY_BOUND = 8
# The largest degree whose character table run_checks reads: hook-dimension's
# cap. Orthogonality, matchings and lr-frobenius read only tables up to 8.
TABLE_BOUND = 10
_SU_AND_COVER = (unipotent.GroupKind.SU, unipotent.GroupKind.U_COVER)


def _matchings_rank(r: int) -> int:
    """r as an int when it is a whole number >= 0; DegreeMismatchError otherwise."""
    what = "a matchings rank must be a whole number >= 0"
    (rank,) = whole_numbers((r,), DegreeMismatchError, what)
    if rank < 0:
        raise DegreeMismatchError(f"{what}, got {r!r}")
    return rank


def all_matchings(r: int) -> list[frozenset[frozenset[int]]]:
    """Every perfect matching of {1, ..., 2r}, as a frozenset of pairs."""
    r = _matchings_rank(r)

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
    for part in check_diagram(cls):
        cycle = list(range(start, start + part))
        for i, x in enumerate(cycle):
            perm[x] = cycle[(i + 1) % part]
        start += part
    return perm


def matchings_character(r: int) -> ClassFunction:
    """Permutation character of S_{2r} on perfect matchings, by explicit
    fixed-point counting on one representative per class."""
    r = _matchings_rank(r)
    if r > MATCHINGS_BOUND:
        raise OracleBoundError(f"matchings oracle bound exceeded: r = {r} > {MATCHINGS_BOUND}")
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


@cache
def _fusion(sub_degrees: tuple[int, ...]) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
    """For every class of S_n, in all_diagrams order, the (weight,
    positions) terms of the class-fusion formula from the product of the S_d
    for d in sub_degrees. The positions pick one subclass of each factor, in
    all_diagrams(d) order; the subclasses fuse into one class, the union of
    their cycles, and the weight z_G(cls) / prod z_H(sc) is the integer
    index [C_G(h) : C_H(h)]."""
    classes = all_diagrams(sum(sub_degrees))
    terms: list[list] = [[] for _ in classes]
    index = {cls: i for i, cls in enumerate(classes)}
    factors = [all_diagrams(d) for d in sub_degrees]
    for positions in product(*(range(len(f)) for f in factors)):
        subclasses = [f[i] for f, i in zip(factors, positions)]
        cls = tuple(sorted(sum(subclasses, ()), reverse=True))
        weight, rem = divmod(centralizer_order(cls), prod(map(centralizer_order, subclasses)))
        if rem:  # an explicit raise: python -O strips an assert
            raise AssertionError(f"the centralizer of {cls} has no integer index over {subclasses}")
        terms[index[cls]].append((weight, positions))
    return tuple(map(tuple, terms))


def induced_character(
    sub_degrees: Sequence[int], sub_characters: Sequence[ClassFunction]
) -> ClassFunction:
    """Character induced to S_n from a product of symmetric subgroups, by the
    class-fusion formula. Its weights are the integer indices of the subgroup
    centralizers C_H(h) in C_G(h), taken once per degree tuple."""
    sub_degrees = whole_numbers(sub_degrees, DegreeMismatchError, "factor degrees must be whole numbers")
    characters = sub_characters if isinstance(sub_characters, (tuple, list)) else ()
    if not sub_degrees or [type(f) for f in characters] != [ClassFunction] * len(sub_degrees):
        raise DegreeMismatchError("one class function per factor is required")
    for d, f in zip(sub_degrees, sub_characters):
        if f.degree != d:
            raise DegreeMismatchError(
                f"factor degree {d} does not match class function degree {f.degree}"
            )
    n = sum(sub_degrees)
    row = _induce(sub_degrees, [_row(f) for f in sub_characters])
    return ClassFunction(n, dict(zip(all_diagrams(n), row)))


def _row(cf: ClassFunction) -> tuple[int, ...]:
    """The values of a class function in all_diagrams order, as a table row."""
    return tuple(map(cf.values.__getitem__, all_diagrams(cf.degree)))


def _induce(sub_degrees: tuple[int, ...], rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The fusion sum: the induced character's row, from the row of one
    character per factor."""
    return tuple(
        sum(weight * prod(map(getitem, rows, positions)) for weight, positions in terms)
        for terms in _fusion(sub_degrees)
    )


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
    # Zero unless both lam and mu fit inside nu (Macdonald I.(5.16)-(5.17), I.9).
    nrows = len(nu)
    if len(lam) > nrows or len(mu) > nrows or any(map(gt, lam, nu)) or any(map(gt, mu, nu)):
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


@cache
def _class_sizes(n: int) -> tuple[int, ...]:
    """n! / z_mu for every conjugacy class mu of S_n, in all_diagrams order."""
    nfact = factorial(n)
    return tuple(nfact // centralizer_order(mu) for mu in all_diagrams(n))


def _pairings(n: int, values: Sequence[int]) -> Iterator[tuple[Diagram, int]]:
    """(lam, n! times the multiplicity of chi^lam in the degree-n class
    function with this row of values) for every label lam: the integer sum
    over classes of (n! / z_mu) * values[mu] * chi^lam(mu), weighted once."""
    weighted = list(map(mul, _class_sizes(n), values))
    for lam, row in _table(n).items():
        yield lam, sum(map(mul, weighted, row))


def decompose(cf: ClassFunction) -> dict[Diagram, int]:
    """Multiplicity of every irreducible in a class function, by inner
    products; multiplicities must come out integral."""
    if not isinstance(cf, ClassFunction):
        raise DegreeMismatchError(f"decompose takes a ClassFunction, got {cf!r}")
    nfact = factorial(cf.degree)
    out = {}
    for lam, pairing in _pairings(cf.degree, _row(cf)):
        mult, rem = divmod(pairing, nfact)
        if rem:
            raise AssertionError(f"not a character: {diagram_text(lam)} has multiplicity {pairing}/{nfact}")
        if mult:
            out[lam] = mult
    return out


def orthogonality_check(n: int) -> bool:
    """Whether both orthogonality relations hold exactly for the degree-n
    character table."""
    (n,) = whole_numbers((n,), InvalidPartitionError, "cannot partition a total that is not a whole number")
    if n > ORTHOGONALITY_BOUND:
        raise OracleBoundError(f"orthogonality sweep bound exceeded: n = {n} > {ORTHOGONALITY_BOUND}")
    labels = all_diagrams(n)
    rows = list(_table(n).values())
    nfact = factorial(n)
    for i, row in enumerate(rows):
        if any(pairing != (nfact if i == j else 0) for j, (_, pairing) in enumerate(_pairings(n, row))):
            return False
    columns = list(zip(*rows))
    for i, col in enumerate(columns):
        for j, other in enumerate(columns):
            if sum(map(mul, col, other)) != (centralizer_order(labels[i]) if i == j else 0):
                return False
    return True


def parameter_tuples(profile: RowProfile) -> tuple[tuple[int, ...], ...]:
    """The full parameter box, 0..m_l in each coordinate, in lexicographic
    order by explicit cartesian product."""
    return tuple(product(*(range(m + 1) for m in profile.mults)))


def run_checks(max_size: int = 8) -> list[dict]:
    """Cross-validation sweeps over every closed form in the engine.

    Returns one report entry per (check, instance), each a dict with keys
    check, instance, expected, actual, pass. Instances aggregate the inner
    loops of a sweep; a failing instance reports how many mismatches it
    found and the first. Each check's sizes are written once below, capped
    by max_size and by the check's own bound. A max_size past the bound of
    all_diagrams is refused before the first sweep: split-union-roundtrip
    would reach it last.
    """
    all_diagrams(max_size)  # split-union-roundtrip lists these anyway
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

    def sweep(check: str, sizes: range, mismatches, label: str = "n") -> None:
        """One entry per size: how many mismatches(size) yields, and the first."""
        for n in sizes:
            bad = list(mismatches(n))
            first = f"; first: {bad[0]}" if bad else ""
            entry(check, f"{label}={n}", "0 mismatches", f"{len(bad)} mismatches{first}")

    def each_diagram(ok):
        """The mismatches of a check on one diagram at a time: the text of
        every diagram d of size n with ok(n, d) false."""
        return lambda n: (diagram_text(d) for d in all_diagrams(n) if not ok(n, d))

    sweep(
        "transpose-involution",
        range(0, min(max_size, 12) + 1),
        each_diagram(lambda n, d: transpose(transpose(d)) == d),
    )
    sweep("split-union-roundtrip", range(0, max_size + 1), each_diagram(_split_roundtrips))
    for n in range(1, min(max_size, ORTHOGONALITY_BOUND) + 1):
        entry("orthogonality", f"n={n}", True, orthogonality_check(n))
    sweep(
        "hook-dimension",
        range(1, min(max_size, TABLE_BOUND) + 1),
        each_diagram(lambda n, lam: irrep_dimension(lam) == _table(n)[lam][-1]),
    )
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
    sweep("lr-frobenius", range(1, min(max_size, 8) + 1), _lr_mismatches, label="|lam|+|mu|")
    sweep("parameter-enumeration", range(1, max_size + 1), each_diagram(_parameters_match))
    sweep("sl-count-formula", range(2, max_size + 1), each_diagram(_sl_count_matches))
    sweep("regular-dimension", range(0, min(max_size, 8) + 1), _regular_dimension_mismatches)
    sweep("counting-equality", range(1, max_size + 1), _counting_mismatches)
    sweep("diagonal-zero", range(1, max_size + 1), each_diagram(_diagonal_misses_cell))
    return report


def _lr_mismatches(total: int) -> Iterator[str]:
    """Every (lam, mu, nu) with |lam| + |mu| = total whose Frobenius pairing
    differs from the Littlewood-Richardson coefficient. The induced
    characters come straight from character table rows, and _lr skips a
    lam or mu that does not fit inside nu."""
    nfact = factorial(total)
    for a in range(0, total + 1):
        b = total - a
        table_a, table_b = _table(a), _table(b)
        for (lam, row_a), (mu, row_b) in product(table_a.items(), table_b.items()):
            induced = _induce((a, b), (row_a, row_b))
            # The labels come from all_diagrams, so _lr needs no checks.
            for nu, pairing in _pairings(total, induced):
                lr = _lr(lam, mu, nu)
                if pairing != lr * nfact:
                    # Imported only on a mismatch: a passing run never pays
                    # for fractions.
                    import fractions

                    frob = fractions.Fraction(pairing, nfact)
                    yield (
                        f"({diagram_text(lam)})*({diagram_text(mu)})"
                        f"->({diagram_text(nu)}): {frob} vs {lr}"
                    )


def _split_roundtrips(n: int, d: Diagram) -> bool:
    """Whether parity_halves(d) notes each half's odd multiplicities, and the
    halves' rows give d back; a row filed under the other parity is dropped."""
    lengths, mults, odd_mult = parity_halves(d)
    rows = [x for i in (0, 1) for x, m in zip(lengths[i], mults[i]) if x % 2 == i for _ in range(m)]
    return tuple(sorted(rows, reverse=True)) == d and odd_mult == [any(m % 2 for m in ms) for ms in mults]


def _parameters_match(n: int, orbit: Diagram) -> bool:
    group = unipotent.make_group(unipotent.GroupKind.GL_R, n=n)
    params = unipotent._real_params(group, unipotent.OrbitSpec(orbit))
    return tuple(a for a, _ in params) == parameter_tuples(row_profile(orbit))


def _sl_count_matches(n: int, orbit: Diagram) -> bool:
    group = unipotent.make_group(unipotent.GroupKind.SL_R, n=n)
    spec = unipotent.OrbitSpec(orbit)
    return sum(1 for _ in unipotent._real_params(group, spec)) == unipotent.count_unipotent(group, spec)


def _regular_dimension_mismatches(n: int) -> Iterator[str]:
    for n_h in range(0, n + 1):
        sig = (n_h, n - n_h)
        if weylmodules.coh_gl_complex(sig).dimension() != factorial(n_h) * factorial(n - n_h):
            yield f"sig={sig}"


def _counting_mismatches(n: int) -> Iterator[str]:
    """Every (p, q, orbit) of size n where the SU and double-cover counts
    disagree: the cell's multiplicity in each group's module, and each
    group's direct count. A module depends only on (p, q, coset signature),
    so each is built once."""
    groups = [
        [unipotent.make_group(kind, p=p, q=n - p) for kind in _SU_AND_COVER]
        for p in range(0, n + 1)
    ]
    modules: dict = {}
    for orbit in all_diagrams(n):
        spec = unipotent.OrbitSpec(orbit)
        cell = unipotent.cell_rep(groups[0][0], spec)
        sig = coset_signature(orbit)
        for p, pair in enumerate(groups):
            if (p, sig) not in modules:
                modules[p, sig] = [unipotent.coherent_module(g, spec) for g in pair]
            counts = {m.mults.get(cell, 0) for m in modules[p, sig]}
            counts.update(unipotent.count_unipotent(g, spec) for g in pair)
            if len(counts) != 1:
                yield f"(p,q)=({p},{n - p}) orbit={diagram_text(orbit)}"


def _diagonal_misses_cell(n: int, orbit: Diagram) -> bool:
    """Whether no diagonal summand holds the orbit's cell; only orbits with
    n_h = n_0 > 0 are tested."""
    n_h, n_0 = coset_signature(orbit)
    if n_h != n_0 or n_h == 0:
        return True
    su = unipotent.make_group(unipotent.GroupKind.SU, p=n, q=0)
    cell = unipotent.cell_rep(su, unipotent.OrbitSpec(orbit))
    return cell not in weylmodules.diagonal_module(n_h).mults
