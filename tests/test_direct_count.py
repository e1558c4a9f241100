"""The direct counts of count_unipotent against the built modules: the Pieri
multiplicity for su and u-tilde, and the closed form for gl-c and sl-c."""

from collections import Counter
from functools import cache
from itertools import permutations
from math import comb, prod
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import bead_set, block_multiplicity, even_odd_split, label_of, sign_induction_entry, strip_fillings
from unipcount import oracle, unipotent, weylmodules
from unipcount.diagrams import all_diagrams, coset_signature, transpose
from unipcount.errors import SizeBoundError
from unipcount.oracle import lr_coefficient
from unipcount.symreps import ClassFunction, _bead_moves, character_table
from unipcount.unipotent import OrbitSpec, cell_rep, count_unipotent, make_group
from unipcount.weylmodules import (
    coh_gl_complex,
    coh_sl_complex,
    coh_su,
    coh_u_cover,
    sign_induction_module,
)


def _module_counts(p, q, orbit):
    spec = OrbitSpec(orbit)
    sig = coset_signature(orbit)
    cell = cell_rep(make_group("su", p=p, q=q), spec)
    return coh_su(p, q, sig).multiplicity(cell), coh_u_cover(p, q, sig).multiplicity(cell)


def _direct_counts(p, q, orbit):
    spec = OrbitSpec(orbit)
    return (
        count_unipotent(make_group("su", p=p, q=q), spec),
        count_unipotent(make_group("u-tilde", p=p, q=q), spec),
    )


def _lr_sign_induction(p, q):
    """sign_induction_module(p, q) by the Littlewood-Richardson rule: the sum
    over k, over all-even tau of size 2k and over mu of
    c^mu_{tau, 1^(p-k)} c^nu_{mu, 1^(q-k)}."""
    out = {}
    for k in range(min(p, q) + 1):
        for tau in all_diagrams(2 * k):
            if any(row % 2 for row in tau):
                continue
            for mu in all_diagrams(p + k):
                c = lr_coefficient(tau, (1,) * (p - k), mu)
                if not c:
                    continue
                for nu in all_diagrams(p + q):
                    d = lr_coefficient(mu, (1,) * (q - k), nu)
                    if d:
                        out[(nu,)] = out.get((nu,), 0) + c * d
    return out


def test_sign_induction_module_matches_the_lr_expansion():
    for total in range(0, 11):
        for p in range(total + 1):
            assert sign_induction_module(p, total - p).mults == _lr_sign_induction(p, total - p)


@cache
def _remove_vertical_strips(nu, size):
    """Every diagram left by removing a vertical strip of the given size
    from nu. A vertical strip takes at most one box per row, so within each
    block of equal rows only the bottom j rows can lose their last box; the
    recursion cuts j boxes from the top block and the rest from the blocks
    below it."""
    if size > len(nu):
        return ()
    if not nu:
        return ((),)
    m = nu.count(nu[0])
    length, rest = nu[0], nu[m:]
    out = []
    for j in range(min(m, size) + 1):
        head = (length,) * (m - j)
        if length > 1:
            head += (length - 1,) * j
        out.extend(head + tail for tail in _remove_vertical_strips(rest, size - j))
    return tuple(out)


def _strip_chains(nu, p, q):
    """The Pieri count that weylmodules._pieri_count puts in closed form:
    chains that remove a vertical strip of size q-k, then one of size p-k,
    and end on a diagram with all rows even, over 0 <= k <= min(p, q)."""
    return sum(
        all(row % 2 == 0 for row in tau)
        for k in range(min(p, q) + 1)
        for mu in _remove_vertical_strips(nu, q - k)
        for tau in _remove_vertical_strips(mu, p - k)
    )


def test_sign_induction_entries_match_strip_chains():
    triples = 0
    for total in range(15):
        for nu in all_diagrams(total):
            for p in range(total + 1):
                assert sign_induction_entry(nu, p, total - p) == _strip_chains(nu, p, total - p), (nu, p)
                triples += 1
    assert triples == 6357
    # sign_induction_module(p, q) holds only diagrams of size p + q; the
    # chains above would count (2,) once for p = q = 0.
    assert sign_induction_entry((2,), 0, 0) == 0
    assert sign_induction_entry((3, 1), 1, 1) == 0


def _fixed_matchings(cls):
    """Perfect matchings fixed by a permutation of cycle type cls. The c
    cycles of length l pair up, 2j of them in (2j - 1)!! l^j ways, and each
    one left over matches its own points in one way when l is even (x with
    its image l/2 steps on) and in none when l is odd."""
    count = 1
    for length, c in Counter(cls).items():
        count *= sum(
            comb(c, 2 * j) * prod(range(2 * j - 1, 0, -2)) * length**j
            for j in range(c // 2 + 1)
            if length % 2 == 0 or 2 * j == c
        )
    return count


def test_fixed_matchings_closed_form_matches_the_matchings_oracle(monkeypatch):
    monkeypatch.setattr(oracle, "MATCHINGS_BOUND", 5)
    for r in range(6):
        brute = oracle.matchings_character(r).values
        assert {cls: _fixed_matchings(cls) for cls in all_diagrams(2 * r)} == brute, r


def _induced_row(degrees, rows):
    """The oracle's induced character from one row of values per factor,
    each row and the result in all_diagrams order."""
    factors = [ClassFunction(d, dict(zip(all_diagrams(d), row))) for d, row in zip(degrees, rows)]
    values = oracle.induced_character(degrees, factors).values
    return [values[cls] for cls in all_diagrams(sum(degrees))]


def test_sign_induction_character_matches_the_induced_matchings_class_by_class():
    # A character fixes its module, so sign induction is certified by one
    # identity per class mu of S_n, independent of the Pieri reasoning:
    # sum_nu m(nu; p, q) chi^nu(mu) is the sum over k of the character of
    # fix_k x sgn x sgn induced from S_2k x S_{p-k} x S_{q-k}, by the
    # class-fusion weights of the oracle. Every p + q <= 15.
    for n in range(1, 16):
        classes, table = all_diagrams(n), character_table(n)
        fixed = {d: [_fixed_matchings(cls) for cls in all_diagrams(d)] for d in range(0, n + 1, 2)}
        sign = {d: [(-1) ** (d - len(cls)) for cls in all_diagrams(d)] for d in range(n + 1)}
        for p in range(n + 1):
            q = n - p
            left = [0] * len(classes)
            for (nu,), m in sign_induction_module(p, q).mults.items():
                left = [x + m * value for x, value in zip(left, table[nu])]
            right = [0] * len(classes)
            for k in range(min(p, q) + 1):
                induced = _induced_row((2 * k, p - k, q - k), [fixed[2 * k], sign[p - k], sign[q - k]])
                right = list(map(add, right, induced))
            assert left == right, (p, q)


def _class_column(cls):
    """chi^nu(cls) for every label nu where it is not 0, by the
    Murnaghan-Nakayama rule run forward, one part of cls at a time, through
    the bead moves character_table is built from: one column of the table
    without the rest of it."""
    n = sum(cls)
    column = {bead_set((), n): 1}
    for part in cls:
        grown = {}
        for smaller, value in column.items():
            for larger, sign in _bead_moves(smaller, part):
                grown[larger] = grown.get(larger, 0) + sign * value
        column = {beads: v for beads, v in grown.items() if v}
    return {label_of(beads, n): v for beads, v in column.items()}


def test_class_column_matches_the_character_table():
    for n in range(9):
        table = character_table(n)
        for j, cls in enumerate(all_diagrams(n)):
            assert _class_column(cls) == {nu: row[j] for nu, row in table.items() if row[j]}, cls


@settings(deadline=None, max_examples=50)
@given(
    st.integers(16, 18).flatmap(
        lambda n: st.tuples(st.integers(0, n), st.just(n), st.sampled_from(all_diagrams(n)))
    )
)
def test_sign_induction_character_matches_the_induced_matchings_past_n_15(query):
    # The class-by-class identity of the exhaustive test above, at one random
    # class mu of S_n for 16 <= n = p + q <= 18. The bound is the oracle's
    # induced_character over every (p, q, k), not the character table: on a
    # 2-vCPU host under Python 3.11 the exhaustive sweep's inductions take about
    # 0.36 s to n = 15 and 1.1 s to n = 18, every table to n = 18 0.29 s.
    p, n, mu = query
    q = n - p
    left = sum(sign_induction_entry(nu, p, q) * value for nu, value in _class_column(mu).items())
    position = all_diagrams(n).index(mu)
    right = 0
    for k in range(min(p, q) + 1):
        rows = [
            [_fixed_matchings(cls) for cls in all_diagrams(2 * k)],
            [(-1) ** (p - k - len(cls)) for cls in all_diagrams(p - k)],
            [(-1) ** (q - k - len(cls)) for cls in all_diagrams(q - k)],
        ]
        right += _induced_row((2 * k, p - k, q - k), rows)[position]
    assert left == right, (p, q, mu)


# A label's row profile: up to five short blocks, and up to two odd-length
# blocks of multiplicity in the thousands, longer than every short one.
label_profiles = st.tuples(
    st.dictionaries(st.integers(1, 12), st.integers(1, 6), max_size=5),
    st.dictionaries(st.sampled_from((13, 15, 17)), st.integers(1000, 2500), max_size=2),
)


@settings(deadline=None, max_examples=25)
@given(label_profiles)
def test_strip_fillings_match_the_slice_sum_reference(profile):
    blocks = {**profile[0], **profile[1]}
    nu = tuple(length for length in sorted(blocks, reverse=True) for _ in range(blocks[length]))
    assert weylmodules._strip_fillings(nu) == (strip_fillings(nu),)


# A label's blocks in some order: up to eight distinct lengths up to 20, each
# up to six times.
shuffled_blocks = st.dictionaries(st.integers(1, 20), st.integers(1, 6), max_size=8).flatmap(
    lambda blocks: st.permutations(list(blocks.items()))
)


@given(shuffled_blocks)
def test_profile_fillings_do_not_depend_on_the_order_of_the_blocks(blocks):
    # Both products run over the blocks, so any order gives the fillings of
    # the label's row profile, longest row first.
    in_order = sorted(blocks, reverse=True)
    assert weylmodules._profile_fillings(blocks) == weylmodules._profile_fillings(in_order)
    assert weylmodules._profile_fillings(iter(blocks)) == strip_fillings(
        tuple(length for length, m in in_order for _ in range(m))
    )


@pytest.mark.parametrize("order", list(permutations([(2, 3), (1, 5), (3, 4)])))
def test_the_c_odd_refusal_names_every_row_of_the_label_in_any_order(monkeypatch, order):
    # Nine odd rows need a c_odd list of ten entries; the label has 12 rows.
    monkeypatch.setattr(weylmodules, "MAX_ROWS", 9)
    with pytest.raises(SizeBoundError, match="label of 12 rows"):
        weylmodules._profile_fillings(order)


def test_hermitian_direct_count_matches_module_multiplicity():
    for n in range(1, 11):
        for orbit in all_diagrams(n):
            for p in range(n + 1):
                assert _direct_counts(p, n - p, orbit) == _module_counts(p, n - p, orbit)


def test_hermitian_count_matches_block_multiplicity_reference():
    # The per-(p, q) sum count_unipotent used before its per-orbit record.
    for n in range(1, 15):
        for orbit in all_diagrams(n):
            a, b = map(transpose, even_odd_split(orbit))
            n_h, n_0 = coset_signature(orbit)
            for p in range(n + 1):
                q = n - p
                expected = block_multiplicity(p, q, n_h, a, b) + block_multiplicity(p, q, n_0, b, a)
                assert _direct_counts(p, q, orbit) == (expected, expected), (orbit, p)


def test_complex_closed_form_matches_module_multiplicity():
    for n in range(1, 11):
        orbits = all_diagrams(n)
        for kind, build in (("gl-c", coh_gl_complex), ("sl-c", coh_sl_complex)):
            if kind == "sl-c" and n < 2:
                continue
            group = make_group(kind, n=n)
            modules = {}
            for first in orbits:
                sig = coset_signature(first)
                if sig not in modules:
                    modules[sig] = build(sig)
                in_module = modules[sig].multiplicity(cell_rep(group, OrbitSpec(first, first)))
                for second in orbits:
                    expected = in_module if first == second else 0
                    assert count_unipotent(group, OrbitSpec(first, second)) == expected


def test_cell_components_differ():
    # The lemma behind both closed forms: transpose(even rows) and
    # transpose(odd rows) differ in the parity of the multiplicity of their
    # largest part, so they are never equal for a nonempty orbit.
    for n in range(1, 13):
        for orbit in all_diagrams(n):
            even, odd = map(transpose, even_odd_split(orbit))
            if even:
                assert even.count(even[0]) % 2 == 0
            if odd:
                assert odd.count(odd[0]) % 2 == 1
            assert even != odd


def test_count_builds_no_module(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("count_unipotent built a module or enumerated")

    unipotent._orbit_record.cache_clear()
    monkeypatch.setattr(weylmodules.ModuleDecomp, "__init__", refuse)
    monkeypatch.setattr(weylmodules, "_built", refuse)
    monkeypatch.setattr(unipotent, "_real_params", refuse)
    for orbit in all_diagrams(13):
        for p in (0, 6, 13):
            _direct_counts(p, 13 - p, orbit)
        for kind in ("gl-c", "sl-c"):
            count_unipotent(make_group(kind, n=13), OrbitSpec(orbit, orbit))
        for kind in ("gl-r", "sl-r"):
            count_unipotent(make_group(kind, n=13), OrbitSpec(orbit))


hermitian_queries = st.integers(1, 14).flatmap(
    lambda n: st.tuples(st.sampled_from(all_diagrams(n)), st.integers(0, n))
)


@settings(deadline=None)
@given(hermitian_queries)
def test_direct_count_property(query):
    orbit, p = query
    q = sum(orbit) - p
    su, cover = _direct_counts(p, q, orbit)
    assert su == cover
    assert (su, cover) == _module_counts(p, q, orbit)
