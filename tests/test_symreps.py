import gc
import json
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import cache
from hashlib import sha256
from math import factorial
from operator import mul

import pytest

from unipcount.diagrams import all_diagrams, transpose
from unipcount.errors import DegreeMismatchError, InvalidPartitionError
from reference import bead_set, chi, irreducible_character, label_of
from unipcount.oracle import lr_coefficient
from unipcount.symreps import (
    ClassFunction,
    _bead_moves,
    _table_rows,
    centralizer_order,
    character_table,
    irrep_dimension,
)


# Reference: the class-function inner product, (1/n!) times the sum over
# classes of class size * f * g. The oracle instead pairs characters by
# integer sums (oracle._pairings) and divides only where it must.
def inner_product(f, g):
    n = f.degree
    total = sum(
        factorial(n) // centralizer_order(mu) * f.values[mu] * g.values[mu]
        for mu in all_diagrams(n)
    )
    return Fraction(total, factorial(n))


def trivial_character(n):
    return ClassFunction(n, {mu: 1 for mu in all_diagrams(n)})


def sign_character(n):
    return ClassFunction(n, {mu: (-1) ** (n - len(mu)) for mu in all_diagrams(n)})


def regular_character(n):
    values = {mu: 0 for mu in all_diagrams(n)}
    values[(1,) * n] = factorial(n)
    return ClassFunction(n, values)


def test_trivial_and_sign_rows():
    for n in range(1, 7):
        for mu in all_diagrams(n):
            assert chi((n,), mu) == 1
    assert chi((1, 1), (2,)) == -1
    assert chi((1, 1), (1, 1)) == 1


def test_dimension_example():
    assert chi((2, 1), (1, 1, 1)) == 2
    assert irrep_dimension((2, 1)) == 2


def test_hook_dimensions_match_identity_column():
    for n in range(1, 9):
        identity = (1,) * n
        for lam in all_diagrams(n):
            assert chi(lam, identity) == irrep_dimension(lam)


def test_centralizer_orders_sum_to_group_order():
    for n in range(1, 9):
        assert sum(
            factorial(n) // centralizer_order(mu) for mu in all_diagrams(n)
        ) == factorial(n)


def test_first_orthogonality_small():
    for n in range(1, 7):
        for lam in all_diagrams(n):
            assert inner_product(
                irreducible_character(lam), irreducible_character(lam)
            ) == 1


def test_trivial_vs_sign_orthogonal():
    for n in range(2, 8):
        assert inner_product(trivial_character(n), sign_character(n)) == 0


def test_regular_character_decomposition():
    for n in range(1, 7):
        reg = regular_character(n)
        for lam in all_diagrams(n):
            assert inner_product(irreducible_character(lam), reg) == irrep_dimension(lam)


def test_class_function_must_cover_all_classes():
    with pytest.raises(DegreeMismatchError):
        ClassFunction(2, {(2,): 1})
    with pytest.raises(DegreeMismatchError):
        ClassFunction(2, {(2,): 1, (1, 1): 1, (3,): 1})


@pytest.mark.parametrize(
    "values",
    [{(2,): 0.5, (1, 1): 1.9}, {(2,): "1", (1, 1): 1}, {(2,): 1, (1, 1): 2.5}],
)
def test_class_function_refuses_values_that_are_not_whole(values):
    with pytest.raises(DegreeMismatchError, match="whole numbers"):
        ClassFunction(2, values)


@pytest.mark.parametrize("value", ["x", float("nan"), float("inf"), None, [1]])
def test_class_function_values_int_cannot_convert_raise_degree_mismatch(value):
    with pytest.raises(DegreeMismatchError, match="whole numbers, got " + re.escape(repr(value))):
        ClassFunction(2, {(2,): 1, (1, 1): value})


def test_class_function_coerces_whole_floats():
    cf = ClassFunction(2, {(2,): 1.0, (1, 1): -2.0})
    assert cf.values == {(2,): 1, (1, 1): -2}
    assert all(type(v) is int for v in cf.values.values())


def test_tensor_with_sign_transposes_label():
    for n in range(1, 9):
        sgn = sign_character(n)
        for lam in all_diagrams(n):
            for mu in all_diagrams(n):
                assert chi(lam, mu) * sgn.values[mu] == chi(transpose(lam), mu)


@pytest.mark.parametrize(
    "lam,mu,nu,expected",
    [
        ((2,), (1,), (2, 1), 1),
        ((2,), (1,), (3,), 1),
        ((2,), (1,), (1, 1, 1), 0),
        ((2, 1), (2, 1), (3, 2, 1), 2),
        ((1,), (1,), (2,), 1),
        ((1,), (1,), (1, 1), 1),
        ((1, 1), (1,), (2, 1), 1),
        ((1, 1), (1,), (1, 1, 1), 1),
        ((1, 1), (1,), (3,), 0),
        ((), (2,), (2,), 1),
    ],
)
def test_lr_coefficient_examples(lam, mu, nu, expected):
    assert lr_coefficient(lam, mu, nu) == expected


def test_lr_coefficient_size_mismatch_is_error():
    # the target must have size |lam| + |mu|; a mismatched target is a
    # contract violation, not a zero
    with pytest.raises(DegreeMismatchError):
        lr_coefficient((2,), (1,), (2, 2))




def test_sum_of_squared_dimensions():
    for n in range(1, 9):
        assert sum(irrep_dimension(lam) ** 2 for lam in all_diagrams(n)) == factorial(n)


def test_inner_products_clear_to_integers():
    for n in range(1, 6):
        cf = regular_character(n)
        for lam in all_diagrams(n):
            value = inner_product(irreducible_character(lam), cf)
            assert isinstance(value, Fraction) and value.denominator == 1


def test_inner_product_stays_exact_when_it_does_not_clear():
    # the class-size sum is 2 * 1 * 1 + 1 * 1 * 0 = 1, over 2!
    half = ClassFunction(2, {(2,): 1, (1, 1): 0})
    assert inner_product(trivial_character(2), half) == Fraction(1, 2)


def test_character_table_disk_cache_roundtrip(tmp_path):
    import unipcount.symreps as symreps

    fresh = character_table(6)
    symreps._TABLES.pop(6, None)
    written = character_table(6, cache_dir=tmp_path)
    assert written == fresh
    assert (tmp_path / "chartable_6.json").is_file()
    symreps._TABLES.pop(6, None)
    loaded = character_table(6, cache_dir=tmp_path)
    assert loaded == fresh


def test_character_table_takes_only_a_whole_degree(tmp_path):
    assert character_table(3.0, cache_dir=tmp_path) == character_table(3)
    assert [p.name for p in tmp_path.iterdir()] == ["chartable_3.json"]
    for n in [2.5, "3", None, float("nan"), (2, 1)]:
        with pytest.raises(InvalidPartitionError, match="not a whole number"):
            character_table(n)
    with pytest.raises(InvalidPartitionError, match="negative total: -1"):
        character_table(-1)


def test_the_internal_reader_serves_the_table_character_table_keeps():
    import unipcount.symreps as symreps

    table = character_table(5)
    assert symreps._table(5) is table
    symreps._TABLES.pop(6, None)
    built = symreps._table(6)  # not memoized: built through character_table
    assert built is symreps._TABLES[6] and built is character_table(6)


def test_character_table_ignores_corrupt_cache(tmp_path):
    (tmp_path / "chartable_5.json").write_text("{not json")
    import unipcount.symreps as symreps

    symreps._TABLES.pop(5, None)
    table = character_table(5, cache_dir=tmp_path)
    symreps._TABLES.pop(5, None)
    assert table == character_table(5)


@pytest.mark.parametrize("held", [[[1]], 3], ids=["a JSON list", "the degree-3 table"])
def test_character_table_rebuilds_a_cache_file_of_another_table(tmp_path, held):
    # Valid JSON that is not the degree-4 table is a miss: the table is
    # rebuilt, and its file rewritten.
    import unipcount.symreps as symreps

    path = tmp_path / "chartable_4.json"
    path.write_text(json.dumps(held if isinstance(held, list) else _table_rows(character_table(held))))
    assert symreps._load_table(4, tmp_path) is None
    symreps._TABLES.pop(4, None)
    assert character_table(4, cache_dir=tmp_path) == symreps._build_table(4)
    assert json.loads(path.read_text()) == json.loads(json.dumps(_table_rows(character_table(4))))


def test_character_table_rejects_booleans_in_cache(tmp_path):
    # JSON true loads as a bool, which isinstance(v, int) would let through.
    import unipcount.symreps as symreps

    path = tmp_path / "chartable_3.json"
    character_table(3, cache_dir=tmp_path)
    path.write_text(path.read_text().replace("[1, 1, 1]", "[1, true, 1]", 1))
    assert symreps._load_table(3, tmp_path) is None
    symreps._TABLES.pop(3, None)
    table = character_table(3, cache_dir=tmp_path)
    assert all(type(chi(lam, mu, table)) is int for lam in all_diagrams(3) for mu in all_diagrams(3))
    assert "true" not in path.read_text()


def test_character_table_stores_a_memoized_table(tmp_path):
    import unipcount.symreps as symreps

    memo = character_table(5)
    assert character_table(5, cache_dir=tmp_path) is memo
    assert (tmp_path / "chartable_5.json").is_file()
    symreps._TABLES.pop(5, None)
    assert character_table(5, cache_dir=tmp_path) == memo


def test_character_table_repairs_a_corrupt_file_for_a_memoized_table(tmp_path):
    import unipcount.symreps as symreps

    memo = character_table(5)
    path = tmp_path / "chartable_5.json"
    path.write_text("{not json")
    assert character_table(5, cache_dir=tmp_path) is memo
    assert symreps._load_table(5, tmp_path) == memo


def test_character_table_store_is_atomic(tmp_path, monkeypatch):
    import os

    import unipcount.symreps as symreps

    character_table(4, cache_dir=tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["chartable_4.json"]
    before = (tmp_path / "chartable_4.json").read_bytes()

    # A store that fails before its rename leaves the old file as it was and
    # no temp file behind.
    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", fail)
    classes = all_diagrams(4)
    table = {lam: tuple(99 if lam == mu == (4,) else chi(lam, mu) for mu in classes) for lam in classes}
    assert chi((4,), (4,), table) == 99
    with pytest.raises(OSError, match="rename refused"):
        symreps._store_table(4, table, tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["chartable_4.json"]
    assert (tmp_path / "chartable_4.json").read_bytes() == before


# Reference: the Murnaghan-Nakayama rule run backward, pulling one memoized
# value per (label, class suffix) by removing border strips. The engine ran
# it this way before it built tables a column at a time.
def _strip_removals(label, length):
    """(smaller label, height) for every removable border strip: one beta
    number moves down by the length, jumping over `height` others."""
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
def _mn(label, cls):
    if not cls:
        return 1
    length, rest = cls[0], cls[1:]
    return sum((-1) ** h * _mn(smaller, rest) for smaller, h in _strip_removals(label, length))


def test_character_table_matches_the_strip_removal_recursion():
    # Each label's row is a tuple of its values at the classes, labels and
    # classes both in all_diagrams order.
    for n in range(0, 13):
        labels = all_diagrams(n)
        table = character_table(n)
        assert list(table) == list(labels)
        for lam in labels:
            assert table[lam] == tuple(_mn(lam, mu) for mu in labels)
            assert type(table[lam]) is tuple


# SHA-256 of json.dumps(_table_rows(character_table(n))), the text of a
# cache file, past the bound of the _mn recursion and of CHARTABLE_SHA256;
# recorded from the label-tuple build that preceded the bead moves.
TABLE_ROWS_SHA256 = {
    13: "71e4ef96c3d92036ed8689ba0ac7349747e4a92b550e202d92f864cc1ad9e18f",
    14: "95a31b4a6e961102cdcb65fde07d18ef9d87e2c412a0529d0946ebe20df9a910",
    15: "f5d0a37174923543304aa824126bd7ac53271fd6e344216c9a5addef75279021",
    16: "19c80154e70a56fac1cbd327bce4460db7228db50fbe73d779a1d33b45660657",
    17: "e78a8a149950b8e59c536e861a62af21bde472ed5ba8506d107f8f5114e15447",
    18: "effc1894f3858ceca1848e6d41711d01f4fa0f1b5e946c1bb2621b37996ecf52",
}


@pytest.mark.parametrize("n", sorted(TABLE_ROWS_SHA256))
def test_character_table_rows_match_their_recorded_digests_past_n_12(n):
    rows = json.dumps(_table_rows(character_table(n)))
    assert sha256(rows.encode()).hexdigest() == TABLE_ROWS_SHA256[n]


def test_a_build_leaves_only_the_table_behind():
    # The memos of a build die with it by reference counting alone: with the
    # cyclic collector off, a build leaves no garbage that only the collector
    # could free. Once the table is dropped too, what the build still holds
    # is under a tenth of the table: only the interpreter's free lists, which
    # the warm-up build has filled. Every functools cache of symreps starts
    # empty, so a cache that the build fills shows here.
    import unipcount.symreps as symreps

    symreps._build_table(14)
    for obj in vars(symreps).values():
        if getattr(obj, "__module__", None) == symreps.__name__ and hasattr(obj, "cache_clear"):
            obj.cache_clear()
    symreps._TABLES.pop(14, None)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = character_table(14)
        with_table = tracemalloc.get_traced_memory()[0] - before
        assert gc.collect() == 0
        del table, symreps._TABLES[14]
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert left * 10 < with_table - left, (left, with_table)


def test_bead_moves_invert_the_strip_removals():
    # For every label of size <= 10 and every strip length up to 10, the
    # bead moves from its bead set are exactly the strips removed from a
    # larger label that give it back, with the same signs. The moves are
    # read at the fewest beads that hold the larger label and at 20 beads.
    removed = {}
    for size in range(1, 21):
        for larger in all_diagrams(size):
            for length in range(max(1, size - 10), min(size, 10) + 1):
                for smaller, height in _strip_removals(larger, length):
                    removed.setdefault((smaller, length), Counter())[larger, (-1) ** height] += 1
    for size in range(0, 11):
        for label in all_diagrams(size):
            for length in range(1, 11):
                for n in (size + length, 20):
                    moves = _bead_moves(bead_set(label, n), length)
                    added = Counter((label_of(beads, n), sign) for beads, sign in moves)
                    assert added == removed.get((label, length), Counter()), (label, length, n)


def test_column_orthogonality_beyond_the_oracle_bound():
    # sum over lam of chi^lam(mu) chi^lam(nu) = z_mu if mu == nu, else 0;
    # orthogonality_check stops at ORTHOGONALITY_BOUND = 8.
    for n in range(9, 15):
        labels = all_diagrams(n)
        columns = [[chi(lam, mu) for lam in labels] for mu in labels]
        for i, col in enumerate(columns):
            for j, other in enumerate(columns):
                expected = centralizer_order(labels[i]) if i == j else 0
                assert sum(map(mul, col, other)) == expected
