from fractions import Fraction
from math import factorial

import pytest

from unipcount.diagrams import all_diagrams, transpose
from unipcount.errors import DegreeMismatchError
from unipcount.oracle import irreducible_character, lr_coefficient
from unipcount.symreps import (
    ClassFunction,
    centralizer_order,
    character_table,
    inner_product,
    irrep_dimension,
)


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
            assert character_table(n)[(n,)][mu] == 1
    assert character_table(2)[(1, 1)][(2,)] == -1
    assert character_table(2)[(1, 1)][(1, 1)] == 1


def test_dimension_example():
    assert character_table(3)[(2, 1)][(1, 1, 1)] == 2
    assert irrep_dimension((2, 1)) == 2


def test_hook_dimensions_match_identity_column():
    for n in range(1, 9):
        identity = (1,) * n
        for lam in all_diagrams(n):
            assert character_table(n)[lam][identity] == irrep_dimension(lam)


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


def test_inner_product_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        inner_product(trivial_character(2), trivial_character(3))


def test_class_function_must_cover_all_classes():
    with pytest.raises(DegreeMismatchError):
        ClassFunction(2, {(2,): 1})


def test_tensor_with_sign_transposes_label():
    for n in range(1, 9):
        sgn = sign_character(n)
        for lam in all_diagrams(n):
            row = character_table(n)[lam]
            twisted = {mu: row[mu] * sgn.values[mu] for mu in all_diagrams(n)}
            assert twisted == character_table(n)[transpose(lam)]


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


def test_character_table_ignores_corrupt_cache(tmp_path):
    (tmp_path / "chartable_5.json").write_text("{not json")
    import unipcount.symreps as symreps

    symreps._TABLES.pop(5, None)
    table = character_table(5, cache_dir=tmp_path)
    symreps._TABLES.pop(5, None)
    assert table == character_table(5)


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


def test_irreducible_character_is_built_once_per_label():
    assert irreducible_character((2, 1)) is irreducible_character((2, 1))
    assert irreducible_character((2, 1)).values == character_table(3)[(2, 1)]


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
    table = {lam: dict(row) for lam, row in character_table(4).items()}
    table[(4,)][(4,)] = 99
    with pytest.raises(OSError, match="rename refused"):
        symreps._store_table(4, table, tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["chartable_4.json"]
    assert (tmp_path / "chartable_4.json").read_bytes() == before
