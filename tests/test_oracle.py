import pytest

from unipcount.diagrams import all_diagrams, row_profile
from unipcount.errors import DegreeMismatchError, OracleBoundError
from unipcount.oracle import (
    all_matchings,
    class_representative,
    decompose,
    induced_character,
    irreducible_character,
    lr_coefficient,
    matchings_character,
    orthogonality_check,
    parameter_tuples,
    run_checks,
)
from unipcount.symreps import ClassFunction, character_table, inner_product
from unipcount.unipotent import OrbitSpec, enumeration_record, make_group
from unipcount.weylmodules import matchings_module


def trivial_character(n):
    return ClassFunction(n, {mu: 1 for mu in all_diagrams(n)})


def sign_character(n):
    return ClassFunction(n, {mu: (-1) ** (n - len(mu)) for mu in all_diagrams(n)})


def test_all_matchings_counts():
    # double factorials (2r-1)!!
    assert [len(all_matchings(r)) for r in range(0, 5)] == [1, 1, 3, 15, 105]


def test_class_representative_has_right_type():
    perm = class_representative((3, 1))
    assert perm == {1: 2, 2: 3, 3: 1, 4: 4}


def test_matchings_character_examples():
    assert matchings_character(1).values == {(2,): 1, (1, 1): 1}
    cf = matchings_character(2)
    assert cf.values[(1, 1, 1, 1)] == 3
    assert cf.values[(3, 1)] == 0


def test_matchings_bound_enforced():
    with pytest.raises(OracleBoundError):
        matchings_character(5)
    assert matchings_character(5, bound=5).degree == 10


def test_matchings_decomposition_matches_closed_form():
    for r in range(0, 4):
        brute = decompose(matchings_character(r))
        closed = {key[0]: m for key, m in matchings_module(r).mults.items()}
        assert brute == closed


def test_induced_from_trivial_subgroup_is_regular():
    cf = induced_character((1, 1), (trivial_character(1), trivial_character(1)))
    assert cf.values == {(1, 1): 2, (2,): 0}


def test_induction_from_whole_group_is_identity():
    cf = irreducible_character((2, 1))
    assert induced_character((3,), (cf,)) == cf


def test_induced_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        induced_character((2, 2), (trivial_character(2), trivial_character(3)))
    with pytest.raises(DegreeMismatchError):
        induced_character((2,), (trivial_character(2), trivial_character(2)))


def test_frobenius_reciprocity_small():
    for a in range(1, 4):
        for b in range(1, 4):
            for lam in all_diagrams(a):
                for mu in all_diagrams(b):
                    induced = induced_character(
                        (a, b),
                        (irreducible_character(lam), irreducible_character(mu)),
                    )
                    for nu in all_diagrams(a + b):
                        assert inner_product(
                            irreducible_character(nu), induced
                        ) == lr_coefficient(lam, mu, nu)


def test_induction_additive_in_character():
    f = irreducible_character((2,))
    g = irreducible_character((1, 1))
    h = trivial_character(2)
    left = induced_character((2, 2), (f, h)).values
    right = induced_character((2, 2), (g, h)).values
    summed = ClassFunction(2, {k: f.values[k] + g.values[k] for k in f.values})
    both = induced_character((2, 2), (summed, h)).values
    assert {k: left[k] + right[k] for k in left} == both


def test_induction_transitive():
    parts = (2, 1, 2)
    chars = (
        irreducible_character((1, 1)),
        trivial_character(1),
        sign_character(2),
    )
    direct = induced_character(parts, chars)
    inner = induced_character((2, 1), chars[:2])
    staged = induced_character((3, 2), (inner, chars[2]))
    assert direct == staged


def test_orthogonality_small_and_bound():
    assert orthogonality_check(1)
    assert orthogonality_check(5)
    with pytest.raises(OracleBoundError):
        orthogonality_check(9)


def test_orthogonality_detects_corruption():
    table = {lam: dict(row) for lam, row in character_table(4).items()}
    table[(2, 2)][(4,)] += 1
    assert not orthogonality_check(4, table=table)


def test_parameter_tuples():
    assert parameter_tuples(row_profile((3, 3, 1))) == (
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
        (2, 0),
        (2, 1),
    )
    assert parameter_tuples(row_profile((2,))) == ((0,), (1,))


def test_parameter_tuples_match_engine_order():
    for n in range(1, 9):
        for orbit in all_diagrams(n):
            expected = parameter_tuples(row_profile(orbit))
            rows = enumeration_record(make_group("gl-r", n=n), OrbitSpec(orbit))["params"]
            assert tuple(tuple(row["a"]) for row in rows) == expected


def test_sign_induction_module_matches_induced_oracle():
    # recompute the closed form end to end: brute-force matchings character,
    # class-fusion induction, inner-product decomposition
    from collections import Counter

    from unipcount.weylmodules import sign_induction_module

    for p in range(0, 4):
        for q in range(0, 4):
            if not 0 < p + q <= 6:
                continue
            total = Counter()
            for k in range(min(p, q) + 1):
                cf = induced_character(
                    (2 * k, p - k, q - k),
                    (
                        matchings_character(k),
                        sign_character(p - k),
                        sign_character(q - k),
                    ),
                )
                for lam, m in decompose(cf).items():
                    total[lam] += m
            closed = {
                key[0]: m for key, m in sign_induction_module(p, q).mults.items()
            }
            assert dict(total) == closed


def test_run_checks_all_pass():
    checks = run_checks(5)
    assert checks
    assert all(c["pass"] for c in checks)
    names = {c["check"] for c in checks}
    assert "counting-equality" in names
    assert "matchings-decomposition" in names
    for c in checks:
        assert set(c) == {"check", "instance", "expected", "actual", "pass"}
