from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unipcount import unipotent
from unipcount.diagrams import all_diagrams, make_diagram, row_profile
from unipcount.errors import (
    DegreeMismatchError,
    InvalidPartitionError,
    ParameterRangeError,
    UnsupportedGroupError,
)
from unipcount.unipotent import (
    GroupKind,
    OrbitSpec,
    cell_rep,
    count_record,
    count_unipotent,
    enumeration_record,
    gl_r_params,
    make_group,
    sign_twist,
    sl_r_enumerate,
    split_by_twist,
    verify_counting_equality,
)

diagrams_up_to = lambda n: [d for m in range(1, n + 1) for d in all_diagrams(m)]


def test_make_group_validation():
    assert make_group("su", p=1, q=1).n == 2
    assert make_group("gl-r", n=1).kind is GroupKind.GL_R
    with pytest.raises(UnsupportedGroupError):
        make_group("sl-r", n=1)
    with pytest.raises(UnsupportedGroupError):
        make_group("sl-c", n=1)
    with pytest.raises(UnsupportedGroupError):
        make_group("su", n=2)
    with pytest.raises(UnsupportedGroupError):
        make_group("gl-r", n=2, p=1, q=1)
    with pytest.raises(UnsupportedGroupError):
        make_group("sl-h", n=3)
    with pytest.raises(DegreeMismatchError):
        make_group("su", n=3, p=1, q=1)
    with pytest.raises(ValueError):
        make_group("so", n=3)


def test_cell_rep_examples():
    assert cell_rep(make_group("su", p=1, q=1), OrbitSpec((1, 1))) == ((), (2,))
    assert cell_rep(make_group("su", p=2, q=2), OrbitSpec((2, 1, 1))) == ((1, 1), (2,))
    assert cell_rep(make_group("sl-c", n=3), OrbitSpec((2, 1), (2, 1))) == (
        (1, 1),
        (1,),
        (1, 1),
        (1,),
    )


def test_cell_rep_kind_and_shape_errors():
    with pytest.raises(UnsupportedGroupError):
        cell_rep(make_group("gl-r", n=2), OrbitSpec((2,)))
    with pytest.raises(DegreeMismatchError):
        cell_rep(make_group("sl-c", n=2), OrbitSpec((2,)))
    with pytest.raises(DegreeMismatchError):
        cell_rep(make_group("su", p=1, q=1), OrbitSpec((2,), (2,)))
    with pytest.raises(DegreeMismatchError):
        cell_rep(make_group("su", p=1, q=1), OrbitSpec((3,)))
    with pytest.raises(DegreeMismatchError):
        cell_rep(make_group("gl-c", n=5), OrbitSpec((2, 1), (2, 1)))


def test_gl_r_params_counts():
    assert len(gl_r_params((3, 3, 1))) == 6
    assert len(gl_r_params((4,))) == 2
    assert len(gl_r_params((2, 2))) == 3


def test_gl_r_params_structure():
    descs = gl_r_params((3, 1))
    assert [d.a for d in descs] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert descs[2].blocks == ((3, "sign"), (1, "trivial"))
    # trivial blocks come before sign blocks within a length
    mixed = gl_r_params((3, 3, 1))[3]
    assert mixed.a == (1, 1)
    assert mixed.blocks == ((3, "trivial"), (3, "sign"), (1, "sign"))


def test_sign_twist_involution_and_fixed_points():
    for orbit in diagrams_up_to(8):
        profile = row_profile(orbit)
        for desc in gl_r_params(orbit):
            twisted = sign_twist(desc.a, profile)
            assert sign_twist(twisted, profile) == desc.a
            fixed = twisted == desc.a
            assert fixed == all(2 * x == m for x, m in zip(desc.a, profile.mults))


def test_sign_twist_extremes_and_range_error():
    profile = row_profile((3, 3, 1))
    assert sign_twist((2, 1), profile) == (0, 0)
    with pytest.raises(ParameterRangeError):
        sign_twist((3, 0), profile)
    with pytest.raises(ParameterRangeError):
        sign_twist((0,), profile)


def test_split_by_twist_examples():
    split = split_by_twist((2, 2))
    assert split.plus == ((0,),)
    assert split.zero == ((1,),)
    assert split.minus == ((2,),)
    split = split_by_twist((3, 1))
    assert split.plus == ((0, 0), (0, 1))
    assert split.zero == ()
    assert set(split.minus) == {(1, 1), (1, 0)}


def test_split_zero_set_iff_all_multiplicities_even():
    for orbit in diagrams_up_to(10):
        mults = row_profile(orbit).mults
        zero = split_by_twist(orbit).zero
        if all(m % 2 == 0 for m in mults):
            assert zero == (tuple(m // 2 for m in mults),)
        else:
            assert zero == ()


def test_split_partitions_parameter_box():
    for orbit in diagrams_up_to(10):
        profile = row_profile(orbit)
        split = split_by_twist(orbit)
        assert len(split.plus) == len(split.minus)
        combined = set(split.plus) | set(split.minus) | set(split.zero)
        assert len(combined) == prod(m + 1 for m in profile.mults)
        assert set(split.minus) == {
            sign_twist(a, profile) for a in split.plus
        }


def test_sl_r_enumerate_examples():
    params = sl_r_enumerate((2, 2))
    assert len(params) == 3
    assert [p.sign for p in params] == [None, "+", "-"]
    assert len(sl_r_enumerate((3, 1))) == 2
    assert len(sl_r_enumerate((1, 1))) == 3
    with pytest.raises(UnsupportedGroupError):
        sl_r_enumerate((1,))


def test_sl_r_count_formula():
    for orbit in diagrams_up_to(8):
        if sum(orbit) < 2:
            continue
        mults = row_profile(orbit).mults
        e = 1 if all(m % 2 == 0 for m in mults) else 0
        assert len(sl_r_enumerate(orbit)) == (prod(m + 1 for m in mults) + 3 * e) // 2


@given(st.lists(st.integers(1, 8), min_size=2, max_size=8))
def test_sl_r_signed_pairs_only_at_fixed_points(parts):
    orbit = make_diagram(parts)
    profile = row_profile(orbit)
    for param in sl_r_enumerate(orbit):
        if param.sign is None:
            assert sign_twist(param.descriptor.a, profile) != param.descriptor.a
        else:
            assert sign_twist(param.descriptor.a, profile) == param.descriptor.a


@pytest.mark.parametrize(
    "kind,kwargs,orbit,expected",
    [
        ("su", dict(p=1, q=1), OrbitSpec((1, 1)), 3),
        ("su", dict(p=1, q=1), OrbitSpec((2,)), 1),
        ("su", dict(p=3, q=1), OrbitSpec((2, 1, 1)), 1),
        ("u-tilde", dict(p=1, q=1), OrbitSpec((1, 1)), 3),
        ("sl-c", dict(n=3), OrbitSpec((2, 1), (2, 1)), 1),
        ("sl-c", dict(n=3), OrbitSpec((2, 1), (3,)), 0),
        ("gl-c", dict(n=3), OrbitSpec((2, 1), (2, 1)), 1),
        ("gl-c", dict(n=3), OrbitSpec((3,), (2, 1)), 0),
        ("gl-r", dict(n=4), OrbitSpec((2, 2)), 3),
        ("sl-r", dict(n=4), OrbitSpec((2, 2)), 3),
    ],
)
def test_count_examples(kind, kwargs, orbit, expected):
    assert count_unipotent(make_group(kind, **kwargs), orbit) == expected


def test_count_unsupported_quaternionic():
    with pytest.raises(UnsupportedGroupError, match="quaternionic"):
        count_unipotent(make_group("sl-h", n=4), OrbitSpec((2, 2)))
    with pytest.raises(UnsupportedGroupError, match="bijection"):
        count_unipotent(make_group("gl-h", n=4), OrbitSpec((2, 2)))


def test_count_size_mismatch():
    with pytest.raises(DegreeMismatchError):
        count_unipotent(make_group("su", p=1, q=1), OrbitSpec((3,)))
    with pytest.raises(DegreeMismatchError):
        count_unipotent(make_group("sl-c", n=3), OrbitSpec((2, 1)))
    with pytest.raises(DegreeMismatchError):
        count_unipotent(make_group("sl-r", n=3), OrbitSpec((2, 1), (2, 1)))
    with pytest.raises(DegreeMismatchError):
        count_unipotent(make_group("gl-c", n=3), OrbitSpec((2, 1), (2, 1, 1)))


def test_exceptional_isomorphism_su11_sl2():
    # SL(2, R) and SU(1, 1) are isomorphic: the enumeration route and the
    # multiplicity route must agree on both orbits of size 2
    for orbit, expected in [((1, 1), 3), ((2,), 1)]:
        sl = count_unipotent(make_group("sl-r", n=2), OrbitSpec(orbit))
        su = count_unipotent(make_group("su", p=1, q=1), OrbitSpec(orbit))
        assert sl == su == expected


def test_counting_equality_examples():
    assert verify_counting_equality(1, 1, (1, 1))
    assert verify_counting_equality(2, 2, (2, 1, 1))
    with pytest.raises(DegreeMismatchError):
        verify_counting_equality(1, 1, (3,))


def test_counting_equality_small_sweep():
    for n in range(1, 8):
        for orbit in all_diagrams(n):
            for p in range(0, n + 1):
                assert verify_counting_equality(p, n - p, orbit)


def test_complex_counts_match_remark_small():
    for n in range(1, 7):
        for d in all_diagrams(n):
            assert count_unipotent(make_group("gl-c", n=n), OrbitSpec(d, d)) == 1
            if n >= 2:
                assert count_unipotent(make_group("sl-c", n=n), OrbitSpec(d, d)) == 1


def test_count_record_fields():
    rec = count_record(make_group("su", p=1, q=1), OrbitSpec((1, 1)))
    assert rec == {
        "group": {"kind": "su", "n": 2, "p": 1, "q": 1},
        "orbit": [1, 1],
        "n_h": 0,
        "n_0": 2,
        "count": 3,
        "method": "multiplicity",
    }
    rec = count_record(make_group("gl-r", n=4), OrbitSpec((2, 2)))
    assert rec["method"] == "enumeration"
    rec = count_record(make_group("sl-c", n=3), OrbitSpec((2, 1), (2, 1)))
    assert rec["orbit"] == [[2, 1], [2, 1]]


def test_enumeration_record():
    rec = enumeration_record(make_group("sl-r", n=4), OrbitSpec((2, 2)))
    assert rec["count"] == 3
    assert [row["sign"] for row in rec["params"]] == [None, "+", "-"]
    rec = enumeration_record(make_group("gl-r", n=2), OrbitSpec((2,)))
    assert rec["params"] == [
        {"index": 0, "blocks": [[2, "trivial"]], "a": [0]},
        {"index": 1, "blocks": [[2, "sign"]], "a": [1]},
    ]
    with pytest.raises(UnsupportedGroupError):
        enumeration_record(make_group("su", p=1, q=1), OrbitSpec((2,)))


def test_orbit_spec_validates():
    assert OrbitSpec([2, 1]).first == (2, 1)
    assert OrbitSpec((2, 1), (3,)).second == (3,)
    assert not OrbitSpec((2, 1)).is_pair
    for first, second in [((4, -1), None), ((1, 2), None), ((2,), (0,))]:
        with pytest.raises(InvalidPartitionError):
            OrbitSpec(first, second)
    # A bad diagram is refused before any group sees it.
    with pytest.raises(InvalidPartitionError):
        count_unipotent(make_group("su", p=3, q=0), OrbitSpec((4, -1)))


def test_real_queries_check_the_diagram_only_in_orbit_spec(monkeypatch):
    sl_r, gl_r = make_group("sl-r", n=4), make_group("gl-r", n=4)
    spec = OrbitSpec((2, 2))
    calls = []
    checked = unipotent.check_diagram
    monkeypatch.setattr(unipotent, "check_diagram", lambda d: calls.append(d) or checked(d))
    assert count_unipotent(sl_r, spec) == 3
    assert enumeration_record(sl_r, spec)["count"] == 3
    assert enumeration_record(gl_r, spec)["count"] == 3
    assert calls == []
