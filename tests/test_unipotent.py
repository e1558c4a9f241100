import hashlib
import json
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unipcount import unipotent
from unipcount.diagrams import all_diagrams, make_diagram, row_profile
from unipcount.errors import (
    DegreeMismatchError,
    InvalidPartitionError,
    UnsupportedGroupError,
)
from unipcount.oracle import verify_counting_equality
from unipcount.unipotent import (
    GroupKind,
    OrbitSpec,
    cell_rep,
    count_record,
    count_unipotent,
    enumeration_record,
    make_group,
)

diagrams_up_to = lambda n: [d for m in range(1, n + 1) for d in all_diagrams(m)]


def _params(kind, orbit):
    """(a, sign) of every enumerated parameter; the sign is None for gl-r."""
    rec = enumeration_record(make_group(kind, n=sum(orbit)), OrbitSpec(orbit))
    return [(tuple(row["a"]), row.get("sign")) for row in rec["params"]]


def _twist(a, mults):
    return tuple(m - x for x, m in zip(a, mults))


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
    assert len(_params("gl-r", (3, 3, 1))) == 6
    assert len(_params("gl-r", (4,))) == 2
    assert len(_params("gl-r", (2, 2))) == 3


def test_gl_r_params_structure():
    rows = enumeration_record(make_group("gl-r", n=4), OrbitSpec((3, 1)))["params"]
    assert [row["a"] for row in rows] == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert rows[2]["blocks"] == [[3, "sign"], [1, "trivial"]]
    # trivial blocks come before sign blocks within a length
    mixed = enumeration_record(make_group("gl-r", n=7), OrbitSpec((3, 3, 1)))["params"][3]
    assert mixed["a"] == [1, 1]
    assert mixed["blocks"] == [[3, "trivial"], [3, "sign"], [1, "sign"]]


def test_sign_twist_involution_and_fixed_points():
    # The twist a -> m - a maps the gl-r box onto itself, and fixes exactly
    # the tuple that sl-r splits into a signed pair.
    for orbit in diagrams_up_to(8):
        mults = row_profile(orbit).mults
        box = [a for a, _ in _params("gl-r", orbit)]
        assert sorted(_twist(a, mults) for a in box) == box
        fixed = [a for a in box if _twist(a, mults) == a]
        if sum(orbit) >= 2:
            assert fixed == [a for a, sign in _params("sl-r", orbit) if sign == "+"]


def test_split_by_twist_examples():
    assert _params("sl-r", (2, 2)) == [((0,), None), ((1,), "+"), ((1,), "-")]
    assert _params("sl-r", (3, 1)) == [((0, 0), None), ((0, 1), None)]


def test_split_zero_set_iff_all_multiplicities_even():
    for orbit in diagrams_up_to(10):
        if sum(orbit) < 2:
            continue
        mults = row_profile(orbit).mults
        params = _params("sl-r", orbit)
        signed = [(a, sign) for a, sign in params if sign is not None]
        if all(m % 2 == 0 for m in mults):
            half = tuple(m // 2 for m in mults)
            assert signed == params[-2:] == [(half, "+"), (half, "-")]
        else:
            assert signed == []


def test_split_partitions_parameter_box():
    # The unsigned sl-r tuples, their twists and the signed fixed point
    # partition the gl-r box.
    for orbit in diagrams_up_to(10):
        if sum(orbit) < 2:
            continue
        mults = row_profile(orbit).mults
        params = _params("sl-r", orbit)
        plus = [a for a, sign in params if sign is None]
        minus = [_twist(a, mults) for a in plus]
        zero = sorted({a for a, sign in params if sign is not None})
        parts = plus + minus + zero
        assert len(set(parts)) == len(parts)
        assert sorted(parts) == [a for a, _ in _params("gl-r", orbit)]


def test_sl_r_enumerate_examples():
    assert [sign for _, sign in _params("sl-r", (2, 2))] == [None, "+", "-"]
    assert len(_params("sl-r", (3, 1))) == 2
    assert len(_params("sl-r", (1, 1))) == 3


def test_sl_r_count_formula():
    for orbit in diagrams_up_to(8):
        if sum(orbit) < 2:
            continue
        mults = row_profile(orbit).mults
        e = 1 if all(m % 2 == 0 for m in mults) else 0
        assert len(_params("sl-r", orbit)) == (prod(m + 1 for m in mults) + 3 * e) // 2


@given(st.lists(st.integers(1, 8), min_size=2, max_size=8))
def test_sl_r_signed_pairs_only_at_fixed_points(parts):
    orbit = make_diagram(parts)
    mults = row_profile(orbit).mults
    for a, sign in _params("sl-r", orbit):
        doubled = tuple(2 * x for x in a)
        if sign is None:
            assert doubled < mults
        else:
            assert doubled == mults


def test_enumerate_bytes_are_pinned():
    # Every enumeration record with n <= 10: gl-r, and sl-r from n = 2.
    records = []
    for orbit in diagrams_up_to(10):
        kinds = ("gl-r", "sl-r") if sum(orbit) >= 2 else ("gl-r",)
        for kind in kinds:
            rec = enumeration_record(make_group(kind, n=sum(orbit)), OrbitSpec(orbit))
            records.append(json.dumps(rec))
    assert len(records) == 275
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "913f75c36f4add109b3ae6c32a00df9b703f215522b260e510c83590f94dddd9"


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


def test_cell_is_computed_once_per_orbit(monkeypatch):
    calls = []
    real = unipotent.transpose
    monkeypatch.setattr(unipotent, "transpose", lambda d: calls.append(d) or real(d))
    unipotent._cell.cache_clear()
    orbit = OrbitSpec((4, 3, 2, 1))
    for p in range(11):
        for kind in ("su", "u-tilde"):
            count_unipotent(make_group(kind, p=p, q=10 - p), orbit)
    assert len(calls) == 2


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
