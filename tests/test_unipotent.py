import hashlib
import json
import tracemalloc
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from unipcount import diagrams, oracle, unipotent, weylmodules
from unipcount.diagrams import all_diagrams, row_profile
from unipcount.errors import (
    MAX_ROWS,
    DegreeMismatchError,
    InvalidPartitionError,
    SizeBoundError,
    UnsupportedGroupError,
)
from unipcount.unipotent import (
    GroupKind,
    GroupSpec,
    OrbitSpec,
    cell_rep,
    coherent_module,
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
    with pytest.raises(UnsupportedGroupError, match="unknown group kind"):
        make_group("so", n=3)
    # Groups are values: equal and hashed by their fields, and immutable.
    su = make_group("su", p=2, q=1)
    assert su == make_group("su", p=2, q=1) != make_group("su", p=1, q=2)
    assert len({su, make_group("su", p=2, q=1), make_group("gl-r", n=3)}) == 2
    with pytest.raises(AttributeError):
        su.p = 0


def test_make_group_takes_a_kind_or_its_value():
    for kind in GroupKind:
        args = {"p": 1, "q": 1} if kind in unipotent.HERMITIAN_KINDS else {"n": 2}
        for given in (kind, kind.value):
            group = make_group(given, **args)
            assert group.kind is kind and type(group.kind) is GroupKind
    # Each refusal names the kind as given, whatever its type.
    for kind, message in [
        ("xx", "unknown group kind 'xx'"),
        (None, "unknown group kind None"),
        (["su"], "unknown group kind ['su']"),
    ]:
        with pytest.raises(UnsupportedGroupError) as caught:
            make_group(kind, n=3)
        assert str(caught.value) == message


def test_group_spec_built_by_hand_is_checked():
    # gl-r, not the sl-r count 3.
    assert count_unipotent(GroupSpec("gl-r", 4), OrbitSpec((2, 1, 1))) == 6
    assert GroupSpec("gl-r", 4).kind is GroupKind.GL_R
    pair = OrbitSpec((1, 1), (1, 1))
    assert coherent_module(GroupSpec("gl-c", 2), pair) == coherent_module(make_group("gl-c", n=2), pair)
    with pytest.raises(UnsupportedGroupError, match="unknown group kind 'xx'"):
        count_unipotent(GroupSpec("xx", 2), OrbitSpec((1, 1)))
    spec = OrbitSpec((2, 2))
    assert enumeration_record(GroupSpec("sl-r", 4), spec) == enumeration_record(
        make_group("sl-r", n=4), spec
    )
    with pytest.raises(DegreeMismatchError, match="n = 3 does not match p"):
        count_unipotent(GroupSpec("su", 3, 1, 1), OrbitSpec((2, 1)))
    # _replace builds a new group, checked the same way.
    with pytest.raises(DegreeMismatchError):
        make_group("su", p=2, q=1)._replace(p=5)
    assert make_group("su", p=2, q=1)._replace(p=3, n=4) == make_group("su", p=3, q=1)


def test_make_group_takes_only_whole_numbers():
    # 2.0 and True are whole numbers and coerce to int; anything else is
    # refused with the engine's own error instead of failing later.
    assert make_group("su", p=2.0, q=True) == make_group("su", p=2, q=1)
    assert type(make_group("gl-r", n=4.0).n) is int
    for bad in [dict(p=1.5, q=1.5), dict(p="x", q=1), dict(p="2", q=1), dict(p=None, q=1)]:
        with pytest.raises(UnsupportedGroupError):
            make_group("su", **bad)
    for n in [2.5, float("nan"), float("inf"), [2]]:
        with pytest.raises(UnsupportedGroupError):
            make_group("gl-r", n=n)
    for kind in ["so", None, ["su"]]:
        with pytest.raises(UnsupportedGroupError, match="unknown group kind"):
            make_group(kind, n=3)


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


@settings(deadline=None, max_examples=40)
@given(
    st.integers(2, 30).flatmap(lambda n: st.sampled_from(all_diagrams(n))),
    st.sampled_from(["gl-r", "sl-r"]),
)
def test_enumeration_blocks_match_the_per_block_rule(orbit, kind):
    # The record's rows are concatenations of one shared table of pairs;
    # each must equal the blocks built one by one.
    rows = enumeration_record(make_group(kind, n=sum(orbit)), OrbitSpec(orbit))["params"]
    assert [row["blocks"] for row in rows] == [reference.enumeration_blocks(orbit, row["a"]) for row in rows]


@pytest.mark.parametrize("kind", ["su", "u-tilde"])
def test_a_cell_label_longer_than_maxsize_is_refused(kind):
    # The labels would have 10**23 rows; refused before one is built.
    row = 10**23
    group, orbit = make_group(kind, p=row // 2, q=row // 2), OrbitSpec((row,))
    for query in (count_unipotent, cell_rep):
        with pytest.raises(SizeBoundError, match=str(row)):
            query(group, orbit)


@pytest.mark.parametrize("kind", ["su", "u-tilde"])
def test_a_c_odd_list_past_the_row_bound_is_refused_before_it_grows(kind):
    # The record's c_odd list would have 4 * 10**9 + 1 entries, one per box of
    # the row and one more: refused naming the row, with nothing allocated per
    # row. The cell labels would have that many rows.
    row = 4 * 10**9
    group, orbit = make_group(kind, p=row // 2, q=row // 2), OrbitSpec((row,))
    unipotent._orbit_record.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(SizeBoundError, match=str(row)):
            count_unipotent(group, orbit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    with pytest.raises(SizeBoundError, match=str(row)):
        cell_rep(group, orbit)


def test_the_row_bound_admits_a_c_odd_list_of_max_rows_entries():
    # (r,): the transposed half 1^r gives a c_odd list of r + 1 ones.
    group = lambda r: make_group("su", p=(r + 1) // 2, q=r // 2)
    unipotent._orbit_record.cache_clear()
    try:
        assert count_unipotent(group(MAX_ROWS - 1), OrbitSpec((MAX_ROWS - 1,))) == 1
        with pytest.raises(SizeBoundError, match=f"label of {MAX_ROWS} rows"):
            count_unipotent(group(MAX_ROWS), OrbitSpec((MAX_ROWS,)))
    finally:
        unipotent._orbit_record.cache_clear()  # drop the 10**6-entry record


def test_the_row_bound_on_cell_labels(monkeypatch):
    monkeypatch.setattr(unipotent, "MAX_ROWS", 100)
    unipotent._cell_labels.cache_clear()
    assert cell_rep(make_group("su", p=50, q=50), OrbitSpec((100,))) == ((1,) * 100, ())
    with pytest.raises(SizeBoundError, match="101"):
        cell_rep(make_group("su", p=51, q=50), OrbitSpec((101,)))


@pytest.mark.parametrize("kind", ["su", "u-tilde"])
@pytest.mark.parametrize("row", [2, 4, 6, 10**23])
def test_long_rows_of_even_multiplicity_count(kind, row):
    # (row, row): each half has only even multiplicities, and both c_odd
    # lists have one entry, so a row of any length counts: row + 2 at
    # p = q = row, which the built module confirms for the short rows.
    group, orbit = make_group(kind, p=row, q=row), OrbitSpec((row, row))
    assert count_unipotent(group, orbit) == row + 2
    if row < 10:
        assert coherent_module(group, orbit).multiplicity(cell_rep(group, orbit)) == row + 2


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
    orbit = tuple(sorted(parts, reverse=True))
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
    # The sizes of SU(1, 1) at [1,1] and SU(2, 2) at [2,1,1] pass; an orbit
    # of the wrong size is refused before anything is counted.
    assert list(oracle._counting_mismatches(2)) == []
    assert list(oracle._counting_mismatches(4)) == []
    with pytest.raises(DegreeMismatchError):
        cell_rep(make_group("su", p=1, q=1), OrbitSpec((3,)))


def test_counting_equality_small_sweep():
    for n in range(1, 8):
        assert list(oracle._counting_mismatches(n)) == [], n


def test_cell_is_computed_once_per_orbit():
    unipotent._orbit_record.cache_clear()
    orbit = OrbitSpec((4, 3, 2, 1))
    for p in range(11):
        for kind in ("su", "u-tilde"):
            count_unipotent(make_group(kind, p=p, q=10 - p), orbit)
    assert unipotent._orbit_record.cache_info().misses == 1


def test_orbit_record_matches_the_reference_through_n_22():
    # The blocks read off the row profile, and the cell, equal the ones built
    # from the transposed even and odd parts, at every orbit with n <= 22.
    orbits = diagrams_up_to(22)
    assert len(orbits) == 4507
    for orbit in orbits:
        cell, blocks = reference.orbit_record(orbit)
        assert unipotent._orbit_record(orbit) == blocks, orbit
        assert cell_rep(make_group("su", p=sum(orbit), q=0), OrbitSpec(orbit)) == cell, orbit


# Orbits past n = 22: up to six distinct row lengths up to 3000, each once,
# twice or four times, so that a parity half often has only even
# multiplicities and its block holds the cell.
long_orbits = st.dictionaries(st.integers(1, 3000), st.sampled_from((1, 2, 4)), min_size=1, max_size=6).map(
    lambda blocks: tuple(length for length in sorted(blocks, reverse=True) for _ in range(blocks[length]))
)


@settings(deadline=None, max_examples=30)
@given(long_orbits)
def test_orbit_record_matches_the_reference_past_n_22(orbit):
    cell, blocks = reference.orbit_record(orbit)
    assert unipotent._orbit_record(orbit) == blocks
    assert cell_rep(make_group("su", p=sum(orbit), q=0), OrbitSpec(orbit)) == cell


def test_hermitian_counts_build_no_cell_label(monkeypatch):
    # A cold su and u-tilde sweep over every orbit with n <= 12 and every p
    # reads the blocks alone: every name in the engine that builds a cell
    # label, or fills a cache keyed by one, raises. The answers are those of
    # the reference record's closed form.
    expected = {}
    for orbit in diagrams_up_to(12):
        _, blocks = reference.orbit_record(orbit)
        n = sum(orbit)
        for p in range(n + 1):
            terms = ((c_odd, even, (len(c_odd) - 1 + 2 * p - n) // 2) for c_odd, even in blocks)
            expected[orbit, p] = sum(c_odd[i] * even for c_odd, even, i in terms if 0 <= i < len(c_odd))

    def refuse(*args):
        raise AssertionError(f"a count built or read a cell label: {args}")

    for module in (diagrams, unipotent, weylmodules):
        for name in ("transpose", "_strip_fillings", "_cell_labels"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    unipotent._orbit_record.cache_clear()
    for (orbit, p), count in expected.items():
        for kind in ("su", "u-tilde"):
            assert count_unipotent(make_group(kind, p=p, q=sum(orbit) - p), OrbitSpec(orbit)) == count, (orbit, p)


def test_real_counts_and_signature_match_the_reference_through_n_22():
    # The fields the record no longer keeps: gl-r and sl-r counts from
    # prod(m + 1) and e, and count_record's (n_h, n_0), at every orbit with
    # 2 <= n <= 22 (sl-r needs n >= 2).
    for orbit in diagrams_up_to(22)[1:]:
        total, all_even, n_h, n_0 = reference.real_fields(orbit)
        spec, n = OrbitSpec(orbit), sum(orbit)
        rec = count_record(make_group("gl-r", n=n), spec)
        got = (rec["count"], count_unipotent(make_group("sl-r", n=n), spec), rec["n_h"], rec["n_0"])
        assert got == (total, (total + 3 * all_even) // 2, n_h, n_0), orbit


def _cleared_engine_caches():
    """Every functools cache of unipotent and weylmodules by name, emptied."""
    caches = {
        name: fn
        for mod in (unipotent, weylmodules)
        for name, fn in vars(mod).items()
        if hasattr(fn, "cache_info") and fn.__module__ == mod.__name__
    }
    for fn in caches.values():
        fn.cache_clear()
    return caches


def test_sweep_fills_one_record_per_orbit():
    # A cold su and u-tilde sweep at n = 12 fills one record per orbit, p(12)
    # = 77, and no other cache but the two input checks: one spec per orbit
    # and one per group, 13 signatures of 2 kinds. None is keyed by a count's
    # (p, q), and neither the cell labels nor _strip_fillings, keyed by a cell
    # label, are filled.
    caches = _cleared_engine_caches()
    for orbit in map(OrbitSpec, all_diagrams(12)):
        for p in range(13):
            for kind in ("su", "u-tilde"):
                count_unipotent(make_group(kind, p=p, q=12 - p), orbit)
    filled = {name: fn.cache_info().currsize for name, fn in caches.items()}
    assert {name: size for name, size in filled.items() if size} == {
        "_orbit_record": 77,
        "_checked_orbit": 77,
        "_checked_group": 26,
    }
    assert len(all_diagrams(12)) == 77


def test_real_and_complex_count_records_fill_no_cache():
    # gl-r and sl-r count off the row profile, and count_record reads (n_h,
    # n_0) off coset_signature: a cold sweep of these kinds over every orbit
    # of n = 12 builds no record, no cell label and nothing in weylmodules.
    caches = _cleared_engine_caches()
    for orbit in all_diagrams(12):
        for kind in ("gl-r", "sl-r"):
            count_record(make_group(kind, n=12), OrbitSpec(orbit))
        for kind in ("gl-c", "sl-c"):
            count_record(make_group(kind, n=12), OrbitSpec(orbit, orbit))
    filled = {name: fn.cache_info().currsize for name, fn in caches.items()}
    # Only the input checks fill: 4 groups, and 77 single and 77 pair orbits.
    assert {name: size for name, size in filled.items() if size} == {
        "_checked_orbit": 154,
        "_checked_group": 4,
    }


@pytest.mark.parametrize("kind", ["gl-r", "sl-r"])
def test_real_count_at_a_long_row_allocates_nothing_per_row(kind):
    # One row of length 20000: the count reads its one block, where a cell
    # label would be 20000 rows long.
    group, orbit = make_group(kind, n=20000), OrbitSpec((20000,))
    unipotent._orbit_record.cache_clear()  # cold: a record, if read, is built here
    tracemalloc.start()
    try:
        count = count_unipotent(group, orbit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == (2 if kind == "gl-r" else 1)
    assert peak < 16 * 1024


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


@pytest.mark.parametrize("kind", ["gl-c", "sl-c", "su", "u-tilde", "gl-h", "sl-h"])
def test_real_params_refuses_every_other_kind(kind):
    group = make_group(kind, p=2, q=2) if kind in ("su", "u-tilde") else make_group(kind, n=4)
    orbit = OrbitSpec((2, 2), (2, 2)) if kind in ("gl-c", "sl-c") else OrbitSpec((2, 2))
    refusal = f"explicit enumeration is only available for gl-r and sl-r, not {kind}"
    with pytest.raises(UnsupportedGroupError, match=refusal):
        list(unipotent._real_params(group, orbit))


@pytest.mark.parametrize("kind", ["gl-r", "sl-r"])
def test_real_params_refuses_an_orbit_of_the_wrong_size(kind):
    with pytest.raises(DegreeMismatchError, match="orbit size 3 does not match n = 4"):
        list(unipotent._real_params(make_group(kind, n=4), OrbitSpec((2, 1))))


def test_orbit_spec_validates():
    assert OrbitSpec([2, 1]).first == (2, 1)
    assert OrbitSpec((2, 1), (3,)).second == (3,)
    assert OrbitSpec((2, 1)).second is None
    # Orbits are values: equal and hashed by their (checked) diagrams, and
    # immutable.
    assert OrbitSpec([2, 1]) == OrbitSpec((2, 1)) != OrbitSpec((2, 1), (2, 1))
    assert len({OrbitSpec([2, 1]), OrbitSpec((2, 1)), OrbitSpec((3,))}) == 2
    with pytest.raises(AttributeError):
        OrbitSpec((2, 1)).first = (3,)
    for first, second in [((4, -1), None), ((1, 2), None), ((2,), (0,))]:
        with pytest.raises(InvalidPartitionError):
            OrbitSpec(first, second)
    # A bad diagram is refused before any group sees it.
    with pytest.raises(InvalidPartitionError):
        count_unipotent(make_group("su", p=3, q=0), OrbitSpec((4, -1)))


def test_orbit_spec_replace_and_make_are_checked():
    # _replace builds with _make, which goes through the same check.
    spec = OrbitSpec((2, 1))
    for fields in [dict(first=(2, -1, 2)), dict(second=(1, 2))]:
        with pytest.raises(InvalidPartitionError):
            spec._replace(**fields)
    assert OrbitSpec._make([(2, 1)]) == OrbitSpec((2, 1))
    assert spec._replace(second=(2.0, 1.0)) == OrbitSpec((2, 1), (2, 1))

def test_orbit_spec_refuses_rows_that_are_not_whole_numbers():
    # int() would truncate (2.7, 1) to (2, 1), and gl-r would then count 4.
    for first in [(2.7, 1), ("2", 1), (2, 0.5)]:
        with pytest.raises(InvalidPartitionError):
            OrbitSpec(first)
    with pytest.raises(InvalidPartitionError):
        OrbitSpec((2, 1), (1.5, 1.5))
    assert OrbitSpec((2.0, 1)) == OrbitSpec((2, 1))
    assert count_unipotent(make_group("gl-r", n=3), OrbitSpec((2.0, 1.0))) == 4


@pytest.mark.parametrize("row", ["x", float("nan"), float("inf"), None, [1]])
def test_orbit_spec_rows_int_cannot_convert_raise_invalid_partition(row):
    with pytest.raises(InvalidPartitionError, match="whole numbers"):
        OrbitSpec((row,))
    with pytest.raises(InvalidPartitionError, match="whole numbers"):
        OrbitSpec((2, 1), (2, row))


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
