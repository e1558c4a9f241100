from fractions import Fraction
from itertools import chain
from operator import lt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from unipcount import diagrams, unipotent
from unipcount.diagrams import (
    all_diagrams,
    check_diagram,
    coset_signature,
    even_odd_split,
    format_diagram,
    parse_orbit,
    row_profile,
    row_union,
    transpose,
    transposed_blocks,
)
from unipcount.errors import (
    MAX_PARTITIONED,
    DegreeMismatchError,
    EngineError,
    InvalidPartitionError,
    SizeBoundError,
    UnsupportedGroupError,
)
from unipcount.unipotent import GroupKind, OrbitSpec, make_group

diagrams_up_to = lambda n: [d for m in range(n + 1) for d in all_diagrams(m)]


# parse_orbit takes the rows in any order and sorts them.
@pytest.mark.parametrize(
    "parts,expected",
    [("3,1", (3, 1)), ("1,3,1", (3, 1, 1)), ("1,,2", (2, 1)), ("5", (5,))],
)
def test_parse_orbit_sorts(parts, expected):
    assert parse_orbit(parts) == expected


@pytest.mark.parametrize("parts", ["2,0", "0", "-1,3", "1,1,-2"])
def test_parse_orbit_rejects_nonpositive(parts):
    with pytest.raises(InvalidPartitionError, match="positive integers"):
        parse_orbit(parts)


@pytest.mark.parametrize("parts", [(2.7, 1), ("2", 1), (3, 1.5), (2, 1, 0.5)])
def test_rows_that_are_not_whole_numbers_are_rejected_not_truncated(parts):
    with pytest.raises(InvalidPartitionError, match="whole numbers"):
        check_diagram(parts)


@pytest.mark.parametrize("row", ["x", float("nan"), float("inf"), None, [1]])
def test_rows_int_cannot_convert_raise_the_engine_error(row):
    # int() raises ValueError, OverflowError or TypeError on these, and an
    # unhashable row such as [1] cannot even be looked up in the cache.
    for parts in [(row,), (2, row)]:
        with pytest.raises(InvalidPartitionError, match="whole numbers"):
            check_diagram(parts)


def test_whole_number_rows_coerce_to_int():
    assert check_diagram((2.0, 1)) == (2, 1)
    assert all(type(p) is int for p in check_diagram((2.0, 1)))


@pytest.mark.parametrize(
    "d,expected",
    [((3, 1), (2, 1, 1)), ((6,), (1,) * 6), ((2, 2), (2, 2)), ((), ())],
)
def test_transpose_examples(d, expected):
    assert transpose(d) == expected


def test_transpose_involution_exhaustive():
    for d in diagrams_up_to(12):
        assert transpose(transpose(d)) == d


@given(st.lists(st.integers(1, 20), max_size=14))
def test_transpose_involution_random(parts):
    d = tuple(sorted(parts, reverse=True))
    assert transpose(transpose(d)) == d
    assert sum(transpose(d)) == sum(d)


def test_transpose_matches_the_box_count_reference_through_n_20():
    for d in diagrams_up_to(20):
        assert transpose(d) == reference.transpose(d), d


# Up to n = 210 with one long row and one long column beside random rows:
# the first gap and the last running total then reach far past the others.
@given(st.lists(st.integers(1, 10), max_size=10), st.integers(1, 50), st.integers(1, 50))
def test_transpose_matches_the_reference_with_a_long_row_and_column(parts, row, column):
    d = tuple(sorted([max(parts, default=1) + row, *parts, *[1] * column], reverse=True))
    assert transpose(d) == reference.transpose(d)
    assert transpose(transpose(d)) == d


def test_transposed_blocks_match_the_column_count_reference_through_n_16():
    # Macdonald I.1 on the row profile, shortest row first, against the
    # transpose counted column by column and then profiled.
    for d in diagrams_up_to(16):
        blocks = list(transposed_blocks(*row_profile(d)))
        assert blocks[::-1] == list(zip(*row_profile(reference.transpose(d)))), d


# Up to eight distinct row lengths up to 10**4, each up to five times.
@settings(max_examples=40)
@given(st.dictionaries(st.integers(1, 10**4), st.integers(1, 5), max_size=8))
def test_transposed_blocks_match_the_reference_with_rows_up_to_10_000(blocks):
    d = tuple(length for length in sorted(blocks, reverse=True) for _ in range(blocks[length]))
    pairs = list(transposed_blocks(*row_profile(d)))
    assert pairs[::-1] == list(zip(*row_profile(reference.transpose(d))))


@pytest.mark.parametrize(
    "d,lengths,mults",
    [((3, 3, 1), (3, 1), (2, 1)), ((2, 2), (2,), (2,)), ((), (), ())],
)
def test_row_profile_examples(d, lengths, mults):
    profile = row_profile(d)
    assert profile.lengths == lengths
    assert profile.mults == mults


@pytest.mark.parametrize(
    "d,even,odd",
    [
        ((4, 3, 2, 1), (4, 2), (3, 1)),
        ((2, 2), (2, 2), ()),
        ((1, 1, 1), (), (1, 1, 1)),
    ],
)
def test_even_odd_split_examples(d, even, odd):
    assert even_odd_split(d) == (even, odd)


def test_split_union_roundtrip_exhaustive():
    for d in diagrams_up_to(12):
        even, odd = even_odd_split(d)
        assert all(p % 2 == 0 for p in even)
        assert all(p % 2 == 1 for p in odd)
        assert row_union(even, odd) == d


def test_row_union_examples():
    assert row_union((3, 1), (2, 2)) == (3, 2, 2, 1)
    for d in diagrams_up_to(6):
        assert row_union(d, ()) == d
        assert row_union((), d) == d


def test_row_union_size_additive():
    for i in diagrams_up_to(8):
        for j in diagrams_up_to(8):
            assert sum(row_union(i, j)) == sum(i) + sum(j)


@given(
    st.lists(st.integers(1, 10), max_size=8), st.lists(st.integers(1, 10), max_size=8)
)
def test_row_union_commutes(a, b):
    i, j = tuple(sorted(a, reverse=True)), tuple(sorted(b, reverse=True))
    assert row_union(i, j) == row_union(j, i)


def test_even_parts_iff_transpose_even_multiplicities():
    # a diagram has all rows even iff every distinct part of its transpose
    # has even multiplicity
    for d in diagrams_up_to(12):
        all_even = all(p % 2 == 0 for p in d)
        t_mults_even = all(m % 2 == 0 for m in row_profile(transpose(d)).mults)
        assert all_even == t_mults_even


@pytest.mark.parametrize(
    "d,expected",
    [((2, 1, 1), (2, 2)), ((1, 1, 1, 1), (0, 4)), ((2, 2), (4, 0))],
)
def test_coset_signature_examples(d, expected):
    assert coset_signature(d) == expected


def test_coset_signature_is_the_sums_of_the_parity_split():
    for d in [*diagrams_up_to(16), (10**23, 10**23, 1)]:
        assert coset_signature(d) == tuple(map(sum, even_odd_split(d))), d


def test_all_diagrams_order_and_count():
    assert all_diagrams(3) == ((3,), (2, 1), (1, 1, 1))
    assert all_diagrams(0) == ((),)
    assert len(all_diagrams(10)) == 42
    for n in range(0, 10):
        ds = all_diagrams(n)
        assert list(ds) == sorted(ds, reverse=True)


@pytest.mark.parametrize("n", [MAX_PARTITIONED + 1, 4 * 10**9, 10**23])
def test_all_diagrams_refuses_n_past_its_bound(n):
    # Refused before a partition is listed, naming n; a refusal is not cached.
    cached = all_diagrams.cache_info().currsize
    with pytest.raises(SizeBoundError, match=str(n)):
        all_diagrams(n)
    assert all_diagrams.cache_info().currsize == cached


def test_orbit_text_roundtrip():
    assert parse_orbit("3,1,1") == (3, 1, 1)
    assert parse_orbit("1,3,1") == (3, 1, 1)
    assert format_diagram((3, 1, 1)) == "[3,1,1]"
    assert format_diagram(()) == "[]"
    with pytest.raises(InvalidPartitionError):
        parse_orbit("2,0")
    with pytest.raises(InvalidPartitionError):
        parse_orbit("a,b")
    with pytest.raises(InvalidPartitionError):
        parse_orbit("")


@pytest.mark.parametrize("value", [3, None, (2, 1), b"2,1"])
def test_parse_orbit_refuses_anything_but_text(value):
    with pytest.raises(InvalidPartitionError, match="cannot parse orbit"):
        parse_orbit(value)


@pytest.mark.parametrize("d", [3, None, 2.5])
def test_check_diagram_refuses_a_value_that_is_not_a_sequence(d):
    with pytest.raises(InvalidPartitionError, match="a diagram is a sequence"):
        check_diagram(d)


# Reference: check_diagram as it was before its results were cached, with
# the same whole-number test (unipcount.errors.whole_numbers).
def reference_check_diagram(d):
    given = tuple(d)
    try:
        rows = tuple(map(int, given))
    except (TypeError, ValueError, OverflowError):
        rows = None
    if rows != given:
        bad = next(r for r in given if _not_int_valued(r))
        raise InvalidPartitionError(f"row lengths must be whole numbers, got {bad!r}")
    if rows and min(rows) < 1:
        raise InvalidPartitionError(f"row lengths must be positive integers: {rows}")
    if any(map(lt, rows, rows[1:])):
        raise InvalidPartitionError(f"row lengths must be weakly decreasing: {rows}")
    return rows


def _not_int_valued(r):
    try:
        return int(r) != r
    except (TypeError, ValueError, OverflowError):
        return True


def _outcome(check, d):
    try:
        return ("ok", check(d))
    except Exception as exc:
        return (type(exc), str(exc))


def assert_matches_reference(d):
    got = _outcome(check_diagram, d)
    assert got == _outcome(reference_check_diagram, d), d
    if got[0] == "ok":
        assert all(type(p) is int for p in got[1]), d


rows = st.one_of(
    st.integers(-1, 4),
    st.integers(-1, 4).map(float),
    st.sampled_from([0.5, 2.7, -1.5]),
    st.booleans(),
    st.sampled_from(["2", "1", "x"]),
)


# Sequences drawn from a small pool of row tuples, so that they repeat.
sequences = st.lists(st.lists(rows, max_size=4).map(tuple), min_size=1, max_size=12).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=24)
)


# A row below 1 is named before the order, also when both are wrong.
@example([(0, 1)])
@example([(1, 0, 2)])
@example([(3, -1, 4)])
@given(sequences)
def test_cached_check_matches_the_uncached_reference_in_any_order(sequence):
    diagrams._checked.cache_clear()
    for d in sequence:
        assert_matches_reference(d)


@pytest.mark.parametrize(
    "sequence",
    [[(2.0, 1), (2, 1)], [(2, 1), (2.0, 1)], [(True, 1.0), (1, 1)], [(2.0, 1.0), (2.5, 1)]],
)
def test_a_cache_hit_is_the_all_int_result_of_a_fresh_check(sequence):
    diagrams._checked.cache_clear()
    for d in sequence:
        assert_matches_reference(d)


def test_failed_checks_are_not_cached_and_the_cache_is_bounded():
    diagrams._checked.cache_clear()
    for d in [(1, 2), (0,), ("2",), (2.5,)]:
        with pytest.raises(InvalidPartitionError):
            check_diagram(d)
    assert diagrams._checked.cache_info().currsize == 0
    assert diagrams._checked.cache_info().maxsize == 1 << 14


# make_group and OrbitSpec check each distinct input once, behind a memo like
# _checked: a hit must give what the uncached check gives that input.
MEMOS = {make_group: unipotent._checked_group, OrbitSpec: unipotent._checked_orbit}
fields = st.one_of(
    st.none(),
    st.integers(-1, 4),
    st.integers(-1, 4).map(float),
    st.booleans(),
    st.sampled_from([Fraction(2), 0.5, "2"]),
)
group_args = st.tuples(
    st.sampled_from(["su", "u-tilde", "gl-r", "sl-h", "xx", GroupKind.SU, GroupKind.GL_R]),
    fields,
    fields,
    fields,
)
orbit_rows = st.lists(st.one_of(rows, st.just(Fraction(2))), max_size=4).map(tuple)
orbit_args = st.tuples(orbit_rows, st.one_of(st.none(), orbit_rows))
pooled = lambda args: st.lists(args, min_size=1, max_size=8).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=16)
)


def _spec_outcome(build, args):
    got = _outcome(lambda a: build(*a), args)
    if got[0] == "ok":
        spec = got[1]
        if isinstance(spec, OrbitSpec):
            whole = chain(spec.first, spec.second or ())
        else:
            assert type(spec.kind) is GroupKind
            whole = (x for x in spec[1:] if x is not None)
        assert all(type(x) is int for x in whole), args
    return got


# Equal inputs that hash alike share an entry, whichever comes first.
@example(
    [("su", None, 2.0, 1), (GroupKind.SU, 3, Fraction(2), True), ("su", None, 2, 1.0)],
    [((2.0, True), None), ((Fraction(2), 1), (1.0, 1.0)), ((2, 1), (True, 1))],
)
@example([("gl-r", 4.0, None, None), (GroupKind.GL_R, 4, None, None)], [((2, 1), (2.5,))])
@given(pooled(group_args), pooled(orbit_args))
def test_memoized_specs_match_the_uncached_check_in_any_order(groups, orbits):
    for build, sequence in [(make_group, groups), (OrbitSpec, orbits)]:
        memo = MEMOS[build]
        memo.cache_clear()
        for args in sequence:
            assert _spec_outcome(build, args) == _spec_outcome(memo.__wrapped__, args), args


def test_unhashable_inputs_are_checked_uncached():
    for memo in MEMOS.values():
        memo.cache_clear()
    for build, args, error, message in [
        (OrbitSpec, ([1, 2],), InvalidPartitionError, "row lengths must be weakly decreasing: (1, 2)"),
        (OrbitSpec, ([2, [1]],), InvalidPartitionError, "row lengths must be whole numbers, got [1]"),
        (OrbitSpec, ((2, 1), [1, 2]), InvalidPartitionError, "row lengths must be weakly decreasing: (1, 2)"),
        (make_group, ("su", None, [1], 1), UnsupportedGroupError, "kind su takes whole p, q, got [1]"),
        (make_group, ("gl-r", [3]), UnsupportedGroupError, "kind gl-r takes a whole n, got [3]"),
        (make_group, (["su"], 3), UnsupportedGroupError, "unknown group kind ['su']"),
        (make_group, ("su", [2], 1, 1), DegreeMismatchError, "n = [2] does not match p + q = 2"),
    ]:
        with pytest.raises(error) as caught:
            build(*args)
        assert str(caught.value) == message
    # Lists of whole rows are taken as a fresh check takes them.
    spec = OrbitSpec([2.0, 1], [True])
    assert spec == ((2, 1), (1,)) and all(type(x) is int for x in spec.first + spec.second)
    assert [memo.cache_info().currsize for memo in MEMOS.values()] == [0, 0]


def test_refused_specs_are_not_cached_and_the_memos_are_bounded():
    make_group("su", p=1, q=1)
    OrbitSpec((1, 1))
    sizes = {build: memo.cache_info().currsize for build, memo in MEMOS.items()}
    for args in [("xx", 2), ("su", None, 0, 0), ("su", None, 2.5, 1), ("gl-r", 3, 1), ("sl-h", 3), ("su", 3, 1, 1)]:
        with pytest.raises(EngineError):
            make_group(*args)
    for args in [((1, 2),), ((2, 1), (0,)), (("2",),), ((2.5,), None)]:
        with pytest.raises(InvalidPartitionError):
            OrbitSpec(*args)
    for build, memo in MEMOS.items():
        assert memo.cache_info().currsize == sizes[build] > 0
        assert memo.cache_info().maxsize == 1 << 14
