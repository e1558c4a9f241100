import pytest
from hypothesis import given
from hypothesis import strategies as st

from unipcount.diagrams import (
    all_diagrams,
    coset_signature,
    even_odd_split,
    format_diagram,
    make_diagram,
    parse_orbit,
    row_profile,
    row_union,
    transpose,
)
from unipcount.errors import InvalidPartitionError

diagrams_up_to = lambda n: [d for m in range(n + 1) for d in all_diagrams(m)]


@pytest.mark.parametrize(
    "parts,expected",
    [([3, 1], (3, 1)), ([1, 3, 1], (3, 1, 1)), ([], ()), ([5], (5,))],
)
def test_make_diagram_sorts(parts, expected):
    assert make_diagram(parts) == expected


@pytest.mark.parametrize("parts", [[2, 0], [0], [-1, 3], [1, 1, -2]])
def test_make_diagram_rejects_nonpositive(parts):
    with pytest.raises(InvalidPartitionError):
        make_diagram(parts)


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
    d = make_diagram(parts)
    assert transpose(transpose(d)) == d
    assert sum(transpose(d)) == sum(d)


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
    i, j = make_diagram(a), make_diagram(b)
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


def test_all_diagrams_order_and_count():
    assert all_diagrams(3) == ((3,), (2, 1), (1, 1, 1))
    assert all_diagrams(0) == ((),)
    assert len(all_diagrams(10)) == 42
    for n in range(0, 10):
        ds = all_diagrams(n)
        assert list(ds) == sorted(ds, reverse=True)


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
