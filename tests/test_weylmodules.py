import json
import re
import tracemalloc
from enum import IntEnum
from hashlib import sha256
from math import comb, factorial, inf, nan, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unipcount import diagrams, weylmodules
from unipcount.diagrams import CosetSignature, all_diagrams, coset_signature
from unipcount.errors import (
    MAX_MEMO,
    DegreeMismatchError,
    InvalidPartitionError,
    ShapeMismatchError,
    UnsupportedGroupError,
    whole_numbers,
)
from unipcount.oracle import run_checks
from unipcount.symreps import irrep_dimension
from unipcount.weylmodules import (
    ModuleDecomp,
    block_matchings_first,
    block_matchings_second,
    coh_gl_complex,
    coh_sl_complex,
    coh_su,
    coh_u_cover,
    diagonal_module,
    matchings_module,
    sign_induction_module,
)

import reference
from test_package_surface import NOT_WHOLE


def md(shape, mults):
    return ModuleDecomp(shape, mults)


def test_sum_identity_and_pointwise():
    a = md((2,), {((2,),): 1})
    assert a + ModuleDecomp((2,)) == a
    assert a + md((2,), {((2,),): 2}) == md((2,), {((2,),): 3})


def test_sum_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        md((2,), {((2,),): 1}) + md((3,), {((3,),): 1})


def test_sum_with_a_non_module_is_a_type_error():
    with pytest.raises(TypeError):
        md((2,), {((2,),): 1}) + 1


def test_a_negative_factor_degree_is_refused():
    with pytest.raises(ShapeMismatchError, match=r"must be non-negative: \(2, -1\)$"):
        ModuleDecomp((2, -1))


def test_repr_lists_the_entries_in_order():
    a = md((2, 0), {((1, 1), ()): 2, ((2,), ()): 1})
    assert repr(a) == "ModuleDecomp(shape=(2, 0), {([2],[]): 1, ([1,1],[]): 2})"
    assert repr(ModuleDecomp((2, 1))) == "ModuleDecomp(shape=(2, 1), {})"


def test_sum_dimension_additive():
    a = md((2, 1), {((2,), (1,)): 1, ((1, 1), (1,)): 2})
    b = md((2, 1), {((2,), (1,)): 3})
    assert (a + b).dimension() == a.dimension() + b.dimension()


def test_tensor_unit_and_shapes():
    a = md((2,), {((2,),): 1, ((1, 1),): 2})
    unit = md((), {(): 1})
    assert unit.tensor(a) == a
    assert a.tensor(unit) == a
    t = md((2,), {((2,),): 1}).tensor(md((1,), {((1,),): 1}))
    assert t == md((2, 1), {((2,), (1,)): 1})
    assert t.shape == (2, 1)


def test_tensor_dimension_multiplicative():
    a = md((3,), {((2, 1),): 2, ((3,),): 1})
    b = md((2,), {((1, 1),): 3})
    assert a.tensor(b).dimension() == a.dimension() * b.dimension()


def test_multiplicity_lookup():
    zero = ModuleDecomp((2, 2))
    assert zero.multiplicity(((2,), (1, 1))) == 0
    assert diagonal_module(2).multiplicity(((2,), (2,))) == 1
    assert diagonal_module(2).multiplicity(((1, 1), (2,))) == 0
    with pytest.raises(ShapeMismatchError):
        diagonal_module(2).multiplicity(((2,),))
    with pytest.raises(ShapeMismatchError):
        diagonal_module(2).multiplicity(((2, 1), (2,)))


def test_keys_validated_against_shape():
    with pytest.raises(ShapeMismatchError):
        md((2,), {((3,),): 1})
    with pytest.raises(ShapeMismatchError):
        md((2,), {((2,), (1,)): 1})


@pytest.mark.parametrize(
    "key",
    [
        (),
        ((2,),),
        ((2,), (1,), ()),
        ((2,), (1,), (1,)),
        ((1,), (2,)),
        ((1, 1), (2,)),
        ((2, 1), ()),
    ],
)
def test_keys_of_the_wrong_length_or_sizes_name_key_and_shape(key):
    # One comparison of the diagram sizes with the shape catches a wrong
    # length too; construction and lookup report it the same way.
    message = r"^key .* does not match shape \(2, 1\)$"
    with pytest.raises(ShapeMismatchError, match=message):
        md((2, 1), {key: 1})
    with pytest.raises(ShapeMismatchError, match=message):
        md((2, 1), [(key, 0)])
    with pytest.raises(ShapeMismatchError, match=message):
        md((2, 1), {((2,), (1,)): 1}).multiplicity(key)
    with pytest.raises(ShapeMismatchError, match=r"^key .* does not match shape \(\)$"):
        ModuleDecomp(()).multiplicity(key or ((1,),))


def test_matchings_module_small():
    assert matchings_module(0) == md((0,), {((),): 1})
    assert matchings_module(1) == md((2,), {((2,),): 1})
    assert matchings_module(2) == md((4,), {((4,),): 1, ((2, 2),): 1})


def test_matchings_module_dimension():
    for r in range(0, 6):
        expected = factorial(2 * r) // (2**r * factorial(r))
        assert matchings_module(r).dimension() == expected


def test_sign_induction_module_small():
    assert sign_induction_module(0, 0) == md((0,), {((),): 1})
    assert sign_induction_module(1, 0) == md((1,), {((1,),): 1})
    assert sign_induction_module(1, 1) == md((2,), {((2,),): 2, ((1, 1),): 1})


def _content_sum(nu):
    """Sum of j - i over the boxes (i, j) of nu."""
    return sum(row * (row - 1) // 2 - i * row for i, row in enumerate(nu))


def _index(p, q, k):
    """[S_n : H_k] for H_k = (S_2 wr S_k) x S_{p-k} x S_{q-k}, n = p + q."""
    return factorial(p + q) // (2**k * factorial(k) * factorial(p - k) * factorial(q - k))


def _sign_induction_dimension(p, q):
    return sum(_index(p, q, k) for k in range(min(p, q) + 1))


def _assert_class_values(p, q):
    # Two class values of the induced module, computed without any diagram:
    # H_k has index n!/(2^k k! (p-k)! (q-k)!), and the sum of these indices
    # is the dimension. At a transposition, the character of nu is
    # dim(nu) 2c(nu)/(n(n-1)) with c the content sum, and the induced
    # character is the index times the inducing character summed over the
    # transpositions of H_k, over all C(n, 2) of them: +1 for each of the k
    # pair swaps, -1 for each transposition of S_{p-k} or S_{q-k}. Both
    # sides below are that value times C(n, 2). irrep_dimension is the
    # hook-length formula and shares no code with the Pieri reader.
    module = sign_induction_module(p, q)
    assert module.dimension() == _sign_induction_dimension(p, q), (p, q)
    transposition = sum(
        _index(p, q, k) * (k - comb(p - k, 2) - comb(q - k, 2)) for k in range(min(p, q) + 1)
    )
    assert sum(
        m * irrep_dimension(nu) * _content_sum(nu) for (nu,), m in module.mults.items()
    ) == transposition, (p, q)


def test_sign_induction_module_class_values():
    # Every (p, q) with p + q <= 26.
    for n in range(27):
        for p in range(n + 1):
            _assert_class_values(p, n - p)


@settings(deadline=None, max_examples=3)
@given(st.integers(27, 40).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))))
def test_sign_induction_module_class_values_past_n_26(signature):
    # One random (p, q) with 27 <= p + q <= 40. A first module of size n
    # reads every one of the p(n) labels, p(40) = 37,338 of them: about a
    # second at n = 40 on a 2-vCPU host under Python 3.11, so few examples.
    p, n = signature
    _assert_class_values(p, n - p)


def test_coh_dimensions_are_sums_over_their_blocks():
    # The block summand with its matchings factor of degree r is the
    # matchings module of rank r/2, of dimension (r - 1)!!, times the sign
    # induction at (p - r/2, q - r/2), and the zero module when r is odd or
    # min(p, q) < r/2; the zero blocks are summed too. su adds two diagonal
    # summands, of dimension p! each, exactly when p = q = n_h = n_0.
    def block(p, q, r):
        if r % 2 or min(p, q) < r // 2:
            return 0
        return prod(range(r - 1, 0, -2)) * _sign_induction_dimension(p - r // 2, q - r // 2)

    for n in range(17):
        for n_h in range(n + 1):
            sig = CosetSignature(n_h, n - n_h)
            for p in range(n + 1):
                q = n - p
                blocks = block(p, q, n_h) + block(p, q, n - n_h)
                assert coh_u_cover(p, q, sig).dimension() == blocks, (p, q, sig)
                diagonals = 2 * factorial(p) if p == q == n_h == n - n_h else 0
                assert coh_su(p, q, sig).dimension() == blocks + diagonals, (p, q, sig)


def test_diagonal_module_small():
    assert diagonal_module(0) == md((0, 0), {((), ()): 1})
    assert diagonal_module(1) == md((1, 1), {((1,), (1,)): 1})
    assert diagonal_module(2) == md(
        (2, 2), {((2,), (2,)): 1, ((1, 1), (1, 1)): 1}
    )


def test_diagonal_module_dimension():
    for r in range(0, 7):
        assert diagonal_module(r).dimension() == factorial(r)


def test_blocks_vanish_for_odd_rank():
    assert block_matchings_first(1, 1, 1) == ModuleDecomp((1, 1))
    assert block_matchings_second(2, 1, 1) == ModuleDecomp((2, 1))


def test_blocks_vanish_when_rank_exceeds_signature():
    assert block_matchings_first(2, 0, 2) == ModuleDecomp((2, 0))


@pytest.mark.parametrize("block", [block_matchings_first, block_matchings_second])
def test_the_zero_block_cache_is_bounded(block):
    # Every distinct (p, q, r) with min(p, q) < r/2 is a zero block; a sweep
    # of more of them than the bound leaves the cache at the bound.
    # The full cache is emptied again, so later tests do not carry it.
    bound = block.cache_info().maxsize
    assert bound == MAX_MEMO
    block.cache_clear()
    try:
        for q in range(bound + 10):
            assert block(0, q + 2, 2).mults == {}
        assert block.cache_info().currsize == bound
    finally:
        block.cache_clear()


@pytest.mark.parametrize("block", [block_matchings_first, block_matchings_second])
def test_a_zero_block_is_the_zero_module_of_its_shape(block):
    # The shape is the tuple of ints the block was called with, as for a
    # block that is not zero, and a zero block carries no parts.
    for n in range(9):
        for p in range(n + 1):
            for r in range(n + 1):
                module = block(p, n - p, r)
                shape = (r, n - r) if block is block_matchings_first else (n - r, r)
                assert module.shape == shape and all(type(s) is int for s in module.shape)
                if r % 2 or min(p, n - p) < r // 2:
                    assert module == ModuleDecomp(shape) and module.parts == {}


@pytest.mark.parametrize("block", [block_matchings_first, block_matchings_second])
@pytest.mark.parametrize("p, q, r", [(0, 0, 2), (1, 1, 3), (1, 1, 4), (1, 1, -1), (1, 1, -2)])
def test_a_block_degree_outside_the_signature_is_refused(block, p, q, r):
    with pytest.raises(ShapeMismatchError, match=rf"^a block degree must lie in 0\.\.{p + q}, got {r}$"):
        block(p, q, r)


def _clear_module_caches():
    for cached in vars(weylmodules).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()


def test_the_engine_builds_and_reads_no_module_through_the_checks_for_outside_input(monkeypatch):
    # ModuleDecomp(...), from_json_obj and multiplicity check outside input.
    # Every module the engine builds, zero blocks included, goes through
    # _built, and verify reads the cell's entry off mults. The caches are
    # emptied first, so every block is built again here, and afterwards, so
    # later tests do not carry them.
    def refuse(*args, **kwargs):
        raise AssertionError("the engine went through a check meant for outside input")

    _clear_module_caches()
    monkeypatch.setattr(ModuleDecomp, "__init__", refuse)
    monkeypatch.setattr(ModuleDecomp, "multiplicity", refuse)
    try:
        assert sum(1 for _ in _coh_modules(8)) == 660
        report = run_checks(6)
    finally:
        _clear_module_caches()
    assert [entry for entry in report if not entry["pass"]] == []


def test_block_examples():
    assert block_matchings_first(2, 1, 2) == md((2, 1), {((2,), (1,)): 1})
    assert block_matchings_second(1, 1, 2) == md((0, 2), {((), (2,)): 1})


def test_coh_u_cover_examples():
    assert coh_u_cover(1, 1, (0, 2)) == md(
        (0, 2), {((), (2,)): 3, ((), (1, 1)): 1}
    )
    assert coh_u_cover(2, 1, (2, 1)) == md((2, 1), {((2,), (1,)): 1})
    assert coh_u_cover(2, 2, (2, 2)) == md(
        (2, 2), {((2,), (2,)): 4, ((2,), (1, 1)): 1, ((1, 1), (2,)): 1}
    )


def test_coh_u_cover_parts_cover_total_and_follow_parity():
    for p in range(0, 4):
        for q in range(0, 4):
            n = p + q
            if n == 0:
                continue
            for n_h in range(0, n + 1):
                sig = (n_h, n - n_h)
                module = coh_u_cover(p, q, sig)
                parts = module.parts
                assert set(parts) == {"genuine", "non_genuine"}
                assert parts["genuine"] + parts["non_genuine"] == md(
                    module.shape, module.mults
                )
                first = block_matchings_first(p, q, n_h)
                if n % 2:
                    assert parts["non_genuine"] == first
                else:
                    assert parts["genuine"] == first


def test_coh_u_cover_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        coh_u_cover(1, 1, (2, 1))


@pytest.mark.parametrize(
    "build, args",
    [
        (sign_induction_module, (-1, 3)),
        (coh_su, (-1, 3, (0, 2))),
        (coh_u_cover, (3, -1, (2, 0))),
        (block_matchings_first, (-1, 3, 0)),
        (block_matchings_second, (3, -1, 0)),
    ],
)
def test_builders_reject_negative_signature(build, args):
    # make_group refuses these signatures; the exported builders must too
    # rather than return a zero module
    with pytest.raises(UnsupportedGroupError):
        build(*args)


# The degree rule's guard: every public builder of weylmodules and
# all_diagrams, each with whole arguments it accepts, spread out as the
# scalars it reads, and the class that refuses each scalar when it is not
# whole: the README's UnsupportedGroupError for p and q, ShapeMismatchError
# for a degree, rank or coset-signature entry, InvalidPartitionError for n.
P, D = UnsupportedGroupError, ShapeMismatchError
GUARDED = {
    "matchings_module": (matchings_module, (2,), (D,)),
    "diagonal_module": (diagonal_module, (2,), (D,)),
    "sign_induction_module": (sign_induction_module, (2, 1), (P, P)),
    "block_matchings_first": (block_matchings_first, (2, 2, 2), (P, P, D)),
    "block_matchings_second": (block_matchings_second, (2, 2, 2), (P, P, D)),
    "coh_su": (lambda p, q, n_h, n_0: coh_su(p, q, (n_h, n_0)), (2, 2, 2, 2), (P, P, D, D)),
    "coh_u_cover": (lambda p, q, n_h, n_0: coh_u_cover(p, q, (n_h, n_0)), (2, 1, 2, 1), (P, P, D, D)),
    "coh_gl_complex": (lambda n_h, n_0: coh_gl_complex((n_h, n_0)), (2, 1), (D, D)),
    "coh_sl_complex": (lambda n_h, n_0: coh_sl_complex((n_h, n_0)), (2, 2), (D, D)),
    "all_diagrams": (all_diagrams, (4,), (InvalidPartitionError,)),
}
COSET_TAKERS = {
    "coh_su": lambda sig: coh_su(2, 2, sig),
    "coh_u_cover": lambda sig: coh_u_cover(2, 1, sig),
    "coh_gl_complex": coh_gl_complex,
    "coh_sl_complex": coh_sl_complex,
}


def _with(args, i, value):
    return args[:i] + (value,) + args[i + 1:]


def test_every_public_builder_is_guarded():
    # A new public builder fails here until it is added to GUARDED.
    public = {
        name for name, obj in vars(weylmodules).items()
        if not name.startswith("_") and callable(obj)
        and getattr(obj, "__module__", None) == weylmodules.__name__ and obj is not ModuleDecomp
    }
    assert public == set(GUARDED) - {"all_diagrams"}
    assert set(COSET_TAKERS) == {name for name in public if name.startswith("coh_")}


@pytest.mark.parametrize(
    "call, args, i, error, bad",
    [
        pytest.param(call, args, i, errors[i], value, id=f"{name}-{i}-{value_id}")
        for name, (call, args, errors) in GUARDED.items()
        for i in range(len(args))
        for value_id, value in NOT_WHOLE.items()
    ],
)
def test_a_builder_refuses_a_value_that_is_not_whole(call, args, i, error, bad):
    with pytest.raises(error, match=re.escape(f"got {bad!r}") + "$") as caught:
        call(*_with(args, i, bad))
    assert type(caught.value) is error


@pytest.mark.parametrize("build", COSET_TAKERS.values(), ids=COSET_TAKERS)
@pytest.mark.parametrize(
    "sig", [*NOT_WHOLE.values(), (2, 1, 0), (3,), ()], ids=[*NOT_WHOLE, "triple", "single", "empty"]
)
def test_a_coset_signature_that_is_not_a_pair_of_whole_numbers_is_refused(build, sig):
    with pytest.raises(ShapeMismatchError, match=re.escape(f"got {sig!r}") + "$") as caught:
        build(sig)
    assert type(caught.value) is ShapeMismatchError


@pytest.mark.parametrize(
    "call, args, i",
    [
        pytest.param(call, args, i, id=f"{name}-{i}")
        for name, (call, args, _) in GUARDED.items()
        for i in range(len(args))
    ],
)
def test_a_whole_float_builds_what_the_int_builds(call, args, i):
    # Cold caches, so the float call is the one that builds; the int call may
    # then hit its memo entry, since (2.0, 1) == (2, 1).
    _clear_module_caches()
    all_diagrams.cache_clear()
    built = call(*_with(args, i, float(args[i])))
    shape = built.shape if isinstance(built, ModuleDecomp) else tuple(map(sum, built))
    assert all(type(s) is int for s in shape)
    assert built == call(*args)


def test_the_calls_that_raised_a_bare_error_refuse_or_build_with_ints():
    for call, error in [
        (lambda: matchings_module(1.5), ShapeMismatchError),
        (lambda: sign_induction_module(2, "a"), UnsupportedGroupError),
        (lambda: block_matchings_first(1, 1, "a"), ShapeMismatchError),
        (lambda: coh_su(1, 1, (2, 0, 0)), ShapeMismatchError),
        (lambda: all_diagrams(2.5), InvalidPartitionError),
    ]:
        with pytest.raises(error):
            call()
    assert block_matchings_first(4.0, 2, 2) == block_matchings_first(4, 2, 2)
    assert block_matchings_first(2.0, 0, 2).shape == (2, 0)
    assert diagonal_module(2.0) == diagonal_module(2)
    assert coh_gl_complex((2.0, 1)) == coh_gl_complex((2, 1))
    assert coh_su(2, 2, (2.0, 2)) == coh_su(2, 2, (2, 2))
    all_diagrams(4)
    assert all_diagrams(4.0) == all_diagrams(4)


def test_a_coset_of_the_wrong_degree_is_refused_before_its_range():
    # (3, -1) sums to p + q = 2 and so is read against 0..2; (3, 0) does not.
    with pytest.raises(DegreeMismatchError, match=r"^p \+ q = 2 does not match coset degree 3$"):
        coh_su(1, 1, (3, 0))
    with pytest.raises(ShapeMismatchError, match=r"^a block degree must lie in 0\.\.2, got 3$"):
        coh_u_cover(1, 1, (3, -1))


def test_coh_su_examples():
    assert coh_su(1, 1, (1, 1)) == md((1, 1), {((1,), (1,)): 2})
    assert coh_su(1, 1, (0, 2)) == coh_u_cover(1, 1, (0, 2))
    diag = diagonal_module(2)
    expected = coh_u_cover(2, 2, (2, 2)) + diag + diag
    assert coh_su(2, 2, (2, 2)) == md(expected.shape, expected.mults)


def test_coh_su_branch_predicate():
    # the diagonal summands appear exactly when p = q = n_h = n_0
    base = block_matchings_first(2, 2, 2) + block_matchings_second(2, 2, 2)
    assert coh_su(2, 2, (2, 2)) != base
    assert coh_su(3, 1, (2, 2)) == (
        block_matchings_first(3, 1, 2) + block_matchings_second(3, 1, 2)
    )


def test_coh_su_shape_matches_signature():
    for n in range(1, 7):
        for orbit in all_diagrams(n):
            sig = coset_signature(orbit)
            for p in range(0, n + 1):
                assert coh_su(p, n - p, sig).shape == sig
                assert coh_u_cover(p, n - p, sig).shape == sig


def test_coh_gl_complex_examples():
    assert coh_gl_complex((1, 0)) == md(
        (1, 0, 1, 0), {((1,), (), (1,), ()): 1}
    )
    assert coh_gl_complex((1, 1)) == md(
        (1, 1, 1, 1), {((1,), (1,), (1,), (1,)): 1}
    )
    assert coh_gl_complex((2, 1)).dimension() == 2


def test_coh_gl_complex_regular_dimension():
    for n in range(0, 9):
        for n_h in range(0, n + 1):
            sig = (n_h, n - n_h)
            assert coh_gl_complex(sig).dimension() == factorial(n_h) * factorial(
                n - n_h
            )


def test_coh_sl_complex_examples():
    assert coh_sl_complex((2, 1)) == coh_gl_complex((2, 1))
    assert coh_sl_complex((1, 1)) == md(
        (1, 1, 1, 1), {((1,), (1,), (1,), (1,)): 2}
    )
    swap_only = coh_sl_complex((2, 2)).multiplicity(
        ((1, 1), (2,), (2,), (1, 1))
    )
    assert swap_only == 1


def test_json_roundtrip_and_canonical_order():
    module = coh_su(2, 2, (2, 2))
    obj = module.to_json_obj()
    assert obj["shape"] == [2, 2]
    keys = [tuple(tuple(d) for d in e["key"]) for e in obj["mults"]]
    assert keys == sorted(keys, reverse=True)
    assert ModuleDecomp.from_json_obj(obj) == module
    unit = md((), {(): 1})
    assert ModuleDecomp.from_json_obj(unit.to_json_obj()) == unit
    zero = ModuleDecomp((3, 1))
    assert ModuleDecomp.from_json_obj(zero.to_json_obj()) == zero


def test_json_refuses_entries_that_are_not_whole_numbers():
    # int() would truncate these to {((2,),): 1}.
    with pytest.raises(InvalidPartitionError):
        ModuleDecomp.from_json_obj({"shape": [2], "mults": [{"key": [[2.9]], "m": 1.5}]})
    with pytest.raises(ShapeMismatchError, match="whole numbers"):
        ModuleDecomp.from_json_obj({"shape": [2], "mults": [{"key": [[2]], "m": 1.5}]})
    with pytest.raises(ShapeMismatchError, match="whole numbers"):
        ModuleDecomp((2.5,), {})
    whole = ModuleDecomp.from_json_obj({"shape": [2.0], "mults": [{"key": [[2.0]], "m": 1.0}]})
    assert whole == md((2,), {((2,),): 1})
    assert type(whole.shape[0]) is int and type(whole.mults[((2,),)]) is int


@pytest.mark.parametrize(
    "obj",
    [
        {},
        {"shape": [2]},
        {"shape": [2], "mults": [{"key": [[2]]}]},
        {"shape": [2], "mults": [{"key": 2, "m": 1}]},
        {"shape": [2], "mults": [[[[2]], 1]]},
        {"shape": 2, "mults": []},
        [[2], []],
        None,
    ],
)
def test_json_of_the_wrong_form_raises_shape_mismatch(obj):
    with pytest.raises(ShapeMismatchError, match="not a module object"):
        ModuleDecomp.from_json_obj(obj)


NOT_WHOLE = ["x", nan, inf, None, [1], "2", 2.5]


@pytest.mark.parametrize("value", NOT_WHOLE)
def test_shape_entries_that_are_not_whole_raise_shape_mismatch(value):
    with pytest.raises(ShapeMismatchError, match="factor degrees must be whole numbers"):
        ModuleDecomp((2, value))
    with pytest.raises(ShapeMismatchError, match="factor degrees must be whole numbers"):
        ModuleDecomp.from_json_obj({"shape": [value], "mults": []})


@pytest.mark.parametrize("value", NOT_WHOLE)
def test_multiplicities_that_are_not_whole_raise_shape_mismatch(value):
    message = "multiplicities must be whole numbers, got " + re.escape(repr(value))
    with pytest.raises(ShapeMismatchError, match=message):
        ModuleDecomp((2,), {((2,),): value})
    with pytest.raises(ShapeMismatchError, match=message):
        ModuleDecomp((2,), [(((2,),), 1), (((1, 1),), value)])
    with pytest.raises(ShapeMismatchError, match=message):
        ModuleDecomp.from_json_obj({"shape": [2], "mults": [{"key": [[2]], "m": value}]})


def test_negative_multiplicities_name_the_first_one():
    with pytest.raises(ShapeMismatchError, match="non-negative, got -1$"):
        md((2,), [(((2,),), 1), (((1, 1),), -1), (((2,),), -3)])


def test_reading_a_module_checks_each_distinct_diagram_once():
    obj = coh_gl_complex(CosetSignature(4, 4)).to_json_obj()
    diagrams._checked.cache_clear()
    module = ModuleDecomp.from_json_obj(obj)
    # 25 keys of four diagrams each, drawn from the p(4) = 5 partitions of 4.
    assert len(module.mults) == 25
    assert diagrams._checked.cache_info().misses == 5


def _coh_modules(max_n):
    for n in range(max_n + 1):
        for n_h in range(n + 1):
            sig = CosetSignature(n_h, n - n_h)
            yield coh_gl_complex(sig)
            yield coh_sl_complex(sig)
            for p in range(n + 1):
                yield coh_su(p, n - p, sig)
                yield coh_u_cover(p, n - p, sig)


def test_every_small_coh_module_reads_back_from_json_in_canonical_order():
    for module in _coh_modules(8):
        assert ModuleDecomp.from_json_obj(module.to_json_obj()) == module
        entries = module.entries()
        assert [key for key, _ in entries] == sorted(module.mults, reverse=True)
        assert all(module.mults[key] == m for key, m in entries)


def test_the_json_writer_shares_the_module_keys():
    for module in _coh_modules(8):
        obj = module.to_json_obj()
        assert len(obj["mults"]) == len(module.mults)
        for entry, (key, m) in zip(obj["mults"], module.entries()):
            assert entry["key"] is key and entry["m"] == m
    module = coh_sl_complex(CosetSignature(8, 8))
    assert len(module.mults) == 946
    tracemalloc.start()
    try:
        module.to_json_obj()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # About 256 B per entry: its dict, its slot in the list and the sorted
    # copy entries() makes. A list per diagram would add four of 72 B or more.
    assert peak < 400 * 946


def test_the_json_writer_writes_the_bytes_of_the_list_form():
    for module in _coh_modules(8):
        got = json.dumps(module.to_json_obj(), sort_keys=True)
        assert got == json.dumps(reference.module_json_obj(module), sort_keys=True)


def _entries_digest(modules):
    digest = sha256()
    for module in modules:
        digest.update(repr(module.entries()).encode())
    return digest.hexdigest()


def test_sign_induction_entries_are_pinned():
    # entries() of sign_induction_module(p, q) for every p + q <= 18, in
    # order of n = p + q, then p.
    modules = (sign_induction_module(p, n - p) for n in range(19) for p in range(n + 1))
    assert _entries_digest(modules) == "8cd91a78321e0c7348a095dd8e1954ba522bc8f777037fb1609e9cc4bc4f8db0"


_SIGNATURES_TO_14 = [(n, CosetSignature(n_h, n - n_h)) for n in range(15) for n_h in range(n + 1)]
COH_ENTRIES_SHA256 = {
    "su": "13c36ffd483aa99d8255de3d9e9ec78f9ff1a3bd1858704a4c8251e3c3501191",
    "u-tilde": "f744caa9963ecc06575d5e582e81c4fbdea7cc7863fd00ba6059ae4ae7f5fb82",
    "gl-c": "7d53ef3e6bb81fae4485c93fe4c36f41c308581f8d490662c1a4899223d95d9b",
    "sl-c": "ddae748dc66a42bcb3aa1ec09f1ad26ab7f0afee04d807064e2ef6c13a63e7a4",
}


@pytest.mark.parametrize("kind", sorted(COH_ENTRIES_SHA256))
def test_coh_entries_are_pinned(kind):
    # entries() of every coh module with n <= 14: each coset signature (n_h,
    # n_0) with n_h + n_0 = n, and for su and u-tilde each (p, n - p) at it.
    if kind in ("gl-c", "sl-c"):
        build = coh_gl_complex if kind == "gl-c" else coh_sl_complex
        modules = (build(sig) for _, sig in _SIGNATURES_TO_14)
    else:
        build = coh_su if kind == "su" else coh_u_cover
        modules = (build(p, n - p, sig) for n, sig in _SIGNATURES_TO_14 for p in range(n + 1))
    assert _entries_digest(modules) == COH_ENTRIES_SHA256[kind]


class _Rank(IntEnum):
    TWO = 2


# whole_numbers hands exact ints back untouched, and only those: a bool or an
# IntEnum is coerced, and a tuple subclass comes back as a plain tuple.
def test_only_exact_ints_skip_the_coercion_and_come_back_as_a_plain_tuple():
    for given, expected in [((True, 2), (1, 2)), ((_Rank.TWO, 1), (2, 1)), (CosetSignature(2, 2), (2, 2))]:
        got = whole_numbers(given, ShapeMismatchError, "whole")
        assert got == expected and type(got) is tuple and {*map(type, got)} == {int}, given
    got = weylmodules._degrees((2, 2), CosetSignature(2, 2), coset=True)
    assert got == (2, 2, 2, 2) and type(got) is tuple
