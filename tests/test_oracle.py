import json
import re
from collections import Counter
from functools import cache
from hashlib import sha256
from itertools import product
from math import factorial, prod
from operator import getitem

import pytest

from reference import chi, irreducible_character
from unipcount import oracle, unipotent, weylmodules
from unipcount.diagrams import all_diagrams, coset_signature, row_profile
from unipcount.errors import DegreeMismatchError, InvalidPartitionError, OracleBoundError, SizeBoundError
from unipcount.oracle import (
    all_matchings,
    class_representative,
    decompose,
    induced_character,
    lr_coefficient,
    matchings_character,
    orthogonality_check,
    parameter_tuples,
    run_checks,
)
from unipcount.symreps import ClassFunction, centralizer_order, character_table
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


@pytest.mark.parametrize("call", [all_matchings, matchings_character])
@pytest.mark.parametrize("r", [1.5, "a", "1", float("nan"), None, [1], -1])
def test_a_matchings_rank_that_is_not_a_whole_number_at_least_0_is_refused(call, r):
    message = f"a matchings rank must be a whole number >= 0, got {r!r}"
    with pytest.raises(DegreeMismatchError, match=re.escape(message) + "$"):
        call(r)


@pytest.mark.parametrize(
    "cls,got", [((2.5,), "2.5"), ((3, "1"), "'1'"), ((1, 3), "(1, 3)"), ((2, 0), "(2, 0)"), (5, "5")]
)
def test_a_class_that_is_not_a_diagram_is_refused(cls, got):
    with pytest.raises(InvalidPartitionError, match=re.escape(got) + "$"):
        class_representative(cls)


def test_whole_number_ranks_and_classes_coerce():
    assert all_matchings(2.0) == all_matchings(2)
    assert matchings_character(True) == matchings_character(1)
    assert class_representative((3.0, 1)) == class_representative((3, 1))


def test_matchings_character_examples():
    assert matchings_character(1).values == {(2,): 1, (1, 1): 1}
    cf = matchings_character(2)
    assert cf.values[(1, 1, 1, 1)] == 3
    assert cf.values[(3, 1)] == 0


def test_matchings_bound_enforced(monkeypatch):
    with pytest.raises(OracleBoundError):
        matchings_character(5)
    monkeypatch.setattr(oracle, "MATCHINGS_BOUND", 5)
    assert matchings_character(5).degree == 10


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
    # Class functions compare by value, and their repr rebuilds them.
    assert cf != irreducible_character((1, 1, 1)) and cf != cf.values
    assert eval(repr(cf)) == cf


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
                    mults = decompose(induced)
                    for nu in all_diagrams(a + b):
                        assert mults.get(nu, 0) == lr_coefficient(lam, mu, nu)


def test_induced_trivial_degree_is_multinomial():
    # at the identity every fusion weight is an index [S_n : S_a x S_b x S_c]
    for a, b, c in [(1, 1, 1), (2, 1, 0), (3, 2, 1), (2, 2, 2), (4, 1, 3)]:
        cf = induced_character(
            (a, b, c),
            (trivial_character(a), trivial_character(b), trivial_character(c)),
        )
        n = a + b + c
        assert cf.values[(1,) * n] == factorial(n) // (factorial(a) * factorial(b) * factorial(c))


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
    # The bound is checked before all_diagrams, whose own bound is larger.
    for n in (9, 9.0, 60):
        with pytest.raises(OracleBoundError):
            orthogonality_check(n)


def test_orthogonality_detects_corruption(monkeypatch):
    classes = all_diagrams(4)
    bump = lambda lam, mu: chi(lam, mu) + ((lam, mu) == ((2, 2), (4,)))
    table = {lam: tuple(bump(lam, mu) for mu in classes) for lam in classes}
    assert chi((2, 2), (4,), table) == chi((2, 2), (4,)) + 1
    monkeypatch.setattr(oracle, "_table", lambda n: table)
    assert not orthogonality_check(4)


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


def test_sign_induction_module_matches_induced_oracle(monkeypatch):
    # recompute the closed form end to end: brute-force matchings character,
    # class-fusion induction, inner-product decomposition
    from collections import Counter

    from unipcount.weylmodules import sign_induction_module

    # k reaches 5 at p = q = 5, one above MATCHINGS_BOUND
    monkeypatch.setattr(oracle, "MATCHINGS_BOUND", 5)
    for p in range(0, 6):
        for q in range(0, 6):
            if not 0 < p + q <= 10:
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


def test_decompose_refuses_a_class_function_that_is_not_a_character():
    # Its pairing with the trivial character is 2 * 1 + 1 * 0 = 1, not a
    # multiple of 2!.
    with pytest.raises(AssertionError):
        decompose(ClassFunction(2, {(2,): 1, (1, 1): 0}))


def test_fusion_refuses_a_centralizer_index_that_is_not_whole(monkeypatch):
    # A raise, not an assert, so python -O keeps it. With z(cls) = len(cls)
    # + 1, the class (1, 1) of S_2 would have index 3 / (2 * 2) over S_1 x S_1.
    monkeypatch.setattr(oracle, "centralizer_order", lambda cls: len(cls) + 1)
    with pytest.raises(AssertionError, match=r"no integer index"):
        oracle._fusion.__wrapped__((1, 1))



def test_induced_character_refuses_degrees_that_are_not_whole():
    one = trivial_character(1)
    with pytest.raises(DegreeMismatchError, match="whole numbers"):
        induced_character((1.5, 1), (one, one))
    with pytest.raises(DegreeMismatchError, match="whole numbers"):
        induced_character(("1", 1), (one, one))
    for degree in ["x", float("nan"), float("inf"), None]:
        with pytest.raises(DegreeMismatchError, match="whole numbers"):
            induced_character((degree, 1), (one, one))
    assert induced_character((1.0, 1), (one, one)) == induced_character((1, 1), (one, one))


# Reference: class fusion by splitting each class's cycle multiset among the
# factors, one sub-multiset per factor degree. The oracle walked these
# splits before it read every class off a tuple of subclasses.
def _sub_multisets(counts, target):
    parts = sorted(counts)

    def rec(idx, remaining):
        if remaining == 0:
            yield {}
            return
        if idx == len(parts):
            return
        part = parts[idx]
        for take in range(min(counts[part], remaining // part) + 1):
            for rest in rec(idx + 1, remaining - take * part):
                yield {**rest, part: take} if take else rest

    yield from rec(0, target)


def _class_splits(counts, degrees):
    if len(degrees) == 1:
        if sum(p * c for p, c in counts.items()) == degrees[0]:
            yield (counts,)
        return
    for sub in _sub_multisets(counts, degrees[0]):
        remaining = {p: c - sub.get(p, 0) for p, c in counts.items() if c - sub.get(p, 0) > 0}
        for tail in _class_splits(remaining, degrees[1:]):
            yield (sub, *tail)


def _counts_to_class(counts):
    return tuple(part for part in sorted(counts, reverse=True) for _ in range(counts[part]))


def _split_fusion(sub_degrees):
    table = []
    for cls in all_diagrams(sum(sub_degrees)):
        terms = Counter()
        for split in _class_splits(dict(Counter(cls)), sub_degrees):
            subclasses = tuple(_counts_to_class(s) for s in split)
            z = prod(centralizer_order(sc) for sc in subclasses)
            terms[centralizer_order(cls) // z, subclasses] += 1
        table.append((cls, terms))
    return table


def _degree_tuples(max_total, max_factors):
    for k in range(1, max_factors + 1):
        for degrees in product(range(max_total + 1), repeat=k):
            if sum(degrees) <= max_total:
                yield degrees


def test_fusion_terms_match_the_class_split_recursion():
    # Every degree tuple of total <= 10 with at most 4 factors, zeros included:
    # the same classes in the same order, each with the same multiset of terms.
    # A term names each factor's subclass by its position in all_diagrams.
    for degrees in _degree_tuples(10, 4):
        factors = [all_diagrams(d) for d in degrees]
        fused = [
            (cls, Counter((weight, tuple(map(getitem, factors, positions))) for weight, positions in terms))
            for cls, terms in zip(all_diagrams(sum(degrees)), oracle._fusion(degrees), strict=True)
        ]
        assert fused == _split_fusion(degrees), degrees


def _sweep_faults():
    """(faulted instance, passing neighbour, (module, attribute, fault),
    report) for every check that reports "k mismatches; first: ...", keyed
    by check. Each fault wraps the engine function the check reads."""
    su, sl = unipotent.GroupKind.SU, unipotent.GroupKind.SL_R
    transpose, halves, dim = oracle.transpose, oracle.parity_halves, oracle.irrep_dimension
    lr, tuples, count = oracle._lr, oracle.parameter_tuples, unipotent.count_unipotent
    gl_complex, diagonal = weylmodules.coh_gl_complex, weylmodules.diagonal_module
    # The cell of the orbit 2,1,1, which no diagonal summand holds.
    cell = unipotent.cell_rep(make_group("su", p=4, q=0), OrbitSpec((2, 1, 1)))
    faults = {
        "transpose-involution": (
            "n=4", "n=3",
            (oracle, "transpose", lambda d: () if d in ((3, 1), (2, 1, 1)) else transpose(d)),
            "2 mismatches; first: 3,1",
        ),
        "split-union-roundtrip": (
            "n=2", "n=3",
            (oracle, "parity_halves", lambda d: (([], []), ([], []), [False, False]) if d == (1, 1) else halves(d)),
            "1 mismatches; first: 1,1",
        ),
        "hook-dimension": (
            "n=4", "n=3",
            (oracle, "irrep_dimension", lambda lam: dim(lam) + (lam in ((3, 1), (2, 1, 1)))),
            "2 mismatches; first: 3,1",
        ),
        "lr-frobenius": (
            "|lam|+|mu|=2", "|lam|+|mu|=1",
            (oracle, "_lr", lambda *t: 0 if t == ((1,), (1,), (2,)) else lr(*t)),
            "1 mismatches; first: (1)*(1)->(2): 1 vs 0",
        ),
        "parameter-enumeration": (
            "n=3", "n=2",
            (oracle, "parameter_tuples",
             lambda prof: tuples(prof)[1:] if prof.lengths == (2, 1) else tuples(prof)),
            "1 mismatches; first: 2,1",
        ),
        "sl-count-formula": (
            "n=4", "n=3",
            (unipotent, "count_unipotent",
             lambda g, o: count(g, o) + (g.kind is sl and o.first == (2, 2))),
            "1 mismatches; first: 2,2",
        ),
        "regular-dimension": (
            "n=3", "n=2",
            (weylmodules, "coh_gl_complex", lambda sig: gl_complex((0, 3) if sig == (1, 2) else sig)),
            "1 mismatches; first: sig=(1, 2)",
        ),
        "counting-equality": (
            "n=3", "n=2",
            (unipotent, "count_unipotent",
             lambda g, o: count(g, o) + (g.kind is su and g.p in (1, 2) and o.first == (2, 1))),
            "2 mismatches; first: (p,q)=(1,2) orbit=2,1",
        ),
        "diagonal-zero": (
            "n=4", "n=3",
            (weylmodules, "diagonal_module",
             lambda r: diagonal(r) + weylmodules.ModuleDecomp((2, 2), {cell: 1}) if r == 2 else diagonal(r)),
            "1 mismatches; first: 2,1,1",
        ),
    }
    params = [pytest.param(check, *fault, id=check) for check, fault in faults.items()]
    # sl-count-formula also certifies the parameter stream: a stream that
    # drops the signed pair at 2,2 shows there.
    stream = unipotent._real_params
    dropped = lambda g, o: (p for p in stream(g, o) if p[1] is None or o.first != (2, 2))
    fault = ("n=4", "n=3", (unipotent, "_real_params", dropped), "1 mismatches; first: 2,2")
    return params + [pytest.param("sl-count-formula", *fault, id="sl-count-formula-stream")]


@pytest.mark.parametrize("check, faulted, neighbour, patch, actual", _sweep_faults())
def test_each_mismatch_sweep_reports_its_count_and_first_mismatch(
    monkeypatch, check, faulted, neighbour, patch, actual
):
    # A fault in the engine function one check reads shows in that check's
    # report at the faulted size, and not at its neighbour.
    monkeypatch.setattr(*patch)
    report = {(e["check"], e["instance"]): e for e in run_checks(4)}
    entry = report[check, faulted]
    assert (entry["expected"], entry["actual"], entry["pass"]) == ("0 mismatches", actual, False)
    assert report[check, neighbour]["actual"] == "0 mismatches"
    assert report[check, neighbour]["pass"]


# SHA-256 of the run_checks(m) reports as JSON, and of the stdout of
# `verify --max-size 8 --format json`. How a sweep shares or orders its work
# must not change a byte of what it reports; bench/golden.json pins only
# sizes 1 to 6.
REPORT_SHA256 = {
    1: "dd98681c80ae837ddc02348900be2c6103114e93ced86bab83f993865a1d4fff",
    8: "4c99c652264a993f432f9a9739b8a0079a2d956518af927e0818ea3f2d241348",
    10: "4c32b67b601d8e2f6645aa9cd6c0c57b8825ccbf2b543b7d44c6f6bdeec89c79",
    # Past every size cap, transpose-involution's 12 included.
    13: "5da2f81f89a96bc0058e3da007da4d474820e45affe56411a72f00b32b0443b7",
}
VERIFY_8_JSON_SHA256 = "96e2aa640c23763ad108179d2efb398ae4dcfb93c7ce3a3806540e3a5250197b"


def test_run_checks_reports_match_their_recorded_digests():
    for max_size, digest in REPORT_SHA256.items():
        report = json.dumps(run_checks(max_size))
        assert sha256(report.encode()).hexdigest() == digest, max_size


def test_verify_json_stdout_matches_its_recorded_digest(cli_runner):
    code, out, err = cli_runner(["verify", "--max-size", "8", "--format", "json"])
    assert (code, err) == (0, "")
    assert sha256(out.encode()).hexdigest() == VERIFY_8_JSON_SHA256


def test_run_checks_reads_no_table_above_its_bound(monkeypatch):
    # verify --cache-dir stores degrees up to TABLE_BOUND, so that must be
    # every table run_checks reads, past every size cap.
    degrees = set()

    def recorded(n):
        degrees.add(n)
        return character_table(n)

    monkeypatch.setattr(oracle, "_table", recorded)
    run_checks(13)
    assert degrees == set(range(oracle.TABLE_BOUND + 1))


def test_run_checks_refuses_a_size_past_the_partition_bound_before_its_first_sweep(monkeypatch):
    # transpose-involution, the first sweep, would check every diagram up to
    # n = 12 before split-union-roundtrip reached n = 51.
    calls = Counter()
    transpose = oracle.transpose

    def counted(d):
        calls[d] += 1
        return transpose(d)

    monkeypatch.setattr(oracle, "transpose", counted)
    with pytest.raises(SizeBoundError, match="partitions of 51"):
        run_checks(51)
    assert not calls


def test_counting_equality_builds_each_su_module_once(monkeypatch):
    # A module depends only on (p, q, coset signature), so run_checks(8)
    # builds 154 SU modules, one per such triple, where building one per
    # (p, q, orbit) would take 482.
    built = Counter()
    coh_su = weylmodules.coh_su

    def counted(p, q, sig):
        built[p, q, sig] += 1
        return coh_su(p, q, sig)

    monkeypatch.setattr(weylmodules, "coh_su", counted)
    monkeypatch.setattr(unipotent, "coh_su", counted)
    run_checks(8)
    expected = {
        (p, n - p, coset_signature(orbit))
        for n in range(1, 9)
        for orbit in all_diagrams(n)
        for p in range(n + 1)
    }
    assert built == Counter(expected)
    assert sum(built.values()) == 154


# Reference: the tableau count of oracle._lr as it was before it returned 0
# for mu not inside nu; it tests only whether lam fits inside nu.
@cache
def unpruned_lr(lam, mu, nu):
    nrows = len(nu)
    if len(lam) > nrows or any(lam[i] > nu[i] for i in range(len(lam))):
        return 0
    inner = tuple(lam[i] if i < len(lam) else 0 for i in range(nrows))
    cells = [(i, j) for i in range(nrows) for j in range(nu[i] - 1, inner[i] - 1, -1)]
    nvals = len(mu)
    counts = [0] * nvals
    filling = {}

    def fill(idx):
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        lo = 1
        if i > 0 and j >= inner[i - 1]:
            lo = filling[i - 1, j] + 1
        hi = filling[i, j + 1] if j + 1 < nu[i] else nvals
        total = 0
        for v in range(lo, hi + 1):
            if counts[v - 1] >= mu[v - 1]:
                continue
            if v > 1 and counts[v - 2] <= counts[v - 1]:
                continue
            counts[v - 1] += 1
            filling[i, j] = v
            total += fill(idx + 1)
            counts[v - 1] -= 1
        return total

    return fill(0)


def lr_triples(max_total):
    for total in range(max_total + 1):
        for a in range(total + 1):
            for lam in all_diagrams(a):
                for mu in all_diagrams(total - a):
                    for nu in all_diagrams(total):
                        yield lam, mu, nu


def lr_mismatches():
    return [t for t in lr_triples(7) if lr_coefficient(*t) != unpruned_lr(*t)]


def test_lr_pruning_changes_no_coefficient():
    assert lr_mismatches() == []
    # The new test has work to do: in 913 of the 2,760 triples lam fits
    # inside nu but mu does not.
    def fits(d, nu):
        return len(d) <= len(nu) and all(x <= y for x, y in zip(d, nu))

    assert sum(fits(lam, nu) and not fits(mu, nu) for lam, mu, nu in lr_triples(7)) == 913


def test_lr_coefficient_is_symmetric_in_lam_and_mu():
    for lam, mu, nu in lr_triples(7):
        assert lr_coefficient(lam, mu, nu) == lr_coefficient(mu, lam, nu)


def test_lr_reference_catches_a_pruning_that_zeroes_too_much(monkeypatch):
    pruned = oracle._lr

    def off_by_one(lam, mu, nu):
        # Also refuses a mu with as many rows as nu, which can fit.
        return 0 if len(mu) >= len(nu) else pruned(lam, mu, nu)

    monkeypatch.setattr(oracle, "_lr", off_by_one)
    assert ((1,), (1,), (2,)) in lr_mismatches()
