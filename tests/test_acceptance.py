"""Acceptance suite: one test per criterion, exact equality everywhere.

Each test prints a single pass/fail line (visible under pytest -s); a failed
assertion leaves the FAIL line in place of the PASS line.
"""

import json
import time
from math import factorial, prod

import pytest

from reference import chi, irreducible_character
from unipcount import oracle
from unipcount.diagrams import all_diagrams, coset_signature, row_profile
from unipcount.oracle import (
    decompose,
    induced_character,
    lr_coefficient,
    matchings_character,
    orthogonality_check,
    parameter_tuples,
)
from unipcount.symreps import irrep_dimension
from unipcount.unipotent import (
    GroupKind,
    OrbitSpec,
    cell_rep,
    count_unipotent,
    enumeration_record,
    make_group,
)
from unipcount.weylmodules import (
    coh_gl_complex,
    diagonal_module,
    matchings_module,
)


def _report(name, passed):
    print(f"{'PASS' if passed else 'FAIL'} {name}")
    assert passed, name


def test_criterion_1_counting_equality_sweep():
    start = time.monotonic()
    failures = [bad for n in range(1, 11) for bad in oracle._counting_mismatches(n)]
    elapsed = time.monotonic() - start
    _report(
        f"criterion 1: SU vs double-cover counts agree for all orbits of n <= 10 "
        f"and all (p, q) [{elapsed:.1f}s]",
        not failures and elapsed < 120.0,
    )


def test_criterion_2_complex_kinds_singleton_or_empty():
    failures = []
    for n in range(1, 11):
        ds = all_diagrams(n)
        kinds = ["gl-c"] + (["sl-c"] if n >= 2 else [])
        for kind in kinds:
            group = make_group(kind, n=n)
            for d in ds:
                if count_unipotent(group, OrbitSpec(d, d)) != 1:
                    failures.append((kind, d, d))
            for d in ds:
                for e in ds:
                    if d != e and count_unipotent(group, OrbitSpec(d, e)) != 0:
                        failures.append((kind, d, e))
    _report(
        "criterion 2: complex kinds count 1 on equal pairs and 0 on unequal pairs, "
        "sizes <= 10",
        not failures,
    )


def test_criterion_3_real_kind_counts_match_oracle():
    failures = []
    for n in range(1, 13):
        gl_r = make_group("gl-r", n=n)
        for orbit in all_diagrams(n):
            profile = row_profile(orbit)
            mults = profile.mults
            spec = OrbitSpec(orbit)
            params = enumeration_record(gl_r, spec)["params"]
            if len(params) != prod(m + 1 for m in mults):
                failures.append(("gl-count", orbit))
            if tuple(tuple(row["a"]) for row in params) != parameter_tuples(profile):
                failures.append(("gl-order", orbit))
            if count_unipotent(gl_r, spec) != len(params):
                failures.append(("gl-listing", orbit))
            if n >= 2:
                e = 1 if all(m % 2 == 0 for m in mults) else 0
                expected = (prod(m + 1 for m in mults) + 3 * e) // 2
                sl_r = make_group("sl-r", n=n)
                listed = len(enumeration_record(sl_r, spec)["params"])
                if listed != expected:
                    failures.append(("sl-count", orbit))
                if count_unipotent(sl_r, spec) != listed:
                    failures.append(("sl-listing", orbit))
    _report(
        "criterion 3: gl-r and sl-r parameter counts match the closed formulas, "
        "the brute-force enumeration and the listed parameters, sizes <= 12",
        not failures,
    )


def test_criterion_4_exceptional_isomorphism_pins_normalization():
    values = {}
    for orbit, expected in [((1, 1), 3), ((2,), 1)]:
        sl = count_unipotent(make_group("sl-r", n=2), OrbitSpec(orbit))
        su = count_unipotent(make_group("su", p=1, q=1), OrbitSpec(orbit))
        values[orbit] = (sl, su, expected)
    ok = all(sl == su == expected for sl, su, expected in values.values())
    _report(
        "criterion 4: SL(2,R) enumeration and SU(1,1) multiplicity agree "
        "(3 at [1,1], 1 at [2])",
        ok,
    )


def test_criterion_5_matchings_module_against_oracle():
    ok = True
    for r in range(0, 5):
        closed = {key[0]: m for key, m in matchings_module(r).mults.items()}
        if decompose(matchings_character(r)) != closed:
            ok = False
    for r in range(0, 6):
        expected = factorial(2 * r) // (2**r * factorial(r))
        if matchings_module(r).dimension() != expected:
            ok = False
    _report(
        "criterion 5: matchings module equals the fixed-point oracle for r <= 4 "
        "and has dimension (2r)!/(2^r r!) for r <= 5",
        ok,
    )


def test_criterion_6_character_engine():
    start = time.monotonic()
    ok = all(orthogonality_check(n) for n in range(1, 9))
    for n in range(1, 11):
        identity = (1,) * n
        for lam in all_diagrams(n):
            if chi(lam, identity) != irrep_dimension(lam):
                ok = False
        if sum(irrep_dimension(lam) ** 2 for lam in all_diagrams(n)) != factorial(n):
            ok = False
    elapsed = time.monotonic() - start
    _report(
        f"criterion 6: orthogonality (n <= 8), hook dimensions and dimension "
        f"squares (n <= 10) [{elapsed:.1f}s]",
        ok and elapsed < 30.0,
    )


def test_criterion_7_lr_against_frobenius():
    failures = 0
    for total in range(2, 9):
        for a in range(1, total):
            b = total - a
            for lam in all_diagrams(a):
                for mu in all_diagrams(b):
                    induced = induced_character(
                        (a, b),
                        (irreducible_character(lam), irreducible_character(mu)),
                    )
                    frob = decompose(induced)
                    for nu in all_diagrams(total):
                        if frob.get(nu, 0) != lr_coefficient(lam, mu, nu):
                            failures += 1
    _report(
        "criterion 7: LR coefficients match induced-character inner products for "
        "|lam| + |mu| <= 8",
        failures == 0,
    )


def test_criterion_8_regular_representation_dimension():
    ok = True
    for n in range(0, 9):
        for n_h in range(0, n + 1):
            sig = (n_h, n - n_h)
            if coh_gl_complex(sig).dimension() != factorial(n_h) * factorial(n - n_h):
                ok = False
    _report(
        "criterion 8: complex general linear coherent module has dimension "
        "n_h! * n_0! for n <= 8",
        ok,
    )


def test_criterion_9_structural_zero_in_diagonal_summands():
    ok = True
    checked = 0
    for n in range(1, 11):
        for orbit in all_diagrams(n):
            n_h, n_0 = coset_signature(orbit)
            if n_h != n_0 or n_h == 0:
                continue
            cell = cell_rep(make_group(GroupKind.SU, p=n, q=0), OrbitSpec(orbit))
            if diagonal_module(n_h).multiplicity(cell) != 0:
                ok = False
            checked += 1
    _report(
        f"criterion 9: cell label has multiplicity 0 in every diagonal summand, "
        f"orbits of size <= 10 with both parities ({checked} cases)",
        ok and checked > 0,
    )


BATTERY = [
    ["count", "--group", "su", "--p", "1", "--q", "1", "--orbit", "1,1"],
    ["count", "--group", "su", "--p", "1", "--q", "1", "--orbit", "1,1", "--format", "json"],
    ["count", "--group", "su", "--p", "1", "--q", "1", "--orbit", "2", "--format", "json"],
    ["count", "--group", "u-tilde", "--p", "3", "--q", "1", "--orbit", "2,1,1", "--format", "json"],
    ["count", "--group", "gl-r", "--n", "4", "--orbit", "2,2"],
    ["count", "--group", "sl-r", "--n", "4", "--orbit", "2,2", "--format", "json"],
    ["count", "--group", "gl-c", "--orbit", "2,1", "--format", "json"],
    ["count", "--group", "sl-c", "--orbit", "2,1", "--format", "json"],
    ["count", "--group", "sl-c", "--orbit", "2,1", "--orbit2", "3", "--format", "json"],
    ["enumerate", "--group", "gl-r", "--n", "4", "--orbit", "3,1"],
    ["enumerate", "--group", "sl-r", "--n", "4", "--orbit", "2,2"],
    ["enumerate", "--group", "sl-r", "--n", "4", "--orbit", "2,2", "--format", "json"],
    ["coh", "--group", "su", "--p", "2", "--q", "2", "--orbit", "2,1,1", "--format", "json"],
    ["coh", "--group", "u-tilde", "--p", "1", "--q", "1", "--orbit", "1,1", "--format", "json"],
    ["coh", "--group", "sl-c", "--orbit", "1,1", "--format", "json"],
    ["coh", "--group", "gl-c", "--orbit", "2,1"],
    ["cell", "--group", "su", "--p", "2", "--q", "2", "--orbit", "2,1,1"],
    ["cell", "--group", "sl-c", "--orbit", "2,1", "--format", "json"],
    ["chartable", "--n", "5", "--format", "json"],
    ["verify", "--max-size", "3", "--format", "json"],
]


def test_criterion_10_cli_determinism_and_json_roundtrip(cli_runner):
    assert len(BATTERY) == 20
    ok = True
    for argv in BATTERY:
        code1, out1, err1 = cli_runner(argv)
        code2, out2, err2 = cli_runner(argv)
        if code1 != 0 or (code1, out1, err1) != (code2, out2, err2):
            ok = False
        if "--format" in argv and argv[argv.index("--format") + 1] == "json":
            parsed = json.loads(out1)
            if json.dumps(parsed) + "\n" != out1:
                ok = False
    _report(
        "criterion 10: fixed battery of 20 commands is byte-identical across runs "
        "and JSON output round-trips",
        ok,
    )
