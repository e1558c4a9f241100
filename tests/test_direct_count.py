"""The direct counts of count_unipotent against the built modules: the Pieri
multiplicity for su and u-tilde, and the closed form for gl-c and sl-c."""

from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from unipcount import unipotent, weylmodules
from unipcount.diagrams import all_diagrams, coset_signature, even_odd_split, transpose
from unipcount.oracle import lr_coefficient
from unipcount.unipotent import OrbitSpec, cell_rep, count_unipotent, make_group
from unipcount.weylmodules import (
    block_multiplicity,
    coh_gl_complex,
    coh_sl_complex,
    coh_su,
    coh_u_cover,
    sign_induction_module,
    sign_induction_multiplicity,
)


def _module_counts(p, q, orbit):
    spec = OrbitSpec(orbit)
    sig = coset_signature(orbit)
    cell = cell_rep(make_group("su", p=p, q=q), spec)
    return coh_su(p, q, sig).multiplicity(cell), coh_u_cover(p, q, sig).multiplicity(cell)


def _direct_counts(p, q, orbit):
    spec = OrbitSpec(orbit)
    return (
        count_unipotent(make_group("su", p=p, q=q), spec),
        count_unipotent(make_group("u-tilde", p=p, q=q), spec),
    )


def _lr_sign_induction(p, q):
    """sign_induction_module(p, q) by the Littlewood-Richardson rule: the sum
    over k, over all-even tau of size 2k and over mu of
    c^mu_{tau, 1^(p-k)} c^nu_{mu, 1^(q-k)}."""
    out = {}
    for k in range(min(p, q) + 1):
        for tau in all_diagrams(2 * k):
            if any(row % 2 for row in tau):
                continue
            for mu in all_diagrams(p + k):
                c = lr_coefficient(tau, (1,) * (p - k), mu)
                if not c:
                    continue
                for nu in all_diagrams(p + q):
                    d = lr_coefficient(mu, (1,) * (q - k), nu)
                    if d:
                        out[(nu,)] = out.get((nu,), 0) + c * d
    return out


def test_sign_induction_multiplicity_matches_module_entries():
    for total in range(0, 11):
        for p in range(total + 1):
            q = total - p
            expected = _lr_sign_induction(p, q)
            assert sign_induction_module(p, q).mults == expected
            for nu in all_diagrams(total):
                assert sign_induction_multiplicity(nu, p, q) == expected.get((nu,), 0)


@cache
def _remove_vertical_strips(nu, size):
    """Every diagram left by removing a vertical strip of the given size
    from nu. A vertical strip takes at most one box per row, so within each
    block of equal rows only the bottom j rows can lose their last box; the
    recursion cuts j boxes from the top block and the rest from the blocks
    below it."""
    if size > len(nu):
        return ()
    if not nu:
        return ((),)
    m = nu.count(nu[0])
    length, rest = nu[0], nu[m:]
    out = []
    for j in range(min(m, size) + 1):
        head = (length,) * (m - j)
        if length > 1:
            head += (length - 1,) * j
        out.extend(head + tail for tail in _remove_vertical_strips(rest, size - j))
    return tuple(out)


def _strip_chains(nu, p, q):
    """The Pieri count that sign_induction_multiplicity puts in closed form:
    chains that remove a vertical strip of size q-k, then one of size p-k,
    and end on a diagram with all rows even, over 0 <= k <= min(p, q)."""
    return sum(
        all(row % 2 == 0 for row in tau)
        for k in range(min(p, q) + 1)
        for mu in _remove_vertical_strips(nu, q - k)
        for tau in _remove_vertical_strips(mu, p - k)
    )


def test_sign_induction_multiplicity_matches_strip_chains():
    triples = 0
    for total in range(15):
        for nu in all_diagrams(total):
            for p in range(total + 1):
                assert sign_induction_multiplicity(nu, p, total - p) == _strip_chains(
                    nu, p, total - p
                ), (nu, p)
                triples += 1
    assert triples == 6357
    # sign_induction_module(p, q) holds only diagrams of size p + q; the
    # chains above would count (2,) once for p = q = 0.
    assert sign_induction_multiplicity((2,), 0, 0) == 0
    assert sign_induction_multiplicity((3, 1), 1, 1) == 0


def test_hermitian_direct_count_matches_module_multiplicity():
    for n in range(1, 11):
        for orbit in all_diagrams(n):
            for p in range(n + 1):
                assert _direct_counts(p, n - p, orbit) == _module_counts(p, n - p, orbit)


def test_complex_closed_form_matches_module_multiplicity():
    for n in range(1, 11):
        orbits = all_diagrams(n)
        for kind, build in (("gl-c", coh_gl_complex), ("sl-c", coh_sl_complex)):
            if kind == "sl-c" and n < 2:
                continue
            group = make_group(kind, n=n)
            modules = {}
            for first in orbits:
                sig = coset_signature(first)
                if sig not in modules:
                    modules[sig] = build(sig)
                in_module = modules[sig].multiplicity(cell_rep(group, OrbitSpec(first, first)))
                for second in orbits:
                    expected = in_module if first == second else 0
                    assert count_unipotent(group, OrbitSpec(first, second)) == expected


def test_cell_components_differ():
    # The lemma behind both closed forms: transpose(even rows) and
    # transpose(odd rows) differ in the parity of the multiplicity of their
    # largest part, so they are never equal for a nonempty orbit.
    for n in range(1, 13):
        for orbit in all_diagrams(n):
            even, odd = map(transpose, even_odd_split(orbit))
            if even:
                assert even.count(even[0]) % 2 == 0
            if odd:
                assert odd.count(odd[0]) % 2 == 1
            assert even != odd


def test_count_builds_no_module(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("count_unipotent built a module or enumerated")

    block_multiplicity.cache_clear()
    sign_induction_multiplicity.cache_clear()
    monkeypatch.setattr(weylmodules.ModuleDecomp, "__init__", refuse)
    monkeypatch.setattr(weylmodules, "_built", refuse)
    monkeypatch.setattr(unipotent, "_real_params", refuse)
    for orbit in all_diagrams(13):
        for p in (0, 6, 13):
            _direct_counts(p, 13 - p, orbit)
        for kind in ("gl-c", "sl-c"):
            count_unipotent(make_group(kind, n=13), OrbitSpec(orbit, orbit))
        for kind in ("gl-r", "sl-r"):
            count_unipotent(make_group(kind, n=13), OrbitSpec(orbit))


hermitian_queries = st.integers(1, 14).flatmap(
    lambda n: st.tuples(st.sampled_from(all_diagrams(n)), st.integers(0, n))
)


@settings(deadline=None)
@given(hermitian_queries)
def test_direct_count_property(query):
    orbit, p = query
    q = sum(orbit) - p
    su, cover = _direct_counts(p, q, orbit)
    assert su == cover
    assert (su, cover) == _module_counts(p, q, orbit)
