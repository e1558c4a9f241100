"""The direct counts of count_unipotent against the built modules: the Pieri
multiplicity for su and u-tilde, and the closed form for gl-c and sl-c."""

from hypothesis import given, settings
from hypothesis import strategies as st

from unipcount import weylmodules
from unipcount.diagrams import all_diagrams, coset_signature, even_odd_split, transpose
from unipcount.symreps import lr_coefficient
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
        raise AssertionError("count_unipotent built a module")

    block_multiplicity.cache_clear()
    sign_induction_multiplicity.cache_clear()
    weylmodules._remove_vertical_strips.cache_clear()
    monkeypatch.setattr(weylmodules.ModuleDecomp, "__init__", refuse)
    monkeypatch.setattr(weylmodules, "_built", refuse)
    for orbit in all_diagrams(13):
        for p in (0, 6, 13):
            _direct_counts(p, 13 - p, orbit)
        for kind in ("gl-c", "sl-c"):
            count_unipotent(make_group(kind, n=13), OrbitSpec(orbit, orbit))


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
