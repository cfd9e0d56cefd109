import cmath
import math

import pytest

import sdlab.reps
from sdlab import (
    CatalogIncomplete,
    ConfigError,
    GldimTooLarge,
    HeartMismatch,
    NotAllSemistable,
    NotAStabilityFunction,
    NotConnectedSubset,
    NotDynkin,
    QuiverMismatch,
    act,
    extract_exceptional_collection,
    gepner_check,
    gepner_construct,
    gldim,
    make_stability,
    mass,
    mass_growth,
    parse_quiver,
    restrict_to_subquiver,
    sample_stability,
    sigma_from_json,
)
from sdlab.catalog import catalog_for
from sdlab.derived import standard_generator
from sdlab.quivers import classify_dynkin
from sdlab.reps import catalog_reps, exists_mono
from sdlab.stability import PHASE_TOL

A2 = parse_quiver("A2")
A3 = parse_quiver("A3")
D4 = parse_quiver("D4")


def test_make_stability_input_guards():
    with pytest.raises(NotAStabilityFunction):
        make_stability(A2, (1j,))
    with pytest.raises(NotAStabilityFunction):
        make_stability(A2, (1j, 1.0 + 0j))  # positive real axis
    with pytest.raises(NotAStabilityFunction):
        make_stability(A2, (1j, -1j))
    with pytest.raises(NotAStabilityFunction):
        make_stability(A2, (0j, 1j))
    with pytest.raises(CatalogIncomplete):
        make_stability(parse_quiver("K2"), (1j, 1j))
    for bad in (complex(float("nan"), 1.0), complex(1.0, float("inf")), complex(float("-inf"), 0.0)):
        with pytest.raises(NotAStabilityFunction):
            make_stability(A2, (bad, 1j))
    # finite charges on the simples whose sum leaves the float range
    for z in ((1e308j, 1e308j), (-1e308 + 0j, -1e308 + 0j)):
        with pytest.raises(NotAStabilityFunction, match=r"\(1, 1\)"):
            make_stability(A2, z)


def test_gepner_point_on_a2():
    sigma = gepner_construct(A2)
    assert [r.ident for r in sigma.records] == [1, 0, 2]
    assert all(r.shift == 0 for r in sigma.records)
    phases = [r.phase for r in sigma.records]
    for got, want in zip(phases, (1.0 / 3.0, 2.0 / 3.0, 1.0)):
        assert abs(got - want) < 1e-9
    assert abs(gldim(sigma) - 1.0 / 3.0) < 1e-9
    assert abs(sigma.z_simples[0] - (-1.0)) < 1e-9
    assert abs(abs(sigma.z_simples[1]) - 1.0) < 1e-9


def test_gepner_constructions_across_families():
    cases = (("A1", 2), ("A2", 3), ("A3", 4), ("A4", 5), ("A5", 6),
             ("D4", 6), ("D5", 8), ("E6", 12))
    for name, h in cases:
        q = parse_quiver(name)
        sigma = gepner_construct(q)
        mu = (h - 2.0) / h
        assert abs(gldim(sigma) - mu) < 1e-9
        report = gepner_check(sigma, mu)
        assert report.charge_match and report.slicing_match and report.verdict


@pytest.mark.parametrize("name", ["A5", "A8", "D6", "D8", "E6", "E7", "E8"])
def test_gepner_points_need_no_monomorphism_search(monkeypatch, name):
    # no semistability decision reaches the oracle, at a Gepner point or at
    # a sampled charge vector
    def no_search(n, m):
        raise AssertionError("exists_mono called by a semistability decision")

    monkeypatch.setattr(sdlab.reps, "exists_mono", no_search)
    q = parse_quiver(name)
    h = classify_dynkin(q).coxeter_number
    mu = (h - 2.0) / h
    sigma = gepner_construct(q)
    assert abs(gldim(sigma) - mu) < 1e-9
    assert gepner_check(sigma, mu).verdict
    for seed in range(20):
        assert gldim(sample_stability(q, seed)) >= mu - 1e-9


def _phases(q, z_simples):
    cat = catalog_for(q)
    out = {}
    for e in cat.entries:
        z = sum(c * d for c, d in zip(z_simples, e.dim_vector))
        out[e.ident] = math.atan2(z.imag, z.real) / math.pi
    return out


def _semistable_by_subobjects(q, z_simples, mono):
    """No indecomposable submodule of strictly larger phase (exact search)."""
    cat = catalog_for(q)
    ph = _phases(q, z_simples)
    keep = set()
    for e in cat.entries:
        if not any(
            f.ident != e.ident
            and ph[f.ident] > ph[e.ident] + PHASE_TOL
            and all(a <= b for a, b in zip(f.dim_vector, e.dim_vector))
            and mono(f.ident, e.ident)
            for f in cat.entries
        ):
            keep.add(e.ident)
    return keep


def _semistable_by_hom_criterion(q, z_simples, hom):
    """Scan by decreasing phase: M is semistable iff no semistable N of
    strictly larger phase has Hom(N, M) != 0."""
    ph = _phases(q, z_simples)
    keep = set()
    for m in sorted(ph, key=lambda i: -ph[i]):
        if not any(ph[n] > ph[m] + PHASE_TOL and hom(n, m) > 0 for n in keep):
            keep.add(m)
    return keep


@pytest.mark.parametrize(
    "text", ["A4", "D5", "E6", "D8", "E7", "vertices:6; arrows:1->2,2->3,3->4,4->5,6->3"],
    ids=["A4", "D5", "E6", "D8", "E7", "E6-nonbipartite"],
)
def test_semistable_sets_match_oracles(text):
    q = parse_quiver(text)
    cat = catalog_for(q)
    reps = catalog_reps(cat)
    memo = {}

    def mono(a, b):
        # a monomorphism is a nonzero map, so the exact search runs only
        # where the Euler-form table (checked against `reps` elsewhere) has Hom
        if (a, b) not in memo:
            memo[a, b] = cat.hom_dim(a, b) > 0 and exists_mono(reps[a], reps[b])
        return memo[a, b]

    sigmas = [sample_stability(q, seed) for seed in range(20)]
    sigmas.append(make_stability(q, (1j,) * q.n))
    try:
        sigmas.append(gepner_construct(q))
    except HeartMismatch:
        pass
    for sigma in sigmas:
        got = {r.ident for r in sigma.records}
        assert got == _semistable_by_subobjects(q, sigma.z_simples, mono)
        assert got == _semistable_by_hom_criterion(q, sigma.z_simples, cat.hom_dim)


def test_gepner_check_rejects_wrong_rotation():
    sigma = gepner_construct(A2)
    assert not gepner_check(sigma, 0.5).verdict
    assert not gepner_check(sigma, 1.0 / 3.0 + 1e-3).verdict


def test_gepner_needs_compatible_heart():
    linear_a3 = parse_quiver("vertices:3; arrows:1->2,2->3")
    with pytest.raises(HeartMismatch):
        gepner_construct(linear_a3)
    with pytest.raises(NotDynkin):
        gepner_construct(parse_quiver("K2"))


def test_all_simples_aligned_keeps_everything_semistable():
    sigma = make_stability(A2, (1j, 1j))
    assert len(sigma.records) == 3
    assert abs(gldim(sigma) - 1.0) < 1e-12
    with pytest.raises(GldimTooLarge):
        extract_exceptional_collection(sigma)


def test_destabilized_projective():
    sigma = make_stability(A2, (1.0 + 1j, -1.0 + 1j))
    idents = sorted(r.ident for r in sigma.records)
    assert idents == [1, 2]  # both simples survive, the projective P_1 does not
    assert abs(gldim(sigma) - 1.5) < 1e-12
    with pytest.raises(NotAllSemistable):
        mass(sigma, 0.0, standard_generator(A2))
    with pytest.raises(GldimTooLarge):
        extract_exceptional_collection(sigma)
    with pytest.raises(GldimTooLarge):
        restrict_to_subquiver(sigma, (1, 2))


def test_mass_of_generator():
    sigma = gepner_construct(A2)
    g = standard_generator(A2)
    assert abs(mass(sigma, 0.0, g) - 2.0) < 1e-12
    want = math.exp(2.0 / 3.0) + math.exp(1.0 / 3.0)
    assert abs(mass(sigma, 1.0, g) - want) < 1e-9
    with pytest.raises(QuiverMismatch):
        mass(sigma, 0.0, standard_generator(A3))


def test_records_sorted_and_lookup():
    sigma = gepner_construct(A3)
    phases = [r.phase for r in sigma.records]
    assert phases == sorted(phases)


def test_act_rotation_and_inverse():
    sigma = gepner_construct(A2)
    rotated = act(sigma, 0.25)
    assert all(
        abs((r1.phase - 0.25) - r2.phase) < 1e-12
        for r1, r2 in zip(sigma.records, rotated.records)
    )
    back = act(rotated, -0.25)
    assert all(
        r1.ident == r2.ident and r1.shift == r2.shift and abs(r1.phase - r2.phase) < 1e-12
        for r1, r2 in zip(sigma.records, back.records)
    )
    assert all(abs(a - b) < 1e-12 for a, b in zip(sigma.z_simples, back.z_simples))


def test_act_unit_rotation_is_shift():
    sigma = gepner_construct(A2)
    shifted = act(sigma, 1.0)
    for r1, r2 in zip(sigma.records, shifted.records):
        assert r2.ident == r1.ident
        assert r2.shift == r1.shift + 1
        assert abs(r2.phase - r1.phase) < 1e-12
    assert all(
        abs(a + b) < 1e-12 for a, b in zip(sigma.z_simples, shifted.z_simples)
    )


def test_act_composition():
    sigma = gepner_construct(A3)
    two_step = act(act(sigma, 0.2), 0.3)
    one_step = act(sigma, 0.5)
    assert all(abs(a - b) < 1e-12 for a, b in zip(two_step.z_simples, one_step.z_simples))
    lmap = {(r.ident, r.shift): r.phase for r in two_step.records}
    rmap = {(r.ident, r.shift): r.phase for r in one_step.records}
    assert set(lmap) == set(rmap)
    assert all(abs(lmap[k] - rmap[k]) < 1e-12 for k in lmap)


def test_act_complex_parameter_scales_moduli():
    sigma = gepner_construct(A2)
    mu = 0.1 + 0.05j
    moved = act(sigma, mu)
    w = cmath.exp(-1j * math.pi * mu)
    assert all(
        abs(a * w - b) < 1e-12 for a, b in zip(sigma.z_simples, moved.z_simples)
    )


def test_act_serre_structure_on_a2():
    sigma = gepner_construct(A2)
    image = act(sigma, "serre")
    got = [(r.ident, r.shift, round(r.phase, 9)) for r in image.records]
    assert got == [(0, 0, round(1.0 / 3.0, 9)), (2, 0, round(2.0 / 3.0, 9)), (1, 1, 1.0)]
    with pytest.raises(ConfigError):
        act(sigma, "spin")


def test_gldim_invariant_under_rotation():
    sigma = gepner_construct(A3)
    assert abs(gldim(act(sigma, 0.37)) - 0.5) < 1e-9


def test_sample_determinism_and_validity():
    s1 = sample_stability(A3, 7)
    s2 = sample_stability(A3, 7)
    assert s1.z_simples == s2.z_simples
    assert s1.records == s2.records
    assert sample_stability(A3, 8).z_simples != s1.z_simples
    for z in s1.z_simples:
        assert z.imag > 0 or (z.imag == 0 and z.real < 0)
        assert 0.1 <= abs(z) <= 10.0


def test_sigma_json_roundtrip():
    sigma = gepner_construct(A3)
    again = sigma_from_json(sigma.to_json())
    assert again.quiver == sigma.quiver
    assert all(abs(a - b) < 1e-15 for a, b in zip(again.z_simples, sigma.z_simples))
    assert [(r.ident, r.shift) for r in again.records] == [
        (r.ident, r.shift) for r in sigma.records
    ]


def test_exceptional_collection_traces():
    expected = {
        "A2": [(1, 0), (0, 0)],
        "A3": [(1, 0), (0, 0), (2, 0)],
        "A4": [(1, 0), (0, 0), (2, 0), (8, 0)],
        "A5": [(3, 0), (4, 0), (2, 0), (7, 0), (5, 0)],
        "D4": [(1, 0), (2, 0), (3, 0), (0, 0)],
    }
    for name, want in expected.items():
        sigma = gepner_construct(parse_quiver(name))
        assert extract_exceptional_collection(sigma) == want


def test_exceptional_collection_has_no_backward_maps():
    from sdlab import catalog_for

    q = A3
    cat = catalog_for(q)
    coll = extract_exceptional_collection(gepner_construct(q))
    for i in range(len(coll)):
        for j in range(i):
            assert cat.hom_dim(coll[i][0], coll[j][0]) == 0
            assert cat.ext_dim(coll[i][0], coll[j][0]) == 0


def _gldim_from_tables(sigma, hom, ext):
    # the definition, with Hom and Ext^1 read separately
    best = 0.0
    for r1 in sigma.records:
        rho1 = r1.phase - r1.shift
        for r2 in sigma.records:
            rho2 = r2.phase - r2.shift
            if hom[r1.ident][r2.ident] > 0:
                best = max(best, rho2 - rho1)
            if ext[r1.ident][r2.ident] > 0:
                best = max(best, rho2 - rho1 + 1.0)
    return best


@pytest.mark.parametrize("text", ["A4", "D5", "E6"])
def test_gldim_and_exceptional_collections_match_exact_hom_ext(text):
    q = parse_quiver(text)
    reps = catalog_reps(catalog_for(q))
    hom = [[sdlab.reps.hom_dim(a, b) for b in reps] for a in reps]
    ext = [[sdlab.reps.ext1_dim(a, b) for b in reps] for a in reps]
    gepner = gepner_construct(q)
    # samples rarely reach gldim < 1; rotations of the Gepner point keep it
    # there and give collections with shifted members and Ext^1 between them
    rotations = [act(gepner, mu / 10) for mu in range(-9, 10, 2)]
    collections = 0
    for sigma in [sample_stability(q, seed) for seed in range(10)] + [gepner] + rotations:
        g = gldim(sigma)
        assert g == _gldim_from_tables(sigma, hom, ext)
        if g >= 1.0 - PHASE_TOL:
            with pytest.raises(GldimTooLarge):
                extract_exceptional_collection(sigma)
            continue
        coll = extract_exceptional_collection(sigma)
        collections += 1
        assert len(coll) == q.n
        for i, (a, ka) in enumerate(coll):
            for b, _ in coll[:i]:
                assert hom[a][b] == 0 and ext[a][b] == 0
            for b, kb in coll[i + 1:]:
                assert not hom[a][b] or kb == ka
                assert not ext[a][b] or kb == ka + 1
    assert collections == 11


def test_restriction_of_gepner_point():
    sigma = gepner_construct(A3)
    sub = restrict_to_subquiver(sigma, (1, 2))
    assert sub.quiver.text() == "vertices:2; arrows:1->2"
    assert len(sub.records) == 3
    assert gldim(sub) <= gldim(sigma) + 1e-12
    flipped = restrict_to_subquiver(sigma, (2, 3))
    assert flipped.quiver.text() == "vertices:2; arrows:2->1"
    assert gldim(flipped) <= gldim(sigma) + 1e-12
    full = restrict_to_subquiver(sigma, (1, 2, 3))
    assert full.z_simples == sigma.z_simples


@pytest.mark.parametrize("text", ["A5", "D5", "D6", "E6"])
def test_restriction_of_rotated_gepner_points(text):
    # a rotation by 0 < mu < the least simple phase keeps every simple
    # charge in the heart window, so each restriction is defined
    q = parse_quiver(text)
    gepner = gepner_construct(q)
    least = min(cmath.phase(z) for z in gepner.z_simples) / math.pi
    degree = [0] * (q.n + 1)
    for u, v in q.undirected_edges():
        degree[u] += 1
        degree[v] += 1
    # dropping a leaf of the tree leaves a connected subquiver
    subsets = [[v for v in range(1, q.n + 1) if v != leaf]
               for leaf in range(1, q.n + 1) if degree[leaf] == 1]
    hom = {}
    for mu in (least / 4, least / 2, 3 * least / 4):
        sigma = act(gepner, mu)
        g = gldim(sigma)
        assert g < 1.0
        for subset in subsets:
            sub = restrict_to_subquiver(sigma, subset)
            key = sub.quiver.text()
            if key not in hom:
                reps = catalog_reps(catalog_for(sub.quiver))
                hom[key] = [[sdlab.reps.hom_dim(a, b) for b in reps] for a in reps]
            oracle = _semistable_by_hom_criterion(sub.quiver, sub.z_simples,
                                                  lambda a, b: hom[key][a][b])
            assert {r.ident for r in sub.records} == oracle
            assert gldim(sub) <= g + 1e-12


def test_gepner_point_of_d20():
    q = parse_quiver("D20")
    sigma = gepner_construct(q)
    assert abs(gldim(sigma) - 36 / 38) < 1e-9
    assert gepner_check(sigma, 36 / 38).verdict


def test_restriction_guards():
    sigma = gepner_construct(A3)
    with pytest.raises(NotConnectedSubset):
        restrict_to_subquiver(sigma, (1, 3))
    with pytest.raises(ConfigError):
        restrict_to_subquiver(sigma, ())
    with pytest.raises(ConfigError):
        restrict_to_subquiver(sigma, (0, 1))
    with pytest.raises(ConfigError):
        restrict_to_subquiver(sigma, (1, 4))


def test_mass_growth_at_gepner_point():
    sigma = gepner_construct(A2)
    mg = mass_growth(sigma, (0.0, 1.0, 3.0), 30)
    for rate, want in zip(mg.rates, (0.0, 1.0 / 3.0, 1.0)):
        assert abs(rate - want) < 1e-9
    assert abs(mg.phase_upper - 0.3777777777777778) < 1e-12
    assert abs(mg.phase_lower - 0.3555555555555555) < 1e-12
    with pytest.raises(ConfigError):
        mass_growth(sigma, ())


def test_mass_growth_needs_semistable_orbit():
    sigma = make_stability(A2, (1.0 + 1j, -1.0 + 1j))
    with pytest.raises(NotAllSemistable):
        mass_growth(sigma, (0.0,), 10)
