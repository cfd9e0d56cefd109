"""The integer catalog against the exact representation oracle, over random
orientations of Dynkin trees."""

import random

import pytest
from hypothesis import HealthCheck, given, settings

import sdlab.catalog
import sdlab.entropy
from sdlab import (
    CatalogIncomplete,
    IndecCatalog,
    act,
    euler_form,
    gepner_check,
    gepner_construct,
    parse_quiver,
)
from sdlab.prng import SplitMix64, fold_seed
from sdlab.reps import (
    ar_translate,
    catalog_reps,
    ext1_dim,
    injective_rep,
    projective_rep,
)

from orientations import drawn_orientations, every_orientation, oriented

# largest first: the first example hypothesis tries is then E6
SHAPES = ["E6"] + ["D%d" % n for n in range(7, 3, -1)] + ["A%d" % n for n in range(7, 1, -1)]


@settings(derandomize=True, max_examples=10, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn_orientations(SHAPES))
def test_catalog_matches_exact_oracle(q):
    cat = IndecCatalog(q)
    reps = catalog_reps(cat)
    size = cat.size()
    # dims, flags and tau links against reflection functors
    for i in range(1, q.n + 1):
        assert cat.entries[cat.proj_ids[i - 1]].dim_vector == projective_rep(q, i).dim_vector
        assert cat.entries[cat.inj_ids[i - 1]].dim_vector == injective_rep(q, i).dim_vector
    for a in range(size):
        assert reps[a].dim_vector == cat.entries[a].dim_vector
        for direction, step in (("forward", cat.serre_step), ("inverse", cat.serre_inv_step)):
            image = ar_translate(reps[a], direction)
            link, delta = step(a)  # delta is 0 exactly at the tau boundary
            if delta == 0:
                assert image is None
            else:
                assert image.dim_vector == cat.entries[link].dim_vector
    # Euler-form tables on every pair
    for a in range(size):
        for b in range(size):
            ra, rb = reps[a], reps[b]
            # ext1_dim solves for the exact Hom once and subtracts chi
            ext = ext1_dim(ra, rb)
            assert cat.ext_dim(a, b) == ext
            assert cat.hom_dim(a, b) == ext + euler_form(q, ra.dim_vector, rb.dim_vector)


def _assert_round_trip(cat, ident):
    for step, back in ((cat.serre_step, cat.serre_inv_step), (cat.serre_inv_step, cat.serre_step)):
        image, delta = step(ident)
        again, delta_back = back(image)
        assert again == ident and delta + delta_back == 0


@settings(derandomize=True, max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn_orientations(SHAPES))
def test_serre_steps_round_trip_on_dynkin(q):
    cat = IndecCatalog(q)
    for ident in range(cat.size()):
        _assert_round_trip(cat, ident)


@pytest.mark.parametrize(
    "text",
    ["K2", "K3", "K4", "K5", "vertices:3; arrows:1->2,2->3,1->3",
     "vertices:5; arrows:2->1,3->1,4->1,5->1"],
    ids=["K2", "K3", "K4", "K5", "A~2", "D~4"],
)
def test_serre_steps_round_trip_along_orbits(text):
    # S^{+-n} G for n <= 8, on the virtual entries the steps create
    cat = IndecCatalog(parse_quiver(text))
    for step in (cat.serre_step, cat.serre_inv_step):
        ids = list(cat.proj_ids)
        for _ in range(8):
            ids = [step(i)[0] for i in ids]
            for ident in ids:
                _assert_round_trip(cat, ident)


def _knitted_quivers():
    """Every orientation of A2-A7, D4-D6 and E6, then 8 seeded ones each of
    E7 and E8."""
    shapes = ("A2", "A3", "A4", "A5", "A6", "A7", "D4", "D5", "D6", "E6")
    quivers = [q for name in shapes for q in every_orientation(name)]
    rng = random.Random(2032)
    for name in ("E7", "E8"):
        edges = len(parse_quiver(name).undirected_edges())
        quivers += [oriented(name, [rng.randrange(2) for _ in range(edges)]) for _ in range(8)]
    return quivers


def test_the_knitting_records_every_serre_step_as_step_computes_it():
    for q in _knitted_quivers():
        cat = IndecCatalog(q)
        knitted = dict(cat._steps)
        assert set(knitted) == {(ident, 1) for ident in range(cat.size())}
        for (ident, sign), step in knitted.items():
            assert cat._step(ident, sign) == step


def test_dynkin_orbit_walks_make_no_matrix_step(monkeypatch):
    # the knitting recorded S on every entry, so the orbits that the
    # series levels, the Serre action and the Gepner check read compute none
    def no_step(*args):
        raise AssertionError("int_mat_vec on a Dynkin orbit walk")

    monkeypatch.setattr(sdlab.catalog, "_CATALOGS", {})
    sdlab.entropy._dynkin_levels.cache_clear()
    for name in ("A4", "D5", "E8"):
        q = parse_quiver(name)
        sigma = gepner_construct(q)
        h = sdlab.catalog.catalog_for(q).dynkin.coxeter_number
        with monkeypatch.context() as m:
            m.setattr(sdlab.catalog, "int_mat_vec", no_step)
            cat = sdlab.catalog.catalog_for(q)
            cat.serre_power(range(cat.size()), 7)
            assert len(sdlab.entropy._dynkin_levels(q)[0]) == h
            act(sigma, "serre")
            assert gepner_check(sigma, (h - 2) / h).verdict


def _table_quivers():
    """The presets, every orientation of A4 and D5, and 5 seeded ones of E6."""
    presets = ["A%d" % n for n in range(1, 9)] + ["D%d" % n for n in range(4, 9)]
    quivers = [parse_quiver(text) for text in presets + ["E6", "E7", "E8"]]
    quivers += every_orientation("A4") + every_orientation("D5")
    gen = SplitMix64(fold_seed("chi-table", "E6"))
    quivers += [oriented("E6", [gen.next_int(0, 1) for _ in range(5)]) for _ in range(5)]
    return quivers


def test_chi_table_equals_euler_form_on_every_pair():
    for q in _table_quivers():
        cat = IndecCatalog(q)
        dims = [e.dim_vector for e in cat.entries]
        assert cat.chi_rows() == [tuple(euler_form(q, d, e) for e in dims) for d in dims]
        assert cat.chi(cat.size() - 1, 0) == euler_form(q, dims[-1], dims[0])


@pytest.mark.parametrize("text", ["K2", "K3", "vertices:5; arrows:2->1,3->1,4->1,5->1"],
                         ids=["K2", "K3", "D~4"])
def test_chi_gate_on_incomplete_catalogs(text):
    q = parse_quiver(text)
    cat = IndecCatalog(q)
    virtual = [cat.serre_inv_step(i)[0] for i in cat.proj_ids]  # tau^-1 P_i, off the table
    virtual += [cat.serre_step(i)[0] for i in cat.inj_ids]  # tau I_i
    assert not any(cat.entries[v].is_projective or cat.entries[v].is_injective for v in virtual)
    for i, p in enumerate(cat.proj_ids):
        for v in virtual:
            assert cat.chi(p, v) == cat.entries[v].dim_vector[i]
            with pytest.raises(CatalogIncomplete):
                cat.chi(v, p)
        for j in cat.inj_ids:
            dj, dp = cat.entries[j].dim_vector, cat.entries[p].dim_vector
            assert cat.chi(j, p) == euler_form(q, dj, dp)
    with pytest.raises(CatalogIncomplete):
        cat.chi_rows()
