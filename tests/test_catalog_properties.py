"""The integer catalog against the exact representation oracle, over random
orientations of Dynkin trees."""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sdlab import CatalogIncomplete, IndecCatalog, euler_form, parse_quiver
from sdlab.prng import SplitMix64, fold_seed
from sdlab.quivers import Quiver
from sdlab.reps import (
    ar_translate,
    catalog_reps,
    ext1_dim,
    injective_rep,
    projective_rep,
)

# largest first: the first example hypothesis tries is then E6
SHAPES = ["E6"] + ["D%d" % n for n in range(7, 3, -1)] + ["A%d" % n for n in range(7, 1, -1)]


@st.composite
def orientations(draw):
    """A Dynkin tree from SHAPES with shuffled labels and random arrows."""
    edges = parse_quiver(draw(st.sampled_from(SHAPES))).undirected_edges()
    n = len(edges) + 1
    label = draw(st.permutations(range(1, n + 1)))
    flips = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    arrows = tuple(
        (label[v - 1], label[u - 1]) if flip else (label[u - 1], label[v - 1])
        for (u, v), flip in zip(edges, flips)
    )
    return Quiver(n, arrows)


@settings(derandomize=True, max_examples=10, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(orientations())
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
@given(orientations())
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


def _oriented(text, flips):
    edges = parse_quiver(text).undirected_edges()
    return Quiver(len(edges) + 1, tuple((v, u) if f else (u, v) for (u, v), f in zip(edges, flips)))


def _table_quivers():
    """The presets, every orientation of A4 and D5, and 5 seeded ones of E6."""
    presets = ["A%d" % n for n in range(1, 9)] + ["D%d" % n for n in range(4, 9)]
    quivers = [parse_quiver(text) for text in presets + ["E6", "E7", "E8"]]
    for text, edges in (("A4", 3), ("D5", 4)):
        quivers += [_oriented(text, flips) for flips in itertools.product((0, 1), repeat=edges)]
    gen = SplitMix64(fold_seed("chi-table", "E6"))
    quivers += [_oriented("E6", [gen.next_int(0, 1) for _ in range(5)]) for _ in range(5)]
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
