import pytest

import sdlab.catalog
import sdlab.reps

from sdlab import (
    CatalogIncomplete,
    IndecCatalog,
    NotIndecomposable,
    QuiverMismatch,
    catalog_for,
    parse_quiver,
    positive_roots,
)
from sdlab import exactmat as xm
from sdlab.quivers import Quiver
from sdlab.reps import (
    Representation,
    ar_translate,
    catalog_reps,
    exists_mono,
    ext1_dim,
    hom_dim,
    hom_space,
    injective_rep,
    projective_rep,
    simple_rep,
)

from exact_tables import exact_hom_ext

A2 = parse_quiver("A2")
A3 = parse_quiver("A3")
D4 = parse_quiver("D4")
K2 = parse_quiver("K2")


def test_projective_injective_dimension_vectors():
    assert projective_rep(A3, 1).dim_vector == (1, 1, 0)
    assert projective_rep(A3, 2).dim_vector == (0, 1, 0)
    assert projective_rep(A3, 3).dim_vector == (0, 1, 1)
    assert injective_rep(A3, 1).dim_vector == (1, 0, 0)
    assert injective_rep(A3, 2).dim_vector == (1, 1, 1)
    assert injective_rep(A3, 3).dim_vector == (0, 0, 1)
    assert projective_rep(K2, 1).dim_vector == (1, 2)
    assert injective_rep(K2, 2).dim_vector == (2, 1)
    assert simple_rep(A2, 2).dim_vector == (0, 1)


def test_hom_dims_on_a2():
    p1 = projective_rep(A2, 1)
    s1 = simple_rep(A2, 1)
    s2 = simple_rep(A2, 2)
    assert hom_dim(p1, p1) == 1
    assert hom_dim(s2, p1) == 1
    assert hom_dim(s1, p1) == 0
    assert hom_dim(p1, s1) == 1
    assert ext1_dim(s1, s2) == 1
    assert ext1_dim(s2, s1) == 0
    assert ext1_dim(p1, s1) == 0


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, b.col(j))) for j in range(b.cols)] for row in a.data]


def test_hom_basis_actually_intertwines():
    m = projective_rep(A3, 1)
    n = injective_rep(A3, 2)
    hs = hom_space(m, n)
    assert hs.dim == 1
    phi = hs.basis[0]
    for idx, (s, t) in enumerate(A3.arrows):
        lhs = _product(n.arrow_maps[idx], phi[s - 1])
        rhs = _product(phi[t - 1], m.arrow_maps[idx])
        assert lhs == rhs


def test_hom_requires_same_quiver():
    with pytest.raises(QuiverMismatch):
        hom_dim(simple_rep(A2, 1), simple_rep(A3, 1))


def test_ar_translate_on_a2():
    i1 = injective_rep(A2, 1)
    t = ar_translate(i1)
    assert t is not None and t.dim_vector == (0, 1)
    assert ar_translate(projective_rep(A2, 1)) is None
    assert ar_translate(i1, direction="inverse") is None
    back = ar_translate(simple_rep(A2, 2), direction="inverse")
    assert back is not None and back.dim_vector == (1, 0)


def test_ar_translate_matches_coxeter_on_a3():
    i2 = injective_rep(A3, 2)
    t = ar_translate(i2)
    assert t is not None and t.dim_vector == (0, 1, 0)


def test_ar_translate_rejects_decomposables():
    two = Representation(A2, (2, 0), (xm.zeros(0, 2),))
    with pytest.raises(NotIndecomposable):
        ar_translate(two)
    with pytest.raises(ValueError):
        ar_translate(simple_rep(A2, 1), direction="sideways")


def test_exists_mono():
    p1 = projective_rep(A2, 1)
    s1 = simple_rep(A2, 1)
    s2 = simple_rep(A2, 2)
    assert exists_mono(s2, p1)
    assert not exists_mono(s1, p1)
    assert not exists_mono(p1, s1)  # dimension gate
    assert exists_mono(projective_rep(A3, 1), injective_rep(A3, 2))
    assert not exists_mono(simple_rep(A3, 3), projective_rep(A3, 3))


def test_catalog_a2_layout():
    cat = catalog_for(A2)
    assert cat.is_complete
    assert cat.size() == 3
    assert cat.entries[0].dim_vector == (1, 1)
    assert cat.entries[0].is_projective and cat.entries[0].is_injective
    assert cat.entries[1].dim_vector == (0, 1)
    assert cat.entries[2].dim_vector == (1, 0)
    assert cat.proj_ids == [0, 1]
    assert cat.inj_ids == [2, 0]
    # Serre steps: S(P_i) = I_i in degree 0, S(I_1) = tau(I_1)[1] = S_2[1]
    assert cat.serre_step(0) == (2, 0)
    assert cat.serre_step(1) == (0, 0)
    assert cat.serre_step(2) == (1, 1)
    assert cat.serre_inv_step(2) == (0, 0)
    assert cat.serre_inv_step(1) == (2, -1)


def test_catalog_sizes_match_root_counts():
    for q, count in ((A2, 3), (A3, 6), (D4, 12), (parse_quiver("E8"), 120)):
        cat = catalog_for(q)
        assert cat.size() == count
        assert set(cat.by_dim) == set(positive_roots(q))


def test_catalog_lookup_formats_no_text(monkeypatch):
    # catalogs are keyed by the quiver value: text() is one-to-one on
    # (n, arrows), so the same quivers share a catalog as before
    monkeypatch.setattr(sdlab.catalog, "_CATALOGS", {})
    q = parse_quiver("vertices:5; arrows:2->1,3->1,4->1,5->1")
    cat = catalog_for(q)

    def no_text(self):
        raise AssertionError("Quiver.text")

    monkeypatch.setattr(Quiver, "text", no_text)
    assert catalog_for(q) is cat
    assert catalog_for(Quiver(q.n, tuple(q.arrows))) is cat
    assert catalog_for(Quiver(q.n, q.arrows[::-1])) is not cat



def test_catalog_for_writes_nothing(tmp_path, monkeypatch):
    # the keywords perfbench's traced replay still passes are ignored
    monkeypatch.setattr(sdlab.catalog, "_CATALOGS", {})
    e8 = parse_quiver("E8")
    cat = catalog_for(e8, cache_dir=str(tmp_path), cache_key="E8")
    assert cat is catalog_for(e8)
    assert cat.size() == 120
    assert list(tmp_path.iterdir()) == []

def _assert_hom_table_matches_exact(q):
    cat = catalog_for(q)
    hom, ext = exact_hom_ext(q)
    for a in range(cat.size()):
        for b in range(cat.size()):
            assert cat.hom_dim(a, b) == hom[a][b]
            assert cat.ext_dim(a, b) == ext[a][b]
        assert cat.hom_dim(a, a) == 1
        assert cat.ext_dim(a, a) == 0


def test_catalog_hom_table_consistency():
    _assert_hom_table_matches_exact(A3)


@pytest.mark.parametrize(
    "text", ["A5", "D6", "E6", "vertices:6; arrows:1->2,2->3,3->4,4->5,6->3", "E7"],
    ids=["A5", "D6", "E6", "E6-nonbipartite", "E7"],
)
def test_catalog_hom_table_consistency_beyond_a3(text):
    _assert_hom_table_matches_exact(parse_quiver(text))


def test_catalog_tables_need_no_exact_solve(monkeypatch):
    def no_solve(m, n):
        raise AssertionError("hom_space called while filling the catalog tables")

    cat = IndecCatalog(parse_quiver("E6"))
    monkeypatch.setattr(sdlab.reps, "hom_space", no_solve)
    for a in range(cat.size()):
        for b in range(cat.size()):
            assert cat.hom_dim(a, b) >= 0
            assert cat.ext_dim(a, b) >= 0
            assert cat.hom_dim(a, b) == 0 or cat.ext_dim(a, b) == 0


def test_kronecker_catalog_is_incomplete():
    # fresh instance: the shared memoized catalog grows virtual entries
    cat = IndecCatalog(K2)
    assert not cat.is_complete
    with pytest.raises(CatalogIncomplete):
        cat.require_complete()
    assert cat.size() == 4
    by_dim = cat.by_dim
    assert by_dim[(1, 2)] == 0 and by_dim[(0, 1)] == 1
    assert (1, 0) in by_dim and (2, 1) in by_dim


def test_kronecker_virtual_serre_orbit():
    cat = IndecCatalog(K2)
    i1 = cat.by_dim[(1, 0)]
    nxt, delta = cat.serre_step(i1)
    assert delta == 1
    assert cat.entries[nxt].dim_vector == (3, 2)
    assert not (cat.entries[nxt].is_projective or cat.entries[nxt].is_injective)
    # hom out of a projective reads the dimension vector, even for virtuals
    assert cat.hom_dim(cat.proj_ids[0], nxt) == 3
    with pytest.raises(CatalogIncomplete):
        cat.hom_dim(i1, nxt)
    p2 = cat.proj_ids[1]
    prev, delta = cat.serre_inv_step(p2)
    assert delta == -1
    assert cat.entries[prev].dim_vector == (2, 3)
