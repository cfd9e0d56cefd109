import pytest

from sdlab import (
    CatalogIncomplete,
    QuiverMismatch,
    catalog_for,
    parse_quiver,
)
from sdlab.derived import (
    DerivedObject,
    hom_poincare,
    serre_apply,
    standard_generator,
)

A2 = parse_quiver("A2")
A3 = parse_quiver("A3")
K2 = parse_quiver("K2")


def test_generator_is_sum_of_projectives():
    g = standard_generator(A2)
    assert g.summands == ((0, 0), (1, 0))
    assert not g.is_zero()
    assert g.total_summands() == 2


def test_serre_sends_projectives_to_injectives():
    g = standard_generator(A2)
    sg = serre_apply(g)
    cat = catalog_for(A2)
    assert sorted(i for i, k in sg.summands) == sorted(cat.inj_ids)
    assert all(k == 0 for _, k in sg.summands)


def test_serre_periodicity_matches_coxeter_number():
    # S^h G = G[h-2] on a Dynkin category with Coxeter number h
    for name, h in (("A2", 3), ("A3", 4), ("D4", 6)):
        q = parse_quiver(name)
        g = standard_generator(q)
        assert serre_apply(g, h) == g.shift(h - 2)


def test_serre_inverse_roundtrip():
    g = standard_generator(A3)
    assert serre_apply(serre_apply(g, 2), -2) == g
    assert serre_apply(g, 0) == g


def test_rank_one_category_is_serre_trivial():
    a1 = parse_quiver("A1")
    g = standard_generator(a1)
    assert serre_apply(g) == g
    assert hom_poincare(g, g) == {0: 1}


def test_poincare_of_serre_orbit_on_a2():
    g = standard_generator(A2)
    assert hom_poincare(g, g) == {0: 3}
    assert hom_poincare(g, serre_apply(g)) == {0: 3}
    assert hom_poincare(g, serre_apply(g, 2)) == {0: 1, -1: 1}
    assert hom_poincare(g, serre_apply(g, 3)) == {-1: 3}


def test_poincare_shift_bookkeeping():
    g = standard_generator(A2)
    y = serre_apply(g, 2)
    base = hom_poincare(g, y)
    shifted = hom_poincare(g, y.shift(5))
    assert shifted == {m - 5: d for m, d in base.items()}
    shifted_src = hom_poincare(g.shift(2), y)
    assert shifted_src == {m + 2: d for m, d in base.items()}


def test_poincare_additivity():
    g = standard_generator(A2)
    x = DerivedObject.create(A2, [(0, 0)])
    y = DerivedObject.create(A2, [(1, 0), (2, 1)])
    both = DerivedObject.create(A2, list(x.summands) + list(y.summands))
    px = hom_poincare(g, x)
    py = hom_poincare(g, y)
    merged = dict(px)
    for m, d in py.items():
        merged[m] = merged.get(m, 0) + d
    assert hom_poincare(g, both) == merged


def test_poincare_serre_duality():
    # dim Hom(X, Y[m]) = dim Hom(Y, (S X)[-m])
    g = standard_generator(A3)
    x = serre_apply(g, 1)
    y = serre_apply(g, 3)
    left = hom_poincare(x, y)
    right = hom_poincare(y, serre_apply(x))
    assert left == {-m: d for m, d in right.items()}


def test_zero_and_mismatch_guards():
    zero = DerivedObject.create(A2, [])
    assert zero.is_zero()
    assert hom_poincare(standard_generator(A2), zero) == {}
    with pytest.raises(QuiverMismatch):
        hom_poincare(standard_generator(A2), standard_generator(A3))


def test_kronecker_generator_orbit_dimensions():
    g = standard_generator(K2)
    totals = []
    x = g
    for _ in range(5):
        totals.append(sum(hom_poincare(g, x).values()))
        x = serre_apply(x)
    assert totals == [4, 4, 12, 20, 28]


def test_kronecker_nonprojective_source_needs_full_catalog():
    cat = catalog_for(K2)
    i1 = cat.by_dim[(1, 0)]
    x = DerivedObject.create(K2, [(i1, 0)])
    virt = serre_apply(x)
    with pytest.raises(CatalogIncomplete):
        hom_poincare(x, virt)
