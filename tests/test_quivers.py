from fractions import Fraction

import numpy as np
import pytest

from sdlab import (
    CurveStability,
    CyclicQuiver,
    DerivedObject,
    DimensionMismatch,
    DisconnectedQuiver,
    NotDynkin,
    ParseError,
    Quiver,
    Record,
    SerreDims,
    catalog_for,
    classify_dynkin,
    coxeter_matrix,
    coxeter_order,
    euler_form,
    euler_matrix,
    parse_quiver,
    positive_roots,
    tits_form,
)
from sdlab.prng import SplitMix64
from sdlab.quivers import int_mat_mul


def test_preset_shapes():
    assert parse_quiver("A2").text() == "vertices:2; arrows:1->2"
    assert parse_quiver("A3").text() == "vertices:3; arrows:1->2,3->2"
    assert parse_quiver("D4").text() == "vertices:4; arrows:1->2,3->2,4->2"
    assert parse_quiver("K2").text() == "vertices:2; arrows:1->2,1->2"
    assert parse_quiver("K3").arrows == ((1, 2), (1, 2), (1, 2))
    assert parse_quiver("E6").n == 6


def test_presets_are_bipartite():
    # every vertex of a preset tree quiver is a pure source or pure sink
    for name in ("A5", "D5", "E7"):
        q = parse_quiver(name)
        sources = {s for s, _ in q.arrows}
        sinks = {t for _, t in q.arrows}
        assert not (sources & sinks)


def test_grammar_roundtrip_and_whitespace():
    q = parse_quiver(" vertices: 3 ; arrows: 1->3, 2->3 ")
    assert q.n == 3 and q.arrows == ((1, 3), (2, 3))
    assert parse_quiver(q.text()) == q
    lone = parse_quiver("vertices:1; arrows:")
    assert lone.n == 1 and lone.arrows == ()


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_quiver("")
    with pytest.raises(ParseError):
        parse_quiver("vertices:two; arrows:1->2")
    with pytest.raises(ParseError):
        parse_quiver("vertices:2; arrows:1->5")
    with pytest.raises(ParseError):
        parse_quiver("vertices:0; arrows:")
    with pytest.raises(CyclicQuiver):
        parse_quiver("vertices:2; arrows:1->2,2->1")


def test_topological_order_and_connectivity():
    q = parse_quiver("vertices:4; arrows:3->1,3->2,4->2")
    order = q.topological_order()
    pos = {v: i for i, v in enumerate(order)}
    for s, t in q.arrows:
        assert pos[s] < pos[t]
    assert q.is_connected()
    assert not Quiver(2, ()).is_connected()


def test_euler_form_matches_matrix():
    q = parse_quiver("D4")
    e = euler_matrix(q)
    gen = SplitMix64(31337)
    for _ in range(25):
        d = [gen.next_int(0, 9) for _ in range(q.n)]
        f = [gen.next_int(0, 9) for _ in range(q.n)]
        via_matrix = sum(
            d[i] * e[i][j] * f[j] for i in range(q.n) for j in range(q.n)
        )
        assert euler_form(q, d, f) == via_matrix


def test_euler_form_dimension_check():
    with pytest.raises(DimensionMismatch):
        euler_form(parse_quiver("A2"), [1, 0, 0], [0, 1])


def test_tits_form_is_one_on_roots():
    q = parse_quiver("A3")
    for d in positive_roots(q):
        assert tits_form(q, d) == 1


def test_coxeter_matrix_a2_explicit():
    ed = coxeter_matrix(parse_quiver("A2"))
    assert ed.euler == ((1, -1), (0, 1))
    assert ed.coxeter == ((0, -1), (1, -1))
    assert ed.serre_k_action == ((0, 1), (-1, 1))
    # dim tau(I_1) = Phi (1,0) = (0,1), the simple at the sink
    assert tuple(
        sum(ed.coxeter[i][j] * (1, 0)[j] for j in range(2)) for i in range(2)
    ) == (0, 1)


def test_coxeter_orders_match_coxeter_numbers():
    for name, h in (("A2", 3), ("A3", 4), ("A5", 6), ("D4", 6), ("D5", 8), ("E6", 12)):
        q = parse_quiver(name)
        assert coxeter_order(q) == h
        dyn = classify_dynkin(q)
        assert dyn is not None
        assert dyn.coxeter_number == h
        assert dyn.fcy_pair == (h, h - 2)


def test_classification_series():
    assert classify_dynkin(parse_quiver("A4")).series == "A"
    assert classify_dynkin(parse_quiver("D6")).series == "D"
    assert classify_dynkin(parse_quiver("E8")).series == "E"
    assert classify_dynkin(parse_quiver("K2")) is None
    # a 4-valent star is not ADE
    star = parse_quiver("vertices:5; arrows:1->5,2->5,3->5,4->5")
    assert classify_dynkin(star) is None
    with pytest.raises(DisconnectedQuiver):
        classify_dynkin(Quiver(2, ()))


def test_kronecker_coxeter_is_unipotent_for_two_arrows():
    phi = [list(r) for r in coxeter_matrix(parse_quiver("K2")).coxeter]
    assert phi == [[3, -2], [2, -1]]
    n = len(phi)
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    delta = [[phi[i][j] - ident[i][j] for j in range(n)] for i in range(n)]
    assert int_mat_mul(delta, delta) == [[0, 0], [0, 0]]
    assert coxeter_order(parse_quiver("K2"), cap=64) is None


def test_wild_kronecker_spectral_radius():
    phi = np.array(coxeter_matrix(parse_quiver("K3")).coxeter, dtype=float)
    rho = max(abs(v) for v in np.linalg.eigvals(phi))
    expected = (7.0 + 3.0 * 5.0**0.5) / 2.0
    assert abs(rho - expected) < 1e-9


def test_positive_root_counts():
    for name, count in (("A2", 3), ("A3", 6), ("A5", 15), ("D4", 12), ("E6", 36)):
        roots = positive_roots(parse_quiver(name))
        assert len(roots) == count
        assert len(set(roots)) == count
    with pytest.raises(NotDynkin):
        positive_roots(parse_quiver("K2"))


def test_roots_invariant_under_orientation():
    bipartite = parse_quiver("A3")
    linear = parse_quiver("vertices:3; arrows:1->2,2->3")
    assert positive_roots(bipartite) == positive_roots(linear)


def test_value_types_are_frozen_and_compare_by_value():
    q = parse_quiver("A2")
    rec = Record(1, 0, 0.5, 1j)
    for obj, field in ((q, "n"), (rec, "phase"), (catalog_for(q).entries[0], "proj_vertex")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 0)
        with pytest.raises(AttributeError):
            obj.extra = 0
    x = DerivedObject.create(q, [(1, 0), (0, 0)])
    for a, b in ((q, Quiver(2, ((1, 2),))), (rec, Record(1, 0, 0.5, 1j)),
                 (x, DerivedObject(Quiver(2, ((1, 2),)), ((0, 0), (1, 0))))):
        assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert rec != Record(1, 1, 0.5, 1j)
    # namedtuples: equality and hash are those of the plain field tuple
    assert rec == (1, 0, 0.5, 1j) and hash(rec) == hash((1, 0, 0.5, 1j))
    with pytest.raises(AssertionError):
        SerreDims(0.25, 0.5, None)


def test_value_types_keep_their_repr():
    q = Quiver(2, ((1, 2),))
    assert repr(q) == "Quiver(n=2, arrows=((1, 2),))"
    assert repr(CurveStability(2, 0.0, 1.0)) == "CurveStability(genus=2, beta=0.0, H=1.0)"
    assert repr(Record(1, 0, 0.5, 1j)) == "Record(ident=1, shift=0, phase=0.5, z=1j)"
    assert repr(DerivedObject(q, ((0, 0),))) == (
        "DerivedObject(quiver=Quiver(n=2, arrows=((1, 2),)), summands=((0, 0),))"
    )
    assert repr(SerreDims(0.5, 0.5, Fraction(1, 2))) == (
        "SerreDims(upper=0.5, lower=0.5, exact=Fraction(1, 2))"
    )
