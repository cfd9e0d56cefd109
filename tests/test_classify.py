"""ADE classification by the Tits form: the leg walk over tree shapes as the
oracle, the Bareiss pivots against independent minors, and the Coxeter-order
cross-check that guards the tabulated h."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sdlab.quivers
from sdlab import classify_dynkin, parse_quiver
from sdlab.quivers import Quiver, _tits_minors

from orientations import every_orientation

DYNKIN = (["A%d" % n for n in range(1, 9)] + ["D%d" % n for n in range(4, 9)]
          + ["E6", "E7", "E8"])


def leg_walk(q):
    """(series, rank, h) of a connected quiver whose underlying graph is an
    ADE tree, else None: no multi-edge, n - 1 edges, degrees at most 3 with
    at most one branch vertex, and legs of 1, 1, any (D) or 1, 2, 2..4 (E)
    edges from it."""
    edges = q.undirected_edges()
    if len(set(edges)) != len(edges) or len(edges) != q.n - 1:
        return None
    adj = {v: [] for v in range(1, q.n + 1)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    deg = {v: len(w) for v, w in adj.items()}
    branches = [v for v in adj if deg[v] == 3]
    if max(deg.values()) > 3 or len(branches) > 1:
        return None
    if not branches:
        return ("A", q.n, q.n + 1)
    legs = []
    for start in adj[branches[0]]:
        length, prev, cur = 1, branches[0], start
        while deg[cur] == 2:
            prev, cur = cur, next(w for w in adj[cur] if w != prev)
            length += 1
        legs.append(length)
    legs.sort()
    if legs[:2] == [1, 1]:
        return ("D", q.n, 2 * q.n - 2)
    if legs[0] == 1 and legs[1] == 2 and legs[2] in (2, 3, 4):
        return ("E", q.n, {6: 12, 7: 18, 8: 30}[q.n])
    return None


def star(*legs):
    """Edges of a star with legs of the given edge counts around vertex 1."""
    edges, top = [], 1
    for length in legs:
        prev = 1
        for _ in range(length):
            top += 1
            edges.append((prev, top))
            prev = top
    return edges


def cycle(n):
    return [(i, i + 1) for i in range(1, n)] + [(n, 1)]


def affine_d(n):
    """D~n on n + 1 vertices: a path 1..n-1 with two leaves at each end's neighbour."""
    return [(i, i + 1) for i in range(1, n - 1)] + [(2, n), (n - 2, n + 1)]


SHAPES = (
    [parse_quiver(name).undirected_edges() for name in DYNKIN[1:]]  # A1 has no edge
    + [cycle(n) for n in range(3, 9)]  # A~2..A~7
    + [[(1, 2), (1, 2)], [(1, 2), (1, 2), (2, 3)]]  # K2 and K2 with a tail
    + [affine_d(n) for n in range(4, 8)]
    + [star(2, 2, 2), star(1, 3, 3), star(1, 2, 5)]  # E~6, E~7, E~8
    + [star(1, 2, 6), star(1, 1, 1, 1), star(1, 1, 1, 2), star(2, 2, 1, 1)]  # T(2,3,7), 4-leg stars
)


@st.composite
def connected_quivers(draw):
    """A shape with up to two extra edges (so multi-edges and cycles),
    shuffled labels and an acyclic orientation from a drawn vertex order."""
    edges = list(draw(st.sampled_from(SHAPES)))
    n = max(max(e) for e in edges)
    extra = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n))
                          .filter(lambda e: e[0] != e[1]), max_size=2))
    label = draw(st.permutations(range(1, n + 1)))
    edges = [(label[u - 1], label[v - 1]) for u, v in edges + extra]
    rank = {v: i for i, v in enumerate(draw(st.permutations(range(1, n + 1))))}
    return Quiver(n, tuple((u, v) if rank[u] < rank[v] else (v, u) for u, v in edges))


def _class(q):
    dyn = classify_dynkin(q)
    return dyn and (dyn.series, dyn.rank, dyn.coxeter_number)


@pytest.mark.parametrize("name", DYNKIN)
def test_every_orientation_of_a_dynkin_tree_has_the_leg_walk_class(name):
    for q in every_orientation(name):
        assert _class(q) == leg_walk(q) is not None


@settings(derandomize=True, max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(connected_quivers())
def test_drawn_connected_quivers_have_the_leg_walk_class(q):
    assert _class(q) == leg_walk(q)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(connected_quivers())
def test_pivots_are_the_leading_minors(q):
    a = np.array(q.arrow_counts())
    c = 2 * np.eye(q.n) - a - a.T
    minors = [round(np.linalg.det(c[:k, :k])) for k in range(1, q.n + 1)]
    stop = next((k for k, m in enumerate(minors) if m <= 0), q.n - 1)
    assert _tits_minors(q) == minors[:stop + 1]


@pytest.mark.parametrize("broken", (lambda q, cap: cap - 1, lambda q, cap: None),
                         ids=("h-1", "none"))
@pytest.mark.parametrize("name", ("A4", "D5", "E8"))
def test_a_broken_coxeter_order_fails_the_cross_check(monkeypatch, broken, name):
    monkeypatch.setattr(sdlab.quivers, "coxeter_order", broken)
    classify_dynkin.cache_clear()
    with pytest.raises(AssertionError, match="Coxeter order cross-check failed for %s" % name):
        classify_dynkin(parse_quiver(name))
