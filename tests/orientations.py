"""Orientations of a Dynkin tree, for tests that sweep or draw them."""

import itertools

from hypothesis import strategies as st

from sdlab import parse_quiver
from sdlab.quivers import Quiver


def oriented(text, flips):
    """The tree of preset `text` with the arrow of edge i reversed where flips[i]."""
    edges = parse_quiver(text).undirected_edges()
    return Quiver(len(edges) + 1, tuple((v, u) if f else (u, v) for (u, v), f in zip(edges, flips)))


def every_orientation(text):
    edges = len(parse_quiver(text).undirected_edges())
    return [oriented(text, flips) for flips in itertools.product((0, 1), repeat=edges)]


@st.composite
def drawn_orientations(draw, shapes):
    """A Dynkin tree of a preset in `shapes` with shuffled labels and random arrows."""
    edges = parse_quiver(draw(st.sampled_from(shapes))).undirected_edges()
    n = len(edges) + 1
    label = draw(st.permutations(range(1, n + 1)))
    flips = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    arrows = tuple(
        (label[v - 1], label[u - 1]) if flip else (label[u - 1], label[v - 1])
        for (u, v), flip in zip(edges, flips)
    )
    return Quiver(n, arrows)


@st.composite
def drawn_unions(draw, shapes, max_parts=3):
    """A disjoint union of 1..max_parts graphs of quivers in `shapes` (texts
    or presets), every edge oriented along one drawn vertex order, so that
    each acyclic orientation can be drawn and parallel edges agree, with the
    labels shuffled across the union."""
    edges, n = [], 0
    for text in draw(st.lists(st.sampled_from(shapes), min_size=1, max_size=max_parts)):
        q = parse_quiver(text)
        edges += [(u + n, v + n) for u, v in q.undirected_edges()]
        n += q.n
    order = draw(st.permutations(range(n)))
    label = draw(st.permutations(range(1, n + 1)))
    oriented_edges = ((u, v) if order[u - 1] < order[v - 1] else (v, u) for u, v in edges)
    return Quiver(n, tuple((label[u - 1], label[v - 1]) for u, v in oriented_edges))
