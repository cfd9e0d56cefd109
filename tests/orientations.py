"""Orientations of a Dynkin tree, for tests that sweep them."""

import itertools

from sdlab import parse_quiver
from sdlab.quivers import Quiver


def oriented(text, flips):
    """The tree of preset `text` with the arrow of edge i reversed where flips[i]."""
    edges = parse_quiver(text).undirected_edges()
    return Quiver(len(edges) + 1, tuple((v, u) if f else (u, v) for (u, v), f in zip(edges, flips)))


def every_orientation(text):
    edges = len(parse_quiver(text).undirected_edges())
    return [oriented(text, flips) for flips in itertools.product((0, 1), repeat=edges)]
