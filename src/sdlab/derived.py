"""Objects of the bounded derived category as shifted sums of indecomposables.

Over a hereditary algebra every object splits into shifts of modules, so a
finite multiset of (catalog id, shift) pairs is a faithful model.  The Serre
functor acts summand by summand through the catalog's step maps, and
`serre_orbit` walks S^n X level by level.  Hom Poincare data comes from the
pairwise hom/ext tables with degree bookkeeping.
"""

from __future__ import annotations

from collections import namedtuple

from .catalog import IndecCatalog, catalog_for
from .errors import QuiverMismatch, ZeroObject
from .quivers import Quiver


class DerivedObject(namedtuple("DerivedObject", "quiver summands")):
    __slots__ = ()
    quiver: Quiver
    summands: tuple[tuple[int, int], ...]  # (catalog id, homological shift)

    @staticmethod
    def create(quiver: Quiver, pairs) -> "DerivedObject":
        return DerivedObject(quiver, tuple(sorted((int(i), int(k)) for i, k in pairs)))

    def is_zero(self) -> bool:
        return not self.summands

    def shift(self, k: int) -> "DerivedObject":
        return DerivedObject(self.quiver, tuple((i, s + k) for i, s in self.summands))

    def total_summands(self) -> int:
        return len(self.summands)


def standard_generator(q: Quiver) -> DerivedObject:
    """G = direct sum of the indecomposable projectives, in degree 0."""
    cat = catalog_for(q)
    return DerivedObject.create(q, [(i, 0) for i in cat.proj_ids])


def _step_each(step, pairs) -> list[tuple[int, int]]:
    """One Serre step on every summand, in the given order.  Off Dynkin
    quivers a step may create a virtual catalog entry, whose id is its
    creation rank, so the order is part of the result."""
    out = []
    for ident, k in pairs:
        ident2, delta = step(ident)
        out.append((ident2, k + delta))
    return out


def serre_apply(x: DerivedObject, power: int = 1) -> DerivedObject:
    """S^power applied summand by summand; negative powers use the inverse."""
    cat = catalog_for(x.quiver)
    step = cat.serre_step if power >= 0 else cat.serre_inv_step
    pairs = list(x.summands)
    for _ in range(abs(power)):
        pairs = _step_each(step, pairs)
    return DerivedObject.create(x.quiver, pairs)


def serre_orbit(x: DerivedObject, n_max: int):
    """The summands of S^n X for n = 0..n_max, each level sorted as
    `DerivedObject.create` sorts, so level n equals serre_apply(x, n).summands.
    One walk serves every level: level n + 1 is stepped from level n only when
    it is asked for, so a CatalogMiss surfaces after level n has been read and
    nothing is stepped past n_max."""
    cat = catalog_for(x.quiver)
    pairs = x.summands
    yield pairs
    for _ in range(n_max):
        pairs = tuple(sorted(_step_each(cat.serre_step, pairs)))
        yield pairs


def hom_poincare(x: DerivedObject, y: DerivedObject) -> dict[int, int]:
    """dim Hom(X, Y[m]) for all m, as a dict dropping zero entries.

    Hom(M[a], N[b][m]) = Ext^(b+m-a)(M, N), so for summands M[a], N[b] of a
    hereditary category the contributions are hom(M, N) in degree a - b and
    ext^1(M, N) in degree a - b + 1.  When the source summand is projective
    only the hom term survives and it equals the dimension of N at that
    vertex, which works for virtual entries too.

    This is the general tool of `verify`'s duality checks and of the tests.
    The entropy series does not call it: with X = G it reads each level off
    `serre_orbit` as total dimensions, and this function is its oracle.
    """
    if x.quiver != y.quiver:
        raise QuiverMismatch("hom between objects over different quivers")
    if x.is_zero() or y.is_zero():
        return {}
    cat: IndecCatalog = catalog_for(x.quiver)
    out: dict[int, int] = {}
    for id1, a in x.summands:
        for id2, b in y.summands:
            h = cat.hom_dim(id1, id2)
            if h:
                out[a - b] = out.get(a - b, 0) + h
            e = cat.ext_dim(id1, id2)
            if e:
                out[a - b + 1] = out.get(a - b + 1, 0) + e
    return out


def require_nonzero(x: DerivedObject, what: str = "object") -> None:
    if x.is_zero():
        raise ZeroObject("%s is the zero object" % what)
