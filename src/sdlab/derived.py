"""Objects of the bounded derived category as shifted sums of indecomposables.

Over a hereditary algebra every object splits into shifts of modules, so a
finite multiset of (catalog id, shift) pairs is a faithful model.  The Serre
functor acts summand by summand through the catalog's step maps, and hom
Poincare data comes from the pairwise hom/ext tables with degree bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import IndecCatalog, catalog_for
from .errors import QuiverMismatch, ZeroObject
from .quivers import Quiver


@dataclass(frozen=True)
class DerivedObject:
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


def serre_apply(x: DerivedObject, power: int = 1) -> DerivedObject:
    """S^power applied summand by summand; negative powers use the inverse."""
    cat = catalog_for(x.quiver)
    step = cat.serre_step if power >= 0 else cat.serre_inv_step
    pairs = list(x.summands)
    for _ in range(abs(power)):
        new_pairs = []
        for ident, k in pairs:
            ident2, delta = step(ident)
            new_pairs.append((ident2, k + delta))
        pairs = new_pairs
    return DerivedObject.create(x.quiver, pairs)


def hom_poincare(x: DerivedObject, y: DerivedObject) -> dict[int, int]:
    """dim Hom(X, Y[m]) for all m, as a dict dropping zero entries.

    Hom(M[a], N[b][m]) = Ext^(b+m-a)(M, N), so for summands M[a], N[b] of a
    hereditary category the contributions are hom(M, N) in degree a - b and
    ext^1(M, N) in degree a - b + 1.  When the source summand is projective
    only the hom term survives and it equals the dimension of N at that
    vertex, which works for virtual entries too.
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
