"""Objects of the bounded derived category as shifted sums of indecomposables.

Over a hereditary algebra every object splits into shifts of modules, so a
finite multiset of (catalog id, shift) pairs is a faithful model.  The Serre
functor acts summand by summand: `serre_apply` reads each summand's power
off the catalog (`IndecCatalog.serre_power`), which on a Dynkin component
reads the entry's orbit, walked once to its first return S^p M = M[k], and
elsewhere one matrix power A^n.  A `Period` is the read-only view of a
sequence kept as one period and a shift, as the entropy series keeps its
levels.  Hom Poincare data comes from the catalog's pairwise Euler form
with degree bookkeeping.  The zero object is the empty sum, and its Hom
Poincare data is empty.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Sequence

from .catalog import IndecCatalog, catalog_for
from .errors import QuiverMismatch
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


class Period(Sequence):
    """Items 0..length - 1 read off one stored period: item n is
    moved(period[n % p], (n // p) k) for p = len(period).  Each read builds
    a fresh item, so no caller can change a stored one."""

    __slots__ = ("period", "k", "length", "moved")

    def __init__(self, period: list, k: int, length: int, moved):
        self.period, self.k, self.length, self.moved = period, k, length, moved

    def __len__(self) -> int:
        return self.length

    def locate(self, n: int):
        """(the stored item of item n, its move); negative n counts from the end."""
        if not -self.length <= n < self.length:
            raise IndexError("period view index out of range")
        q, r = divmod(n % self.length, len(self.period))
        return self.period[r], q * self.k

    def _items(self, ns):
        p, k, moved = len(self.period), self.k, self.moved
        return (moved(self.period[n % p], n // p * k) for n in ns)

    def __getitem__(self, n):
        if isinstance(n, slice):
            return tuple(self._items(range(*n.indices(self.length))))
        return self.moved(*self.locate(n))

    def __iter__(self):
        return self._items(range(self.length))

    def __eq__(self, other) -> bool:
        return (isinstance(other, (tuple, list, Period)) and len(self) == len(other)
                and all(map(operator.eq, self, other)))

    __hash__ = None


def standard_generator(q: Quiver) -> DerivedObject:
    """G = direct sum of the indecomposable projectives, in degree 0."""
    cat = catalog_for(q)
    return DerivedObject.create(q, [(i, 0) for i in cat.proj_ids])


def serre_apply(x: DerivedObject, power: int = 1) -> DerivedObject:
    """S^power X, by the inverse for negative powers: each summand's image
    read off the catalog (`IndecCatalog.serre_power`)."""
    images = catalog_for(x.quiver).serre_power([i for i, _ in x.summands], power)
    return DerivedObject.create(
        x.quiver, [(j, s + sigma) for (_, s), (j, sigma) in zip(x.summands, images)])


def hom_poincare(x: DerivedObject, y: DerivedObject) -> dict[int, int]:
    """dim Hom(X, Y[m]) for all m, as a dict dropping zero entries.

    Hom(M[a], N[b][m]) = Ext^(b+m-a)(M, N), so for summands M[a], N[b] of a
    hereditary category the contributions are hom(M, N) in degree a - b and
    ext^1(M, N) in degree a - b + 1.  At most one is nonzero: |chi(M, N)|
    lands in degree a - b, or a - b + 1 when chi is negative.  Out of a
    projective chi is the dimension of N at that vertex, which works for
    virtual entries too.

    This is the general tool of `verify`'s duality checks and of the tests.
    The entropy series does not call it: with X = G it reads each level off
    the projectives' Serre powers as total dimensions, or off Dynkin on a
    connected quiver as |sum A^n [G]|, and this function is its oracle.
    """
    if x.quiver != y.quiver:
        raise QuiverMismatch("hom between objects over different quivers")
    if x.is_zero() or y.is_zero():
        return {}
    cat: IndecCatalog = catalog_for(x.quiver)
    out: dict[int, int] = {}
    for id1, a in x.summands:
        for id2, b in y.summands:
            c = cat.chi(id1, id2)
            if c:
                m = a - b + (c < 0)
                out[m] = out.get(m, 0) + abs(c)
    return out
