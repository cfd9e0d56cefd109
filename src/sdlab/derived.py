"""Objects of the bounded derived category as shifted sums of indecomposables.

Over a hereditary algebra every object splits into shifts of modules, so a
finite multiset of (catalog id, shift) pairs is a faithful model.  The Serre
functor acts summand by summand through the catalog's step maps, up to the
first return S^p X = X[k], and `serre_orbit` reads the orbit as one `Period`
view of the levels up to it.  On a Dynkin quiver the projective generator
G's walk is taken once per sign and stored in the catalog
(`IndecCatalog.generator_periods`, at most h levels each) for the life of
the process, and every orbit, power and entropy series of G reads it.  Off
Dynkin, on a connected quiver, an orbit crosses from the projectives to the
injectives at most once, so `serre_apply` maps each summand through one
matrix power A^p instead, and each orbit level is one such power;
disconnected quivers keep the steps, as their Dynkin components cross many
times (and A2 + A2 has a period).  Hom Poincare data comes from the
catalog's pairwise Euler form with degree bookkeeping.  The zero object is
the empty sum, and its Hom Poincare data is empty.
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


def _return_shift(first, pairs) -> int | None:
    """k when the sorted `pairs` are `first` with every shift moved by k."""
    k = pairs[0][1] - first[0][1] if first else 0
    return k if all(a == b and s == t + k for (a, s), (b, t) in zip(pairs, first)) else None


def serre_walk(x: DerivedObject, n: int):
    """(summands of S^j X, k) for j = 0..|n|, by S^-1 when n < 0, sorted as
    `DerivedObject.create` sorts and stepped only when asked for, so a
    CatalogMiss surfaces after level j - 1 is read.  k is None up to the
    first return p, where the walk ends: S^(+-p) X = X[k].  On a Dynkin
    quiver p <= h as S^h = [h - 2]; other connected quivers have none."""
    cat = catalog_for(x.quiver)
    step = cat.serre_step if n >= 0 else cat.serre_inv_step
    pairs = x.summands
    yield pairs, None
    for _ in range(abs(n)):
        pairs = tuple(sorted((j, s + d) for i, s in pairs for j, d in [step(i)]))
        k = _return_shift(x.summands, pairs)
        yield pairs, k
        if k is not None:
            return


def serre_apply(x: DerivedObject, power: int = 1) -> DerivedObject:
    """S^power X, by the inverse for negative powers.  Off Dynkin, on a
    connected quiver, each summand goes through one matrix power
    (`IndecCatalog.serre_power`); otherwise it is `serre_orbit`'s last item."""
    cat = catalog_for(x.quiver)
    if cat.single_crossing:
        images = cat.serre_power([i for i, _ in x.summands], power)
        return DerivedObject.create(
            x.quiver, [(j, s + sigma) for (_, s), (j, sigma) in zip(x.summands, images)])
    return DerivedObject(x.quiver, serre_orbit(x, power)[-1])


def _walk_period(x: DerivedObject, n: int):
    """(levels 0..p-1, k) of `serre_walk` at its first return p <= |n|, or
    (levels 0..|n|, None) when it does not return by then."""
    levels = []
    for pairs, k in serre_walk(x, n):
        if k is not None:
            return levels, k
        levels.append(pairs)
    return levels, None


def _generator_period(cat: IndecCatalog, g: DerivedObject, sign: int):
    """G's walk by S^sign up to its first return, from the catalog's
    `generator_periods`, walked there on first use: on a Dynkin quiver
    S^h G = G[h - 2], so it returns by h."""
    stored = cat.generator_periods.get(sign)
    if stored is None:
        levels, k = _walk_period(g, sign * cat.dynkin.coxeter_number)
        if k is None:
            raise AssertionError("S^h G is not a shift of G")
        stored = cat.generator_periods[sign] = levels, k
    return stored


def serre_orbit(x: DerivedObject, n: int) -> Period:
    """The summands of S^j X for j = 0..|n|, by S^-1 when n < 0, as a
    `Period` view whose item j is serre_apply(x, +-j).summands.  Off Dynkin,
    on a connected quiver, each read is that one matrix power, so no step is
    memoized; otherwise `serre_walk` runs to its first return p, and item j
    is level j % p shifted by (j // p) k.  On a Dynkin quiver G's walk is
    read from the catalog, which keeps it for the life of the process; when
    |n| < p the view holds its first |n| + 1 levels, as a walk to |n| would."""
    cat = catalog_for(x.quiver)
    if cat.single_crossing:
        return Period([x.summands], 1 if n >= 0 else -1, abs(n) + 1,
                      lambda pairs, j: serre_apply(DerivedObject(x.quiver, pairs), j).summands)
    if cat.is_complete and x.summands == standard_generator(x.quiver).summands:
        levels, k = _generator_period(cat, x, 1 if n >= 0 else -1)
        if abs(n) < len(levels):
            levels, k = levels[:abs(n) + 1], None
    else:
        levels, k = _walk_period(x, n)
    return Period(levels, k or 0, abs(n) + 1, lambda pairs, j: tuple((i, s + j) for i, s in pairs))


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
    `serre_walk` as total dimensions, or off Dynkin on a connected quiver as
    |sum A^n [G]|, and this function is its oracle.
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
