"""Quiver combinatorics: Euler form, Coxeter matrix, ADE detection, roots.
A connected quiver is Dynkin exactly when its Tits form is positive definite,
decided by the signs of the leading minors of its Gram matrix, whose
determinant then names the ADE type.  The positive roots are the catalog's
dimension vectors (see `catalog`).

Vertices are 1-based in all public interfaces (matching the text grammar);
matrices and dimension vectors are 0-indexed internally.
"""

from __future__ import annotations

import math
import operator
import re
from collections import namedtuple
from functools import cache
from typing import Sequence

from .errors import (
    CyclicQuiver,
    DimensionMismatch,
    DisconnectedQuiver,
    NotDynkin,
    ParseError,
)


class Quiver(namedtuple("Quiver", "n arrows")):
    """Finite acyclic quiver. arrows[(s, t)] are 1-based vertex indices."""

    __slots__ = ()

    def __new__(cls, n: int, arrows: tuple[tuple[int, int], ...]):
        if n < 1:
            raise ParseError("need at least one vertex")
        for s, t in arrows:
            if not (1 <= s <= n and 1 <= t <= n):
                raise ParseError("arrow endpoint out of range: %d->%d" % (s, t))
        self = super().__new__(cls, n, arrows)
        if self.topological_order() is None:
            raise CyclicQuiver("arrow digraph has a directed cycle")
        return self

    def topological_order(self) -> tuple[int, ...] | None:
        """Kahn's algorithm; None when cyclic.  Deterministic: smallest
        available vertex first."""
        indeg = [0] * (self.n + 1)
        out = [[] for _ in range(self.n + 1)]
        for s, t in self.arrows:
            indeg[t] += 1
            out[s].append(t)
        avail = sorted(v for v in range(1, self.n + 1) if indeg[v] == 0)
        order = []
        while avail:
            v = avail.pop(0)
            order.append(v)
            for w in out[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    # insertion keeping avail sorted; lists are tiny
                    avail.append(w)
                    avail.sort()
        return tuple(order) if len(order) == self.n else None

    def arrow_counts(self) -> list[list[int]]:
        a = [[0] * self.n for _ in range(self.n)]
        for s, t in self.arrows:
            a[s - 1][t - 1] += 1
        return a

    def undirected_edges(self) -> list[tuple[int, int]]:
        return [(min(s, t), max(s, t)) for s, t in self.arrows]

    def is_connected(self) -> bool:
        return None not in _depths(self.n, self.arrows)[1:]

    def components(self) -> tuple[tuple[int, ...], ...]:
        """The vertices of each connected component, sorted, the components
        in the order of their least vertex."""
        out = []
        for root in range(1, self.n + 1):
            if all(root not in vs for vs in out):
                depth = _depths(self.n, self.arrows, root)
                out.append(tuple(v for v in range(1, self.n + 1) if depth[v] is not None))
        return tuple(out)

    def full_subquiver(self, vs) -> "Quiver":
        """The full subquiver on the vertices `vs`, renumbered 1.. in their order."""
        renum = {v: i for i, v in enumerate(vs, start=1)}
        return Quiver(len(renum), tuple(
            (renum[s], renum[t]) for s, t in self.arrows if s in renum and t in renum))

    def text(self) -> str:
        """Canonical description in the accepted grammar."""
        arrows = ",".join("%d->%d" % a for a in self.arrows)
        return "vertices:%d; arrows:%s" % (self.n, arrows)


class EulerData(namedtuple("EulerData", "euler coxeter serre_k_action")):
    """Euler matrix E (so <d,e> = d^T E e), the Coxeter matrix, and the
    K-class action of the Serre functor (= -coxeter)."""

    __slots__ = ()
    euler: tuple[tuple[int, ...], ...]
    coxeter: tuple[tuple[int, ...], ...]
    serre_k_action: tuple[tuple[int, ...], ...]


class DynkinClass(namedtuple("DynkinClass", "series rank coxeter_number fcy_pair")):
    __slots__ = ()
    series: str  # "A" | "D" | "E"
    rank: int
    coxeter_number: int
    fcy_pair: tuple[int, int]  # (h, h-2)


def _depths(n: int, edges, root: int = 1) -> list[int | None]:
    """Depth from `root` of each vertex 1..n (index 0 unused) along the
    edges taken as undirected, None where unreached."""
    adj = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    depth = [None] * (n + 1)
    depth[root] = 0
    stack = [root]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if depth[w] is None:
                depth[w] = depth[u] + 1
                stack.append(w)
    return depth


def _preset(name: str) -> Quiver | None:
    """A<n>, D<n> and E6/E7/E8 with each tree edge oriented from its
    even-depth end, so every vertex is a pure source or pure sink; K<m>."""
    m = re.fullmatch(r"([ADEK])(\d+)", name)
    if m is None:
        return None
    kind, n = m.group(1), int(m.group(2))
    if kind == "K":
        return Quiver(2, ((1, 2),) * n) if n >= 1 else None
    if kind == "A" and n >= 1:
        edges = [(i, i + 1) for i in range(1, n)]
    elif kind == "D" and n >= 4:
        edges = [(i, i + 1) for i in range(1, n - 2)] + [(n - 2, n - 1), (n - 2, n)]
    elif kind == "E" and m.group(2) in ("6", "7", "8"):
        edges = [(i, i + 1) for i in range(1, n - 1)] + [(3, n)]
    else:
        return None
    depth = _depths(n, edges)
    return Quiver(n, tuple((u, v) if depth[u] % 2 == 0 else (v, u) for u, v in edges))


def parse_quiver(text: str) -> Quiver:
    """Parse `vertices:<n>; arrows:<s>-><t>,...` (whitespace-insensitive)
    or a preset name: A<n>, D<n>, E6/E7/E8, K<m>."""
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise ParseError("empty quiver description")
    preset = _preset(compact)
    if preset is not None:
        return preset
    m = re.fullmatch(r"vertices:(\d+);arrows:((?:\d+->\d+)(?:,\d+->\d+)*)?", compact)
    if m is None:
        raise ParseError("unrecognized quiver description: %r" % text)
    n = int(m.group(1))
    arrows = []
    if m.group(2):
        for part in m.group(2).split(","):
            s, t = part.split("->")
            arrows.append((int(s), int(t)))
    return Quiver(n, tuple(arrows))


def euler_matrix(q: Quiver) -> list[list[int]]:
    """E = I - (arrow count matrix); <d,e> = d^T E e."""
    a = q.arrow_counts()
    return [[(1 if i == j else 0) - a[i][j] for j in range(q.n)] for i in range(q.n)]


def euler_form(q: Quiver, d, e) -> int:
    if len(d) != q.n or len(e) != q.n:
        raise DimensionMismatch("vectors must have length %d" % q.n)
    total = sum(int(di) * int(ei) for di, ei in zip(d, e))
    for s, t in q.arrows:
        total -= int(d[s - 1]) * int(e[t - 1])
    return total


def tits_form(q: Quiver, d) -> int:
    return euler_form(q, d, d)


def int_mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> tuple[int, ...]:
    """Integer matrix times vector; entries must be Python ints, which never wrap."""
    return tuple(sum(map(operator.mul, row, v)) for row in a)


def int_mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in bt] for row in a]


def path_counts(q: Quiver) -> list[list[int]]:
    """P[i][j] = number of directed paths i -> j, the trivial one included:
    P = sum_k A^k = E^{-1} for the arrow counts A.  Row i is dim P_i and
    column j is dim I_j."""
    p = [[int(i == j) for j in range(q.n)] for i in range(q.n)]
    for v in reversed(q.topological_order()):
        for s, t in q.arrows:
            if s == v:
                p[v - 1] = [x + y for x, y in zip(p[v - 1], p[t - 1])]
    return p


def coxeter_matrix(q: Quiver) -> EulerData:
    """Coxeter matrix as the K-class action of the AR translate.

    Convention Phi = -E^{-1} E^T = -P E^T, the one under which
    dim(tau M) = Phi dim M holds for explicit representations (cross-checked
    in the test suite against reflection-functor translates).
    """
    eul = tuple(tuple(r) for r in euler_matrix(q))
    phi_rows = int_mat_mul(path_counts(q), list(zip(*eul)))
    cox = tuple(tuple(-x for x in r) for r in phi_rows)
    serre = tuple(tuple(r) for r in phi_rows)
    return EulerData(euler=eul, coxeter=cox, serre_k_action=serre)


@cache
def coxeter_polynomial(q: Quiver) -> tuple[int, ...]:
    """det(x I - Phi) for the Coxeter matrix Phi, coefficients from x^0 up,
    by Faddeev-LeVerrier in exact ints: M_k = Phi M_(k-1) + c_(n-k+1) I and
    c_(n-k) = -tr(Phi M_k) / k.  Memoized per quiver: `log_spectral_radius`
    isolates its largest root, and the entropy series steps its
    Cayley-Hamilton recurrence."""
    a = coxeter_matrix(q).coxeter
    n = q.n
    c = [0] * n + [1]
    am = [[0] * n for _ in range(n)]  # Phi M_(k-1), from M_0 = 0
    for k in range(1, n + 1):
        for i in range(n):
            am[i][i] += c[n - k + 1]
        am = int_mat_mul(a, am)
        c[n - k] = -sum(am[i][i] for i in range(n)) // k
    return tuple(c)


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Integer q, r with c a = q b + r, deg r < deg b <= deg a, for the
    positive c = |lead b|^(deg a - deg b + 1), which makes every step's
    division exact; coefficients from x^0 up, and r has no zero leading
    coefficient."""
    lead = b[-1]
    rem = [x * abs(lead) ** (len(a) - len(b) + 1) for x in a]
    quo = [0] * (len(a) - len(b) + 1)
    while len(rem) >= len(b):
        f = rem[-1] // lead
        shift = len(rem) - len(b)
        quo[shift] = f
        for i, x in enumerate(b):
            rem[shift + i] -= f * x
        while rem and rem[-1] == 0:
            rem.pop()
    return quo, rem


def _primitive(f: list[int]) -> list[int]:
    """f divided by the positive gcd of its coefficients."""
    g = math.gcd(*f)
    return [x // g for x in f]


def _derivative(f: list[int]) -> list[int]:
    return [i * x for i, x in enumerate(f)][1:]


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """The Sturm chain of p's squarefree part p / gcd(p, p'), each member a
    positive multiple of the textbook one, so its signs are the same."""
    a, b = p, _derivative(p)
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    chain = [_primitive(_pseudo_divmod(p, a)[0])]
    chain.append(_derivative(chain[0]))
    while True:
        rem = _pseudo_divmod(chain[-2], chain[-1])[1]
        if not rem:
            return chain
        chain.append(_primitive([-x for x in rem]))


def _sign_changes(chain: list[list[int]], a: int, k: int) -> int:
    """Sign changes along the chain at the dyadic point a / 2^k, zeros dropped:
    each member is evaluated as 2^(k deg) f(a / 2^k), an integer of the same sign."""
    signs = []
    for f in chain:
        v = 0
        for i, x in enumerate(reversed(f)):
            v = v * a + (x << (k * i))
        if v:
            signs.append(v > 0)
    return sum(s != t for s, t in zip(signs, signs[1:]))


@cache
def log_spectral_radius(q: Quiver) -> float:
    """log rho(Phi) for the Coxeter matrix Phi, exactly 0.0 when no root of
    its characteristic polynomial exceeds 1 (Dynkin and tame quivers).

    Otherwise rho is the largest real root (Ringel: the spectral radius of
    the Coxeter transformation of a wild quiver is an eigenvalue), bisected
    on dyadic points with Sturm's theorem, in exact integers, until the float
    endpoints agree.  `serre_k` = -Phi has the eigenvalue -rho instead.
    Memoized per quiver.
    """
    chain = _sturm_chain(list(coxeter_polynomial(q)))
    at_infinity = sum((s[-1] > 0) != (t[-1] > 0) for s, t in zip(chain, chain[1:]))

    def above(a: int, k: int) -> bool:  # a root in (a / 2^k, oo)
        return _sign_changes(chain, a, k) > at_infinity

    if not above(1, 0):
        return 0.0
    hi = 2
    while above(hi, 0):
        hi *= 2
    lo, k = 1, 0
    # the largest root lies in (lo, hi] / 2^k
    while lo / (1 << k) != hi / (1 << k):
        lo, hi, k = 2 * lo, 2 * hi, k + 1
        mid = (lo + hi) // 2
        if above(mid, k):
            lo = mid
        else:
            hi = mid
    return math.log(hi / (1 << k))


def coxeter_order(q: Quiver, cap: int = 64) -> int | None:
    """Minimal m >= 1 with Phi^m = id, or None if none up to cap."""
    phi = [list(r) for r in coxeter_matrix(q).coxeter]
    n = q.n
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    power = ident
    for m in range(1, cap + 1):
        power = int_mat_mul(power, phi)
        if power == ident:
            return m
    return None


def _tits_minors(q: Quiver) -> list[int]:
    """The leading principal minors of C = 2I - A - A^T, the Gram matrix of
    twice the Tits form, up to the first that is not positive: they are the
    pivots of one fraction-free (Bareiss) elimination, exact in ints."""
    a = q.arrow_counts()
    m = [[2 * (i == j) - a[i][j] - a[j][i] for j in range(q.n)] for i in range(q.n)]
    minors, prev = [], 1
    for k in range(q.n):
        pivot = m[k][k]
        minors.append(pivot)
        if pivot <= 0:
            break
        for i in range(k + 1, q.n):
            for j in range(k + 1, q.n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot
    return minors


@cache
def classify_dynkin(q: Quiver) -> DynkinClass | None:
    """ADE class with Coxeter number, or None for non-Dynkin quivers.

    A connected quiver is Dynkin exactly when its Tits form is positive
    definite (Gabriel 1972), that is when every leading minor of its Gram
    matrix C is positive (`_tits_minors`).  det C then names the type:
    n + 1 for A_n (tested first, so A3 stays A3), 4 for D_n, and 3, 2, 1
    for E6, E7, E8.  The tabulated h is cross-checked as the minimal m with
    Phi^m = id; disagreement would mean a broken Coxeter matrix, so it
    raises.  Memoized per quiver; a raise is not cached, so a disconnected
    quiver raises on every call.
    """
    if not q.is_connected():
        raise DisconnectedQuiver("classification needs a connected quiver")
    det = _tits_minors(q)[-1]  # det C when every minor is positive
    if det <= 0:
        return None
    rank = q.n
    if det == rank + 1:
        series, h = "A", rank + 1
    elif det == 4:
        series, h = "D", 2 * rank - 2
    else:
        series, h = "E", {6: 12, 7: 18, 8: 30}[rank]
    order = coxeter_order(q, cap=h)
    if order != h:
        raise AssertionError(
            "Coxeter order cross-check failed for %s%d: expected %d, got %r"
            % (series, rank, h, order)
        )
    return DynkinClass(series=series, rank=rank, coxeter_number=h, fcy_pair=(h, h - 2))


def positive_roots(q: Quiver) -> list[tuple[int, ...]]:
    """All positive roots of the Tits form, sorted: on a Dynkin quiver they
    are the dimension vectors of the indecomposables (Gabriel 1972), so they
    are read off the catalog's Coxeter knitting, which checks them."""
    if classify_dynkin(q) is None:
        raise NotDynkin("positive roots need an ADE quiver")
    from .catalog import catalog_for

    return sorted(catalog_for(q).by_dim)
