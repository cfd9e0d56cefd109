"""Explicit quiver representations over exact rationals.

Hom spaces are computed by solving the commuting-square linear system, the
AR translate by sink/source reflection-functor sweeps, and the catalog of
indecomposables by knitting the tau-inverse orbits of the projectives.
Every cataloged indecomposable lies in a directed component, so the
catalog's hom/ext tables are read off the Euler form; exact hom-space solves
remain only in the monomorphism test and as the tests' oracle.
Everything here is exact; no floats.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction

from . import exactmat as xm
from .errors import (
    CatalogIncomplete,
    CatalogMiss,
    NotARoot,
    NotIndecomposable,
    QuiverMismatch,
)
from .prng import SplitMix64, fold_seed
from .quivers import Quiver, classify_dynkin, coxeter_matrix, euler_form, positive_roots

CATALOG_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Representation:
    quiver: Quiver
    dim_vector: tuple[int, ...]
    arrow_maps: tuple[xm.Mat, ...]  # shape (dim[target], dim[source]) per arrow

    def __post_init__(self):
        q = self.quiver
        if len(self.dim_vector) != q.n or len(self.arrow_maps) != len(q.arrows):
            raise ValueError("representation data does not match quiver")
        for (s, t), m in zip(q.arrows, self.arrow_maps):
            if (m.rows, m.cols) != (self.dim_vector[t - 1], self.dim_vector[s - 1]):
                raise ValueError("arrow map shape mismatch at %d->%d" % (s, t))

    def total_dim(self) -> int:
        return sum(self.dim_vector)

    def is_zero(self) -> bool:
        return self.total_dim() == 0


def zero_rep(q: Quiver) -> Representation:
    return Representation(q, (0,) * q.n, tuple(xm.zeros(0, 0) for _ in q.arrows))


def simple_rep(q: Quiver, i: int) -> Representation:
    dims = tuple(1 if v == i else 0 for v in range(1, q.n + 1))
    maps = tuple(xm.zeros(dims[t - 1], dims[s - 1]) for s, t in q.arrows)
    return Representation(q, dims, maps)


def _paths_from(q: Quiver, i: int) -> dict[int, list[tuple[int, ...]]]:
    """All directed paths starting at i, grouped by endpoint, as tuples of
    arrow indices.  Deterministic FIFO generation order."""
    out: dict[int, list[tuple[int, ...]]] = {v: [] for v in range(1, q.n + 1)}
    queue: list[tuple[int, tuple[int, ...]]] = [(i, ())]
    while queue:
        v, path = queue.pop(0)
        out[v].append(path)
        for idx, (s, t) in enumerate(q.arrows):
            if s == v:
                queue.append((t, path + (idx,)))
    return out


def projective_rep(q: Quiver, i: int) -> Representation:
    """P_i: basis at vertex v is the set of paths i -> v; arrows act by
    composition."""
    bases = _paths_from(q, i)
    dims = tuple(len(bases[v]) for v in range(1, q.n + 1))
    maps = []
    for idx, (s, t) in enumerate(q.arrows):
        src, tgt = bases[s], bases[t]
        pos = {p: r for r, p in enumerate(tgt)}
        m = [[xm.Q0] * len(src) for _ in range(len(tgt))]
        for c, p in enumerate(src):
            m[pos[p + (idx,)]][c] = xm.Q1
        maps.append(xm.Mat(len(tgt), len(src), m))
    return Representation(q, dims, tuple(maps))


def injective_rep(q: Quiver, i: int) -> Representation:
    """I_i: dual construction; basis at v indexes the paths v -> i."""
    rq = Quiver(q.n, tuple((t, s) for s, t in q.arrows))
    bases = _paths_from(rq, i)  # rq-path i -> v == reversed q-path v -> i
    dims = tuple(len(bases[v]) for v in range(1, q.n + 1))
    maps = []
    for idx, (s, t) in enumerate(q.arrows):
        src, tgt = bases[s], bases[t]
        pos = {p: c for c, p in enumerate(src)}
        m = [[xm.Q0] * len(src) for _ in range(len(tgt))]
        for r, p in enumerate(tgt):
            c = pos.get(p + (idx,))
            if c is not None:
                m[r][c] = xm.Q1
        maps.append(xm.Mat(len(tgt), len(src), m))
    return Representation(q, dims, tuple(maps))


@dataclass(frozen=True)
class HomSpace:
    dim: int
    basis: tuple[tuple[xm.Mat, ...], ...]  # basis[b][v] : M_v -> N_v


def hom_space(m: Representation, n: Representation) -> HomSpace:
    """Solve N_a phi_s = phi_t M_a for all arrows a; basis of solutions."""
    if m.quiver != n.quiver:
        raise QuiverMismatch("hom between representations of different quivers")
    q = m.quiver
    dm, dn = m.dim_vector, n.dim_vector
    # unknown layout: concat over v of row-major vec(phi_v), phi_v is dn[v] x dm[v]
    offsets = []
    total = 0
    for v in range(q.n):
        offsets.append(total)
        total += dn[v] * dm[v]
    rows: list[list[Fraction]] = []
    for idx, (s, t) in enumerate(q.arrows):
        s -= 1
        t -= 1
        na, ma = n.arrow_maps[idx], m.arrow_maps[idx]
        for r in range(dn[t]):
            for c in range(dm[s]):
                row = [xm.Q0] * total
                # N_a phi_s : coefficient of phi_s[k, c] is N_a[r, k]
                for k in range(dn[s]):
                    row[offsets[s] + k * dm[s] + c] += na.data[r][k]
                # - phi_t M_a : coefficient of phi_t[r, k] is -M_a[k, c]
                for k in range(dm[t]):
                    row[offsets[t] + r * dm[t] + k] -= ma.data[k][c]
                rows.append(row)
    a = xm.Mat(len(rows), total, rows) if rows else xm.zeros(0, total)
    ker = xm.right_kernel(a)
    basis = []
    for b in range(ker.cols):
        vec = ker.col(b)
        mats = []
        for v in range(q.n):
            block = vec[offsets[v] : offsets[v] + dn[v] * dm[v]]
            mats.append(
                xm.Mat(dn[v], dm[v], [block[r * dm[v] : (r + 1) * dm[v]] for r in range(dn[v])])
            )
        basis.append(tuple(mats))
    return HomSpace(dim=ker.cols, basis=tuple(basis))


def hom_dim(m: Representation, n: Representation) -> int:
    return hom_space(m, n).dim


def ext1_dim(m: Representation, n: Representation) -> int:
    """Hereditary path algebra: dim Ext^1 = dim Hom - <dim M, dim N>."""
    if m.quiver != n.quiver:
        raise QuiverMismatch("ext between representations of different quivers")
    val = hom_dim(m, n) - euler_form(m.quiver, m.dim_vector, n.dim_vector)
    if val < 0:
        raise AssertionError("negative Ext dimension; Euler form inconsistent")
    return val


# ---------------------------------------------------------------- reflections


def _reflect_quiver(q: Quiver, k: int) -> Quiver:
    return Quiver(q.n, tuple((t, s) if s == k or t == k else (s, t) for s, t in q.arrows))


def reflect_at_sink(rep: Representation, k: int) -> Representation:
    """R+ at a sink k: replace M_k by ker(+_(a: j->k) M_j -> M_k)."""
    q = rep.quiver
    if any(s == k for s, _ in q.arrows):
        raise ValueError("vertex %d is not a sink" % k)
    inc = [(idx, s) for idx, (s, t) in enumerate(q.arrows) if t == k]
    dims = list(rep.dim_vector)
    if inc:
        a = xm.hstack([rep.arrow_maps[idx] for idx, _ in inc])
        ker = xm.right_kernel(a)
        new_dim_k = ker.cols
    else:
        ker = xm.zeros(0, 0)
        new_dim_k = 0
    new_q = _reflect_quiver(q, k)
    dims[k - 1] = new_dim_k
    maps = list(rep.arrow_maps)
    offset = 0
    for idx, s in inc:
        d_s = rep.dim_vector[s - 1]
        block = [ker.data[offset + r] for r in range(d_s)]
        maps[idx] = xm.Mat(d_s, new_dim_k, block)
        offset += d_s
    return Representation(new_q, tuple(dims), tuple(maps))


def reflect_at_source(rep: Representation, k: int) -> Representation:
    """R- at a source k: replace M_k by coker(M_k -> +_(a: k->j) M_j),
    modeled by a left-kernel projection."""
    q = rep.quiver
    if any(t == k for _, t in q.arrows):
        raise ValueError("vertex %d is not a source" % k)
    out = [(idx, t) for idx, (s, t) in enumerate(q.arrows) if s == k]
    dims = list(rep.dim_vector)
    new_q = _reflect_quiver(q, k)
    maps = list(rep.arrow_maps)
    if not out:
        dims[k - 1] = 0
        return Representation(new_q, tuple(dims), tuple(maps))
    b = xm.vstack([rep.arrow_maps[idx] for idx, _ in out])
    proj = xm.left_kernel(b)  # rows: coker basis functionals
    dims[k - 1] = proj.rows
    offset = 0
    for idx, t in out:
        d_t = rep.dim_vector[t - 1]
        cols = [row[offset : offset + d_t] for row in proj.data]
        maps[idx] = xm.Mat(proj.rows, d_t, cols)
        offset += d_t
    return Representation(new_q, tuple(dims), tuple(maps))


def _coxeter_sweep(rep: Representation, inverse: bool) -> Representation:
    """C+ (sinks, reverse topological order) or C- (sources, topological
    order); returns a representation of the original quiver."""
    q = rep.quiver
    order = q.topological_order()
    cur = rep
    if inverse:
        for k in order:
            cur = reflect_at_source(cur, k)
    else:
        for k in reversed(order):
            cur = reflect_at_sink(cur, k)
    if cur.quiver != q:
        raise AssertionError("reflection sweep did not restore the quiver")
    return cur


def ar_translate(m: Representation, direction: str = "forward") -> Representation | None:
    """tau (forward) or tau-inverse, via reflection functor sweeps.

    Returns None at the boundary (tau of a projective, tau-inverse of an
    injective).  Input must be indecomposable; the brick criterion
    (End = one-dimensional) is used as the gate, which is exact on every
    component this package catalogs.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError("direction must be 'forward' or 'inverse'")
    if hom_dim(m, m) != 1:
        raise NotIndecomposable("representation is not a brick")
    out = _coxeter_sweep(m, inverse=(direction == "inverse"))
    if out.is_zero():
        return None
    return out


def exists_mono(n: Representation, m: Representation) -> bool:
    """Is there an injective homomorphism N -> M?

    The injective locus in Hom(N, M) is Zariski-open, so a generic element
    decides: try 8 seeded random integer combinations of the hom basis
    (coefficients up to 1e6), and additionally all {0, +-1} combinations
    when the hom space has dimension at most 2.
    """
    if n.quiver != m.quiver:
        raise QuiverMismatch("mono test between different quivers")
    if any(dn > dm for dn, dm in zip(n.dim_vector, m.dim_vector)):
        return False
    hs = hom_space(n, m)
    if hs.dim == 0:
        return False
    q = n.quiver

    def is_injective(coeffs) -> bool:
        for v in range(q.n):
            dv = n.dim_vector[v]
            if dv == 0:
                continue
            acc = xm.zeros(m.dim_vector[v], dv)
            for c, b in zip(coeffs, hs.basis):
                if c:
                    acc = acc + b[v].scale(c)
            if xm.rank(acc) < dv:
                return False
        return True

    gen = SplitMix64(
        fold_seed("mono", q.text(), *n.dim_vector, *m.dim_vector)
    )
    for _ in range(8):
        coeffs = [gen.next_int(-10**6, 10**6) for _ in range(hs.dim)]
        if any(coeffs) and is_injective(coeffs):
            return True
    if hs.dim <= 2:
        span = [-1, 0, 1]
        combos = (
            [(a,) for a in span]
            if hs.dim == 1
            else [(a, b) for a in span for b in span]
        )
        for coeffs in combos:
            if any(coeffs) and is_injective(coeffs):
                return True
    return False


# ------------------------------------------------------------------- catalog


@dataclass
class CatalogEntry:
    ident: int
    dim_vector: tuple[int, ...]
    rep: Representation | None  # None for virtual (dimension-only) entries
    proj_vertex: int | None
    inj_vertex: int | None

    @property
    def is_projective(self) -> bool:
        return self.proj_vertex is not None

    @property
    def is_injective(self) -> bool:
        return self.inj_vertex is not None


class IndecCatalog:
    """Indecomposables of D^b(Q) reachable from the projective generator.

    Dynkin quivers get the full finite catalog (knitted tau-inverse orbits,
    in bijection with the positive roots).  Other acyclic quivers get the
    projectives and injectives explicitly plus lazily-created virtual
    entries (dimension vector only) for the rest of the preprojective and
    preinjective components; operations that need the complete list raise
    CatalogIncomplete there.
    """

    def __init__(self, quiver: Quiver):
        self.quiver = quiver
        self.dynkin = classify_dynkin(quiver) if quiver.is_connected() else None
        ed = coxeter_matrix(quiver)
        self.euler_data = ed
        self.phi = [list(r) for r in ed.coxeter]
        phi_mat = xm.from_int_rows(self.phi)
        self.phi_inv = xm.to_int_rows(xm.inverse(phi_mat))
        self.entries: list[CatalogEntry] = []
        self.by_dim: dict[tuple[int, ...], int] = {}
        self.proj_ids: list[int] = []
        self.inj_ids: list[int] = []
        self._tau: dict[int, int | None] = {}
        self._tau_inv: dict[int, int | None] = {}
        self._hom: dict[tuple[int, int], int] = {}
        self._ext: dict[tuple[int, int], int] = {}
        self._mono: dict[tuple[int, int], bool] = {}
        self._build()

    # -- construction

    def _add(self, dim, rep, proj_vertex=None, inj_vertex=None) -> int:
        dim = tuple(dim)
        if dim in self.by_dim:
            ident = self.by_dim[dim]
            e = self.entries[ident]
            if rep is not None and e.rep is None:
                e.rep = rep
            if proj_vertex is not None:
                e.proj_vertex = proj_vertex
            if inj_vertex is not None:
                e.inj_vertex = inj_vertex
            return ident
        ident = len(self.entries)
        self.entries.append(CatalogEntry(ident, dim, rep, proj_vertex, inj_vertex))
        self.by_dim[dim] = ident
        return ident

    def _build(self) -> None:
        q = self.quiver
        projs = [projective_rep(q, i) for i in range(1, q.n + 1)]
        injs = [injective_rep(q, i) for i in range(1, q.n + 1)]
        inj_dims = {r.dim_vector: i for i, r in enumerate(injs, start=1)}
        if self.dynkin is not None:
            for i, p in enumerate(projs, start=1):
                ident = self._add(p.dim_vector, p, proj_vertex=i,
                                  inj_vertex=inj_dims.get(p.dim_vector))
                self.proj_ids.append(ident)
            for i, p in enumerate(projs, start=1):
                prev = self.by_dim[p.dim_vector]
                cur = p
                while self.entries[prev].inj_vertex is None:
                    nxt = _coxeter_sweep(cur, inverse=True)
                    expected = xm.int_mat_vec(self.phi_inv, cur.dim_vector)
                    if tuple(expected) != nxt.dim_vector:
                        raise AssertionError("knitting does not match Coxeter action")
                    ident = self._add(nxt.dim_vector, nxt,
                                      inj_vertex=inj_dims.get(nxt.dim_vector))
                    self._tau_inv[prev] = ident
                    self._tau[ident] = prev
                    prev, cur = ident, nxt
                self._tau_inv[prev] = None
            self.inj_ids = [self.by_dim[r.dim_vector] for r in injs]
            for ident in self.proj_ids:
                self._tau[ident] = None
            roots = positive_roots(q)
            if len(self.entries) != len(roots):
                raise AssertionError(
                    "catalog size %d does not match root count %d"
                    % (len(self.entries), len(roots))
                )
        else:
            for i, p in enumerate(projs, start=1):
                self.proj_ids.append(self._add(p.dim_vector, p, proj_vertex=i))
            for i, r in enumerate(injs, start=1):
                self.inj_ids.append(self._add(r.dim_vector, r, inj_vertex=i))

    @property
    def is_complete(self) -> bool:
        return self.dynkin is not None

    def size(self) -> int:
        return len(self.entries)

    def entry(self, ident: int) -> CatalogEntry:
        return self.entries[ident]

    def entry_by_dim(self, dim) -> CatalogEntry | None:
        ident = self.by_dim.get(tuple(dim))
        return None if ident is None else self.entries[ident]

    # -- Serre steps on catalog ids

    def _virtual_step(self, dim, phi) -> int:
        # projectives and injectives are pre-registered, so _add merges any
        # dimension collision back onto the flagged entry
        new_dim = xm.int_mat_vec(phi, dim)
        if any(x < 0 for x in new_dim) or all(x == 0 for x in new_dim):
            raise CatalogMiss("left the cataloged components at %s" % (dim,))
        return self._add(new_dim, None)

    def serre_step(self, ident: int) -> tuple[int, int]:
        """S(M[k]) = M'[k + delta]: returns (image id, delta)."""
        e = self.entries[ident]
        if e.proj_vertex is not None:
            return self.inj_ids[e.proj_vertex - 1], 0
        if ident in self._tau:
            tau_id = self._tau[ident]
            if tau_id is not None:
                return tau_id, 1
        if self.dynkin is not None:
            raise CatalogMiss("no tau link for id %d" % ident)
        return self._virtual_step(e.dim_vector, self.phi), 1

    def serre_inv_step(self, ident: int) -> tuple[int, int]:
        e = self.entries[ident]
        if e.inj_vertex is not None:
            return self.proj_ids[e.inj_vertex - 1], 0
        if ident in self._tau_inv:
            ti = self._tau_inv[ident]
            if ti is not None:
                return ti, -1
        if self.dynkin is not None:
            raise CatalogMiss("no tau-inverse link for id %d" % ident)
        return self._virtual_step(e.dim_vector, self.phi_inv), -1

    # -- pairwise tables (lazy, memoized)

    def _rep(self, ident: int) -> Representation:
        rep = self.entries[ident].rep
        if rep is None:
            raise CatalogIncomplete(
                "entry %d is virtual (dimension-only); full homological data "
                "needs a Dynkin quiver" % ident
            )
        return rep

    def hom_dim(self, a: int, b: int) -> int:
        key = (a, b)
        if key not in self._hom:
            src = self.entries[a]
            if src.proj_vertex is not None:
                # dim Hom(P_i, N) = dim N at vertex i; valid for virtual N too
                self._hom[key] = self.entries[b].dim_vector[src.proj_vertex - 1]
            else:
                # virtual entries still raise CatalogIncomplete here
                self._rep(a)
                self._rep(b)
                # every cataloged entry lies in a directed component, where
                # Hom and Ext^1 are never both nonzero: hom = max(chi, 0)
                chi = euler_form(self.quiver, src.dim_vector, self.entries[b].dim_vector)
                self._hom[key] = max(chi, 0)
        return self._hom[key]

    def ext_dim(self, a: int, b: int) -> int:
        key = (a, b)
        if key not in self._ext:
            if self.entries[a].proj_vertex is not None:
                self._ext[key] = 0
            else:
                val = self.hom_dim(a, b) - euler_form(
                    self.quiver, self.entries[a].dim_vector, self.entries[b].dim_vector
                )
                if val < 0:
                    raise AssertionError("negative Ext dimension in catalog")
                self._ext[key] = val
        return self._ext[key]

    def mono(self, a: int, b: int) -> bool:
        """Does a monomorphism entry_a -> entry_b exist?  Without a nonzero
        map there is none, so the exact search runs only when Hom is nonzero."""
        key = (a, b)
        if key not in self._mono:
            self._mono[key] = self.hom_dim(a, b) > 0 and exists_mono(
                self._rep(a), self._rep(b)
            )
        return self._mono[key]

    def require_complete(self) -> None:
        if not self.is_complete:
            raise CatalogIncomplete(
                "operation needs the full indecomposable list; quiver is not Dynkin"
            )


# ------------------------------------------------------- catalog persistence


def _mat_to_json(m: xm.Mat) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[str(x) for x in row] for row in m.data],
    }


def _mat_from_json(obj: dict) -> xm.Mat:
    return xm.Mat(
        obj["rows"], obj["cols"], [[Fraction(s) for s in row] for row in obj["entries"]]
    )


def save_catalog(cat: IndecCatalog, path: str) -> None:
    """Persist a complete (Dynkin) catalog; tau links are recomputed on load."""
    cat.require_complete()
    payload = {
        "format_version": CATALOG_FORMAT_VERSION,
        "quiver": cat.quiver.text(),
        "entries": [
            {
                "id": e.ident,
                "dim_vector": list(e.dim_vector),
                "proj_vertex": e.proj_vertex,
                "inj_vertex": e.inj_vertex,
                "maps": [_mat_to_json(m) for m in e.rep.arrow_maps],
            }
            for e in cat.entries
        ],
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
    os.replace(tmp, path)


def load_catalog(path: str, expect_quiver: Quiver) -> IndecCatalog | None:
    """Rebuild a catalog from disk; None when stale or mismatched."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return None
    if payload.get("format_version") != CATALOG_FORMAT_VERSION:
        return None
    if payload.get("quiver") != expect_quiver.text():
        return None
    cat = IndecCatalog.__new__(IndecCatalog)
    cat.quiver = expect_quiver
    cat.dynkin = classify_dynkin(expect_quiver)
    if cat.dynkin is None:
        return None
    ed = coxeter_matrix(expect_quiver)
    cat.euler_data = ed
    cat.phi = [list(r) for r in ed.coxeter]
    cat.phi_inv = xm.to_int_rows(xm.inverse(xm.from_int_rows(cat.phi)))
    cat.entries = []
    cat.by_dim = {}
    cat.proj_ids = []
    cat.inj_ids = []
    cat._tau = {}
    cat._tau_inv = {}
    cat._hom = {}
    cat._ext = {}
    cat._mono = {}
    try:
        for rec in payload["entries"]:
            dim = tuple(rec["dim_vector"])
            maps = tuple(_mat_from_json(m) for m in rec["maps"])
            rep = Representation(expect_quiver, dim, maps)
            e = CatalogEntry(rec["id"], dim, rep, rec["proj_vertex"], rec["inj_vertex"])
            if rec["id"] != len(cat.entries):
                return None
            cat.entries.append(e)
            cat.by_dim[dim] = e.ident
            if e.proj_vertex is not None:
                cat.proj_ids.append((e.proj_vertex, e.ident))
            if e.inj_vertex is not None:
                cat.inj_ids.append((e.inj_vertex, e.ident))
    except (KeyError, TypeError, ValueError):
        return None
    cat.proj_ids = [i for _, i in sorted(cat.proj_ids)]
    cat.inj_ids = [i for _, i in sorted(cat.inj_ids)]
    # tau links from the Coxeter action on dimension vectors
    for e in cat.entries:
        if e.proj_vertex is None:
            prev = cat.by_dim.get(tuple(xm.int_mat_vec(cat.phi, e.dim_vector)))
            if prev is None:
                return None
            cat._tau[e.ident] = prev
            cat._tau_inv[prev] = e.ident
        else:
            cat._tau[e.ident] = None
    for e in cat.entries:
        if e.inj_vertex is not None:
            cat._tau_inv[e.ident] = None
    return cat


_CATALOGS: dict[str, IndecCatalog] = {}


def catalog_for(q: Quiver, cache_dir: str | None = None, cache_key: str | None = None) -> IndecCatalog:
    """Memoized catalog per quiver; optional JSON cache for named presets."""
    text = q.text()
    if text in _CATALOGS:
        return _CATALOGS[text]
    cat = None
    path = None
    if cache_dir and cache_key:
        path = os.path.join(cache_dir, "catalog-%s-v%d.json" % (cache_key, CATALOG_FORMAT_VERSION))
        cat = load_catalog(path, q)
    if cat is None:
        cat = IndecCatalog(q)
        if path is not None and cat.is_complete:
            os.makedirs(cache_dir, exist_ok=True)
            save_catalog(cat, path)
    _CATALOGS[text] = cat
    return cat


def indecomposable_from_root(q: Quiver, d) -> Representation:
    """The unique indecomposable with dimension vector d (Dynkin only)."""
    roots = positive_roots(q)
    key = tuple(int(x) for x in d)
    if key not in set(roots):
        raise NotARoot("%s is not a positive root" % (key,))
    entry = catalog_for(q).entry_by_dim(key)
    if entry is None or entry.rep is None:
        raise NotARoot("no catalog entry for root %s" % (key,))
    return entry.rep
