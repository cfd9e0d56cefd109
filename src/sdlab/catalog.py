"""The indecomposable catalog, built from integer Coxeter data.

On a Dynkin quiver an indecomposable is fixed by its dimension vector
(Gabriel 1972), and the Serre functor moves K-classes by A = -Phi for the
Coxeter matrix Phi: S P_i = I_i and S M = tau M[1] otherwise (Happel 1988).
So entries hold dimension vectors only.  The projectives and injectives are
the rows and columns of the path-count matrix P = E^{-1}, and each Serre
step is read off the sign of the integer vector A^{+-1} dim M.  Hom and Ext
come from one integer table of the Euler form, chi = D E D^T over the
dimension vectors D, so nothing here calls into the exact representations
of `reps`.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple

from .errors import CatalogIncomplete, CatalogMiss
from .quivers import (
    Quiver,
    classify_dynkin,
    coxeter_matrix,
    euler_form,
    int_mat_mul,
    int_mat_vec,
    path_counts,
    positive_roots,
)

CATALOG_FORMAT_VERSION = 2


class CatalogEntry(namedtuple("CatalogEntry", "ident dim_vector proj_vertex inj_vertex")):
    __slots__ = ()
    ident: int
    dim_vector: tuple[int, ...]
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

    Dynkin quivers get the full finite catalog (the tau-inverse orbits of
    the projectives, in bijection with the positive roots).  Other acyclic
    quivers get the projectives and injectives plus lazily-created virtual
    entries for the rest of the preprojective and preinjective components;
    operations that need the complete list, or Hom out of a virtual entry,
    raise CatalogIncomplete there.  One memoized rule serves both kinds of
    quiver and both directions: `serre_step` and `serre_inv_step` apply
    `serre_k` = A or `serre_k_inv` = A^{-1} to the dimension vector.

    `records` are a saved catalog's (dim, proj_vertex, inj_vertex) triples
    in id order; by default the orbits are walked.  Both go through `_link`.
    """

    def __init__(self, quiver: Quiver, records=None):
        self.quiver = quiver
        self.dynkin = classify_dynkin(quiver) if quiver.is_connected() else None
        ed = coxeter_matrix(quiver)
        paths = path_counts(quiver)
        proj = [tuple(r) for r in paths]
        inj = [tuple(c) for c in zip(*paths)]
        self.euler = ed.euler
        self.serre_k = ed.serre_k_action
        # A^{-1} = P^T E, and the rows of P^T are the injective dims
        self.serre_k_inv = int_mat_mul(inj, ed.euler)
        self.entries: list[CatalogEntry] = []
        self.by_dim: dict[tuple[int, ...], int] = {}
        self.proj_ids: list[int] = []
        self.inj_ids: list[int] = []
        self._steps: dict[tuple[int, int], tuple[int, int]] = {}
        self._chi_rows: list[tuple[int, ...]] | None = None
        for dim, proj_vertex, inj_vertex in records or self._walk(proj, inj):
            self._add(dim, proj_vertex, inj_vertex)
        self._link()

    # -- construction

    def _add(self, dim, proj_vertex=None, inj_vertex=None) -> int:
        dim = tuple(dim)
        if dim in self.by_dim:
            ident = self.by_dim[dim]
            e = self.entries[ident]
            # vertices are 1-based, so a given flag is never falsy
            self.entries[ident] = e._replace(proj_vertex=proj_vertex or e.proj_vertex,
                                             inj_vertex=inj_vertex or e.inj_vertex)
            return ident
        ident = len(self.entries)
        self.entries.append(CatalogEntry(ident, dim, proj_vertex, inj_vertex))
        self.by_dim[dim] = ident
        return ident

    def _walk(self, proj, inj):
        """(dim, proj_vertex, inj_vertex) in id order: the projectives, then
        on a Dynkin quiver each projective's tau-inverse orbit in turn."""
        if self.dynkin is None:
            yield from ((d, i, None) for i, d in enumerate(proj, start=1))
            yield from ((d, None, j) for j, d in enumerate(inj, start=1))
            return
        inj_vertex = {d: j for j, d in enumerate(inj, start=1)}
        for i, d in enumerate(proj, start=1):
            yield d, i, inj_vertex.get(d)
        for d in proj:
            while d not in inj_vertex:
                # off the injectives S^{-1} M = tau^{-1} M[-1], so -A^{-1} dim M
                d = tuple(-x for x in int_mat_vec(self.serre_k_inv, d))
                yield d, None, inj_vertex.get(d)

    def _link(self) -> None:
        """proj/inj ids from the flags; on a Dynkin quiver, the check that
        the dimension vectors are exactly the positive roots."""
        proj = {e.proj_vertex: e.ident for e in self.entries if e.is_projective}
        inj = {e.inj_vertex: e.ident for e in self.entries if e.is_injective}
        vertices = range(1, self.quiver.n + 1)
        self.proj_ids = [proj[i] for i in vertices]
        self.inj_ids = [inj[i] for i in vertices]
        if self.dynkin is not None and sorted(self.by_dim) != positive_roots(self.quiver):
            raise AssertionError("catalog dimension vectors are not the positive roots")

    @property
    def is_complete(self) -> bool:
        return self.dynkin is not None

    def size(self) -> int:
        return len(self.entries)

    # -- Serre steps on catalog ids

    def _step(self, ident: int, sign: int) -> tuple[int, int]:
        """S^sign M = M'[delta] from v = A^sign dim M, memoized.  The K-class
        of S^sign M is v, so v <= 0 means M' = |v| sits one shift over
        (delta = sign) and v >= 0 means delta = 0: the projectives for S,
        the injectives for S^{-1}.  Off Dynkin quivers |v| becomes a virtual
        entry when new; projectives and injectives are pre-registered, so
        `_add` merges a collision back onto the flagged entry."""
        dim = self.entries[ident].dim_vector
        v = int_mat_vec(self.serre_k if sign > 0 else self.serre_k_inv, dim)
        delta = 0
        if all(x <= 0 for x in v):
            v, delta = tuple(-x for x in v), sign
        elif any(x < 0 for x in v):
            raise CatalogMiss("left the cataloged components at %s" % (dim,))
        target = self.by_dim.get(v) if self.is_complete else self._add(v)
        if target is None:
            raise CatalogMiss("no catalog entry of dimension %s" % (v,))
        self._steps[ident, sign] = target, delta
        return target, delta

    def serre_step(self, ident: int) -> tuple[int, int]:
        """S(M[k]) = M'[k + delta]: returns (image id, delta)."""
        return self._steps.get((ident, 1)) or self._step(ident, 1)

    def serre_inv_step(self, ident: int) -> tuple[int, int]:
        return self._steps.get((ident, -1)) or self._step(ident, -1)

    # -- the pairwise Euler form

    def chi_rows(self) -> list[tuple[int, ...]]:
        """chi(a, b) = <dim a, dim b> of a complete catalog as rows by id, built
        on first use in one pass: chi = D E D^T for the dimension vectors D."""
        if self._chi_rows is None:
            self.require_complete()
            dims = [e.dim_vector for e in self.entries]
            self._chi_rows = [int_mat_vec(dims, r) for r in int_mat_mul(dims, self.euler)]
        return self._chi_rows

    def chi(self, a: int, b: int) -> int:
        """hom - ext^1.  Every cataloged entry lies in a directed component,
        where Hom and Ext^1 are never both nonzero, so the sign says which.
        Off the table chi(P_i, N) is dim N at vertex i, valid for virtual N;
        any other pair needs two modules (projective or injective)."""
        if self.is_complete:
            return self.chi_rows()[a][b]
        src, dst = self.entries[a], self.entries[b]
        if src.is_projective:
            return dst.dim_vector[src.proj_vertex - 1]
        for e in (src, dst):
            if not (e.is_projective or e.is_injective):
                raise CatalogIncomplete(
                    "entry %d is virtual (dimension-only); full homological data "
                    "needs a Dynkin quiver" % e.ident
                )
        return euler_form(self.quiver, src.dim_vector, dst.dim_vector)

    def hom_dim(self, a: int, b: int) -> int:
        return max(self.chi(a, b), 0)

    def ext_dim(self, a: int, b: int) -> int:
        return max(-self.chi(a, b), 0)

    def require_complete(self) -> None:
        if not self.is_complete:
            raise CatalogIncomplete(
                "operation needs the full indecomposable list; quiver is not Dynkin"
            )


# ------------------------------------------------------- catalog persistence


def save_catalog(cat: IndecCatalog, path: str) -> None:
    """Persist a complete (Dynkin) catalog: each entry's dimension vector and
    flags, in id order; the Serre steps are recomputed after load."""
    cat.require_complete()
    payload = {
        "format_version": CATALOG_FORMAT_VERSION,
        "quiver": cat.quiver.text(),
        "entries": [[list(e.dim_vector), e.proj_vertex, e.inj_vertex] for e in cat.entries],
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
        if payload["format_version"] != CATALOG_FORMAT_VERSION:
            return None
        if payload["quiver"] != expect_quiver.text():
            return None
        recs = payload["entries"]
        cat = IndecCatalog(expect_quiver, recs)
    except (OSError, LookupError, TypeError, ValueError, AssertionError):
        return None
    return cat if cat.is_complete and cat.size() == len(recs) else None


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
