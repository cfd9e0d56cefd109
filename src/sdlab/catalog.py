"""The indecomposable catalog, built from integer Coxeter data.

On a Dynkin quiver an indecomposable is fixed by its dimension vector
(Gabriel 1972), and the Serre functor moves K-classes by A = -Phi for the
Coxeter matrix Phi: S P_i = I_i and S M = tau M[1] otherwise (Happel 1988).
So entries hold dimension vectors only.  The projectives and injectives are
the rows and columns of the path-count matrix P = E^{-1}.  On a connected
Dynkin quiver the knitting that lists the entries computes tau^{-1} M =
-A^{-1} dim M at each step, so it records S on every entry as it goes:
S P_i = I_i and S(tau^{-1} M) = M[1].  Every other Serre step is read off
the sign of the integer vector A^{+-1} dim M.  A power S^n is read per
entry (`serre_power`).  On a Dynkin component
S^h = [h - 2] on every indecomposable (Happel 1988), so the entry's orbit
returns, S^p M = M[k] with p <= h; it is walked once and S^n M read off it
for any n of either sign.  On any other component an orbit crosses from the
projectives to the injectives at most once, so S^n M is read off A^n dim M
in one matrix power.  Hom and Ext come from one integer table of the Euler
form, chi = D E D^T over the dimension vectors D, so nothing here calls
into the exact representations of `reps`.  `catalog_for` keys its catalogs
by the quiver value and keeps them in memory, never on disk, for the life
of the process, with every orbit walked so far.  The Dynkin knitting is the
package's one source of positive roots (`positive_roots` reads it),
certified by the Tits form and the count nh/2; the reflection closure is
only a test oracle.
"""

from __future__ import annotations

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
    tits_form,
)


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
    raise CatalogIncomplete there.  On a connected Dynkin quiver
    `serre_step` reads the steps the knitting recorded.  Every other step,
    off Dynkin, on a disconnected quiver and by `serre_inv_step`, comes from
    one memoized rule, `_step`, which applies `serre_k` = A or
    `serre_k_inv` = A^{-1} to the dimension vector.  `serre_power` reads an entry on a Dynkin component off its orbit, walked
    by `serre_step` to the first return; elsewhere it applies A^p at once
    and registers only the image, so virtual ids follow the order of the
    calls.  A catalog is built from the quiver alone and lives in memory
    only.
    """

    def __init__(self, quiver: Quiver):
        self.quiver = quiver
        # (vertices, full subquiver) per connected component
        self.components = [(vs, quiver.full_subquiver(vs)) for vs in quiver.components()]
        # the 0-based vertices of the Dynkin components, where every orbit returns
        self._returning = {v - 1 for vs, sub in self.components if classify_dynkin(sub) for v in vs}
        self.dynkin = classify_dynkin(quiver) if len(self.components) == 1 else None
        # where every Serre orbit crosses P -> I at most once: see serre_power
        self.single_crossing = len(self.components) == 1 and not self._returning
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
        self._chi_rows: list[tuple[int, ...]] | None = None
        # id -> (S^j M as (id, shift) for j < p, k) up to S^p M = M[k]
        self._orbits: dict[int, tuple[list[tuple[int, int]], int]] = {}
        knitted = []  # (dim M, (dim M', delta)) for S M = M'[delta]
        for dim, proj_vertex, inj_vertex, serre in self._walk(proj, inj):
            self._add(dim, proj_vertex, inj_vertex)
            if serre is not None:
                knitted.append((dim, serre))
        self._link()
        # (id, sign) -> S^sign M as (id, delta): the knitting's own steps,
        # then `_step`'s for the rest
        self._steps: dict[tuple[int, int], tuple[int, int]] = {
            (self.by_dim[d], 1): (self.by_dim[image], delta) for d, (image, delta) in knitted}

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
        """(dim, proj_vertex, inj_vertex, S M as (dim, delta) or None) in id
        order: the projectives, then on a Dynkin quiver each projective's
        tau-inverse orbit in turn, where S P_i = I_i and S(tau^{-1} M) = M[1]."""
        if self.dynkin is None:
            yield from ((d, i, None, None) for i, d in enumerate(proj, start=1))
            yield from ((d, None, j, None) for j, d in enumerate(inj, start=1))
            return
        inj_vertex = {d: j for j, d in enumerate(inj, start=1)}
        for i, d in enumerate(proj, start=1):
            yield d, i, inj_vertex.get(d), (inj[i - 1], 0)
        for d in proj:
            while d not in inj_vertex:
                # off the injectives S^{-1} M = tau^{-1} M[-1], so -A^{-1} dim M
                m, d = d, tuple(-x for x in int_mat_vec(self.serre_k_inv, d))
                yield d, None, inj_vertex.get(d), (m, 1)

    def _link(self) -> None:
        """proj/inj ids from the flags; on a Dynkin quiver, the check that
        the dimension vectors are exactly the positive roots: nh/2 distinct
        nonnegative vectors of Tits form 1, as a Dynkin quiver of rank n and
        Coxeter number h has nh/2 positive roots and they are all such
        vectors (Gabriel, Kac)."""
        proj = {e.proj_vertex: e.ident for e in self.entries if e.is_projective}
        inj = {e.inj_vertex: e.ident for e in self.entries if e.is_injective}
        vertices = range(1, self.quiver.n + 1)
        self.proj_ids = [proj[i] for i in vertices]
        self.inj_ids = [inj[i] for i in vertices]
        dyn = self.dynkin
        if dyn is not None and (
                len(self.by_dim) != dyn.rank * dyn.coxeter_number // 2
                or not all(min(d) >= 0 and tits_form(self.quiver, d) == 1 for d in self.by_dim)):
            raise AssertionError("catalog dimension vectors are not the positive roots")

    @property
    def is_complete(self) -> bool:
        return self.dynkin is not None

    def size(self) -> int:
        return len(self.entries)

    # -- Serre steps on catalog ids

    def _image(self, dim, v) -> tuple[int, bool]:
        """The entry |v| for the K-class v = A^p dim M of S^p M, and whether
        v <= 0; a mixed sign has left the cataloged components.  Off Dynkin
        quivers |v| becomes a virtual entry when new; projectives and
        injectives are pre-registered, so `_add` merges a collision back onto
        the flagged entry."""
        negative = all(x <= 0 for x in v)
        if not negative and any(x < 0 for x in v):
            raise CatalogMiss("left the cataloged components at %s" % (dim,))
        if negative:
            v = tuple(-x for x in v)
        target = self.by_dim.get(v) if self.is_complete else self._add(v)
        if target is None:
            raise CatalogMiss("no catalog entry of dimension %s" % (v,))
        return target, negative

    def _step(self, ident: int, sign: int) -> tuple[int, int]:
        """S^sign M = M'[delta] from v = A^sign dim M, memoized.  The K-class
        of S^sign M is v, so v <= 0 means M' = |v| sits one shift over
        (delta = sign) and v >= 0 means delta = 0: the projectives for S,
        the injectives for S^{-1}."""
        dim = self.entries[ident].dim_vector
        target, negative = self._image(
            dim, int_mat_vec(self.serre_k if sign > 0 else self.serre_k_inv, dim))
        self._steps[ident, sign] = target, sign if negative else 0
        return self._steps[ident, sign]

    def serre_step(self, ident: int) -> tuple[int, int]:
        """S(M[k]) = M'[k + delta]: returns (image id, delta)."""
        return self._steps.get((ident, 1)) or self._step(ident, 1)

    def serre_inv_step(self, ident: int) -> tuple[int, int]:
        return self._steps.get((ident, -1)) or self._step(ident, -1)

    def serre_power(self, idents, power: int) -> list[tuple[int, int]]:
        """S^power M = M'[sigma] for each id, by the inverse for negative
        powers.  On a Dynkin component the entry's orbit returns,
        S^p M = M[k] with p <= h: it is walked by `serre_step` on first use
        and memoized, and S^power M is its item power mod p moved by
        (power // p) k.  Elsewhere an orbit crosses P -> I at most once, as
        the preprojective and preinjective components are disjoint: one
        matrix A^power (A^{-1} for negative powers) by repeated squaring,
        and only the images registered.  All steps but at most one shift by
        one, so sigma is power, or power moved one toward 0, whichever
        parity matches the sign of v = A^power dim M, and M' = |v|."""
        if len(self._returning) < self.quiver.n:  # a component off Dynkin
            # squaring: ~9x faster on K2, A~2, D~4 at p <= 240 than stepping
            # each summand's vector p times
            base = self.serre_k if power >= 0 else self.serre_k_inv
            a = [[int(i == j) for j in range(self.quiver.n)] for i in range(self.quiver.n)]
            for bit in bin(abs(power))[2:]:
                a = int_mat_mul(a, a)
                if bit == "1":
                    a = int_mat_mul(a, base)
        toward_zero = (power > 0) - (power < 0)
        out = []
        for ident in idents:
            dim = self.entries[ident].dim_vector
            if ident in self._orbits or any(dim[v] for v in self._returning):
                if ident not in self._orbits:
                    walk, j, s = [], ident, 0
                    while not walk or j != ident:
                        walk.append((j, s))
                        j, d = self.serre_step(j)
                        s += d
                    self._orbits[ident] = walk, s
                walk, k = self._orbits[ident]
                q, r = divmod(power, len(walk))
                out.append((walk[r][0], walk[r][1] + q * k))
            else:
                target, negative = self._image(dim, int_mat_vec(a, dim))
                out.append((target, power if power % 2 == negative else power - toward_zero))
        return out

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


_CATALOGS: dict[Quiver, IndecCatalog] = {}


def catalog_for(q: Quiver, cache_dir: str | None = None, cache_key: str | None = None) -> IndecCatalog:
    """Memoized catalog per quiver value, so a lookup formats no text.
    `cache_dir` and `cache_key` are ignored: perfbench's traced replay still
    passes them, until ROADMAP's benchmark maintenance item drops them."""
    cat = _CATALOGS.get(q)
    if cat is None:
        cat = _CATALOGS[q] = IndecCatalog(q)
    return cat
