"""Explicit quiver representations with integer matrices: the exact oracle.

Hom spaces are computed by solving the commuting-square linear system, the
AR translate by sink/source reflection-functor sweeps, and the catalog's
modules by knitting the tau-inverse orbits of the projectives.  The runtime
catalog (`catalog.py`) works with dimension vectors only and never calls
this module; the tests and two `verify` checks use it as an oracle.
Every map is an integer matrix (`exactmat`), and every rank and kernel
comes from one fraction-free elimination, so everything here is exact with
no Fraction and no float.
"""

from __future__ import annotations

from collections import namedtuple

from . import exactmat as xm
from .catalog import IndecCatalog
from .errors import NotIndecomposable, QuiverMismatch
from .prng import SplitMix64, fold_seed
from .quivers import Quiver, euler_form


class Representation(namedtuple("Representation", "quiver dim_vector arrow_maps")):
    """arrow_maps[a] has shape (dim[target], dim[source]) for arrow a."""

    __slots__ = ()

    def __new__(cls, quiver: Quiver, dim_vector: tuple[int, ...], arrow_maps: tuple[xm.Mat, ...]):
        if len(dim_vector) != quiver.n or len(arrow_maps) != len(quiver.arrows):
            raise ValueError("representation data does not match quiver")
        for (s, t), m in zip(quiver.arrows, arrow_maps):
            if (m.rows, m.cols) != (dim_vector[t - 1], dim_vector[s - 1]):
                raise ValueError("arrow map shape mismatch at %d->%d" % (s, t))
        return super().__new__(cls, quiver, dim_vector, arrow_maps)

    def total_dim(self) -> int:
        return sum(self.dim_vector)

    def is_zero(self) -> bool:
        return self.total_dim() == 0


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
        m = [[0] * len(src) for _ in range(len(tgt))]
        for c, p in enumerate(src):
            m[pos[p + (idx,)]][c] = 1
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
        m = [[0] * len(src) for _ in range(len(tgt))]
        for r, p in enumerate(tgt):
            c = pos.get(p + (idx,))
            if c is not None:
                m[r][c] = 1
        maps.append(xm.Mat(len(tgt), len(src), m))
    return Representation(q, dims, tuple(maps))


class HomSpace(namedtuple("HomSpace", "dim basis")):
    __slots__ = ()
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
    rows: list[list[int]] = []
    for idx, (s, t) in enumerate(q.arrows):
        s -= 1
        t -= 1
        na, ma = n.arrow_maps[idx], m.arrow_maps[idx]
        for r in range(dn[t]):
            for c in range(dm[s]):
                row = [0] * total
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


# ------------------------------------------------------- knitted catalog reps

_KNITTED: dict[Quiver, list[Representation | None]] = {}


def catalog_reps(cat: IndecCatalog) -> list[Representation | None]:
    """Explicit representations of the catalog's entries, indexed by id.

    On a Dynkin quiver each tau-inverse orbit is knitted from its projective
    by reflection-functor sweeps, and every sweep's dimension vector is
    checked against the catalog's Coxeter walk.  Other quivers get their
    projectives and injectives; virtual entries get None.  Memoized per
    quiver: every catalog of a quiver shares its non-virtual ids.
    """
    q = cat.quiver
    if q not in _KNITTED:
        reps: list[Representation | None] = [None] * cat.size()
        for i, ident in enumerate(cat.proj_ids, start=1):
            cur = reps[ident] = projective_rep(q, i)
            while cat.is_complete and not cat.entries[ident].is_injective:
                cur = _coxeter_sweep(cur, inverse=True)
                ident, _ = cat.serre_inv_step(ident)
                if cur.dim_vector != cat.entries[ident].dim_vector:
                    raise AssertionError("knitting does not match Coxeter action")
                reps[ident] = cur
        for j, ident in enumerate(cat.inj_ids, start=1):
            if reps[ident] is None:
                reps[ident] = injective_rep(q, j)
        _KNITTED[q] = reps
    return _KNITTED[q]
