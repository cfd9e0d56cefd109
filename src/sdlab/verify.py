"""Cross-checks tying the layers of the package together.

Every check recomputes one identity two independent ways and reports a
margin: the worst slack observed (positive means the check held with room,
zero is exact agreement for discrete checks).  These are the invariants a
user should see hold before trusting larger runs.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .catalog import catalog_for
from .curves import CurveStability, curve_gldim, curve_gldim_bounds, shift_gap_grid
from .derived import DerivedObject, hom_poincare, serre_apply, standard_generator
from .entropy import entropy_estimate, sdim_estimate, volume
from .errors import ConfigError
from .prng import SplitMix64, fold_seed
from .quivers import classify_dynkin, coxeter_matrix, euler_form, parse_quiver
from .stability import (
    act,
    extract_exceptional_collection,
    gepner_check,
    gepner_construct,
    gldim,
    make_stability,
    mass_growth,
    sample_stability,
    slicing_gap,
)

DEFAULT_QUIVERS = ("A2", "A3", "D4")


class CheckResult(namedtuple("CheckResult", "name passed margin detail")):
    __slots__ = ()
    name: str
    passed: bool
    margin: float
    detail: str


class VerifySummary(namedtuple("VerifySummary", "results all_passed worst_margin")):
    __slots__ = ()
    results: tuple
    all_passed: bool
    worst_margin: float


def _result(name, passed, margin, detail) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), margin=float(margin), detail=detail)


def check_euler_form_random_agreement(parsed, seed) -> CheckResult:
    """Double-sum Euler form against the matrix bilinear form, on every
    (name, quiver) pair."""
    bad = 0
    total = 0
    for name, q in parsed:
        e = coxeter_matrix(q).euler
        gen = SplitMix64(fold_seed("euler-check", seed, name))
        for _ in range(50):
            d = [gen.next_int(0, 9) for _ in range(q.n)]
            f = [gen.next_int(0, 9) for _ in range(q.n)]
            lhs = euler_form(q, d, f)
            rhs = sum(
                d[i] * e[i][j] * f[j] for i in range(q.n) for j in range(q.n)
            )
            total += 1
            if lhs != rhs:
                bad += 1
    return _result(
        "euler-form-random-agreement", bad == 0, float(bad == 0),
        "%d/%d pairs agree" % (total - bad, total),
    )


def check_coxeter_tau_action(dynkin) -> CheckResult:
    """The Serre step's tau M, read off the Coxeter action on K-classes,
    against the reflection-functor translate of the knitted representation,
    on every nonprojective entry."""
    from . import reps  # the exact oracle, looked up when the check runs

    bad = 0
    total = 0
    for _, q, _ in dynkin:
        cat = catalog_for(q)
        knitted = reps.catalog_reps(cat)
        for e in cat.entries:
            if e.is_projective:
                continue
            total += 1
            tau_id, delta = cat.serre_step(e.ident)
            image = reps.ar_translate(knitted[e.ident], "forward")
            if delta != 1 or image is None or image.dim_vector != cat.entries[tau_id].dim_vector:
                bad += 1
    return _result(
        "coxeter-tau-action", bad == 0, float(bad == 0),
        "%d/%d translates agree" % (total - bad, total),
    )


def check_serre_duality_modules(dynkin) -> CheckResult:
    """ext1(M, N) = hom(N, tau M) over all pairs with M nonprojective, and
    ext1(M, N) = 0 for M projective.  Ext is solved on the knitted
    representations; the catalog's Euler-form tables give Hom, so the two
    sides are computed independently."""
    from . import reps  # the exact oracle, looked up when the check runs

    bad = 0
    total = 0
    for _, q, _ in dynkin:
        cat = catalog_for(q)
        knitted = reps.catalog_reps(cat)
        for a in range(cat.size()):
            for b in range(cat.size()):
                ea = cat.entries[a]
                ext = reps.ext1_dim(knitted[a], knitted[b])
                total += 1
                if ea.is_projective:
                    ok = ext == 0
                else:
                    ok = ext == cat.hom_dim(b, cat.serre_step(a)[0])
                if not ok:
                    bad += 1
    return _result(
        "serre-duality-module-level", bad == 0, float(bad == 0),
        "%d/%d pairs agree" % (total - bad, total),
    )


def check_dynkin_periodicity(dynkin) -> CheckResult:
    """S^h G = G[h-2] as derived objects."""
    bad = []
    for name, q, dyn in dynkin:
        g = standard_generator(q)
        if serre_apply(g, dyn.coxeter_number) != g.shift(dyn.coxeter_number - 2):
            bad.append(name)
    return _result(
        "dynkin-serre-periodicity", not bad, float(not bad),
        "failures: %s" % (bad if bad else "none"),
    )


def check_poincare_serre_duality(dynkin, seed) -> CheckResult:
    """dim Hom(X, Y[m]) = dim Hom(Y, S X [-m]) on random shifted objects."""
    bad = 0
    total = 0
    for name, q, _ in dynkin:
        cat = catalog_for(q)
        gen = SplitMix64(fold_seed("poincare-duality", seed, name))
        for _ in range(20):
            x = DerivedObject.create(
                q,
                [
                    (gen.next_int(0, cat.size() - 1), gen.next_int(-2, 2))
                    for _ in range(gen.next_int(1, 3))
                ],
            )
            y = DerivedObject.create(
                q,
                [
                    (gen.next_int(0, cat.size() - 1), gen.next_int(-2, 2))
                    for _ in range(gen.next_int(1, 3))
                ],
            )
            lhs = hom_poincare(x, y)
            rhs = hom_poincare(y, serre_apply(x, 1))
            total += 1
            if lhs != {-m: v for m, v in rhs.items()}:
                bad += 1
    return _result(
        "poincare-serre-duality", bad == 0, float(bad == 0),
        "%d/%d object pairs agree" % (total - bad, total),
    )


def check_fundamental_inequality(dynkin, samples, seed) -> CheckResult:
    """gldim(sigma) >= (h-2)/h on every sampled stability condition."""
    worst = math.inf
    worst_at = ""
    for name, q, dyn in dynkin:
        bound = (dyn.coxeter_number - 2) / dyn.coxeter_number
        for k in range(samples):
            sigma = sample_stability(q, fold_seed(seed, name, k))
            margin = gldim(sigma) - bound
            if margin < worst:
                worst = margin
                worst_at = "%s sample %d" % (name, k)
    return _result(
        "gldim-fundamental-inequality", worst >= -1e-9, worst,
        "worst slack %.3e at %s" % (worst, worst_at),
    )


def check_gepner_points(points, samples, seed) -> CheckResult:
    """gepner_check verdict is an iff at desk scale: true on the constructed
    point and its rotations, false on angular perturbations that are not
    the C-action (one complex multiple of every charge)."""
    failures = []
    for name, q, dyn, sigma in points:
        h = dyn.coxeter_number
        mu = (h - 2) / h
        if not gepner_check(sigma, mu).verdict:
            failures.append("%s: constructed point rejected" % name)
        gen = SplitMix64(fold_seed("gepner-battery", seed, name))
        for k in range(max(1, samples // 10)):
            nu = gen.next_float() * 0.5 - 0.25
            rotated = act(sigma, nu)
            if not gepner_check(rotated, mu).verdict:
                failures.append("%s: rotation %d rejected" % (name, k))
        for k in range(max(1, samples // 10)):
            # negative angular jitter keeps every charge inside the heart
            z = [
                zi * (1.0 + 0.5 * gen.next_float())
                * complex(math.cos(-0.02 * (1 + gen.next_float())), math.sin(-0.02 * (1 + gen.next_float())))
                if zi.imag > 1e-12
                else zi * (1.0 + 0.5 * gen.next_float())
                for zi in sigma.z_simples
            ]
            jittered = make_stability(q, z)
            if gepner_check(jittered, mu).verdict and not _complex_multiple(z, sigma.z_simples):
                failures.append("%s: jitter %d accepted" % (name, k))
    return _result(
        "gepner-check-iff", not failures, float(not failures),
        "failures: %s" % (failures if failures else "none"),
    )


def _complex_multiple(z, w) -> bool:
    """Is z = c w for one complex c?  The jitter then acts as C does, which
    keeps a Gepner point one."""
    k = max(range(len(w)), key=lambda i: abs(w[i]))
    c = z[k] / w[k]
    scale = max(abs(zi) for zi in z)
    return all(abs(zi - c * wi) <= 1e-9 * scale for zi, wi in zip(z, w))


def check_all_semistable_small_gldim(points) -> CheckResult:
    """Global dimension at most 1 forces every indecomposable semistable."""
    bad = []
    margin = math.inf
    for name, q, _, sigma in points:
        g = gldim(sigma)
        cat = catalog_for(q)
        if g <= 1.0 + 1e-9:
            margin = min(margin, 1.0 - g)
            if len(sigma.records) != cat.size():
                bad.append(name)
    return _result(
        "all-semistable-at-gldim-le-1", not bad,
        margin if margin < math.inf else 0.0,
        "failures: %s" % (bad if bad else "none"),
    )


def check_exceptional_collections(points) -> CheckResult:
    """Extraction yields a full strong collection: unitriangular Gram matrix
    with unit diagonal and determinant +-1 in K-theory."""
    bad = []
    for name, q, _, sigma in points:
        if gldim(sigma) >= 1.0 - 1e-9:
            continue
        cat = catalog_for(q)
        coll = extract_exceptional_collection(sigma)
        if len(coll) != q.n:
            bad.append("%s: wrong length" % name)
            continue
        dims = [cat.entries[i].dim_vector for i, _ in coll]
        rows = cat.chi_rows()
        gram = [[rows[a][b] for b, _ in coll] for a, _ in coll]
        for i in range(q.n):
            if gram[i][i] != 1:
                bad.append("%s: diagonal" % name)
            for j in range(i):
                if gram[i][j] != 0:
                    bad.append("%s: not unitriangular" % name)
        det = _int_det([list(d) for d in dims])
        if abs(det) != 1:
            bad.append("%s: det %d" % (name, det))
        for idx1, (a, ka) in enumerate(coll):
            for idx2, (b, kb) in enumerate(coll):
                if idx1 == idx2:
                    continue
                c = rows[a][b]
                if c > 0 and kb != ka:
                    bad.append("%s: hom not in degree 0" % name)
                if c < 0 and kb != ka + 1:
                    bad.append("%s: ext not in degree 0 after shift" % name)
    return _result(
        "stable-exceptional-collection", not bad, float(not bad),
        "failures: %s" % (bad if bad else "none"),
    )


def _int_det(rows) -> int:
    """Determinant by exact elimination over Fractions; 0 when singular."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = None
        for r2 in range(c, n):
            if a[r2][c] != 0:
                piv = r2
                break
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = Fraction(1) / a[c][c]
        for r2 in range(c + 1, n):
            if a[r2][c]:
                f = a[r2][c] * inv
                a[r2] = [x - f * y for x, y in zip(a[r2], a[c])]
    assert det.denominator == 1
    return int(det)


def check_serre_image_phase_window(points) -> CheckResult:
    """On an all-semistable sigma, phases move under the Serre functor by at
    most gldim and by more than -1."""
    worst = math.inf
    for _, q, _, sigma in points:
        g = gldim(sigma)
        cat = catalog_for(q)
        by_ident = {r.ident: r for r in sigma.records}
        for r in sigma.records:
            ident2, delta = cat.serre_step(r.ident)
            r2 = by_ident.get(ident2)
            if r2 is None:
                continue
            phase_image = r2.phase + (r.shift + delta - r2.shift)
            gap = phase_image - r.phase
            worst = min(worst, g - gap + 1e-12, gap + 1.0)
    return _result(
        "serre-image-phase-window", worst >= -1e-9, worst,
        "worst slack %.3e" % worst,
    )


def check_mass_growth_vs_entropy(points, n_max=30) -> CheckResult:
    """Mass growth of S^n G under sigma never exceeds categorical entropy."""
    worst = math.inf
    ts = [-1.0, 0.0, 0.5, 1.0, 2.0]
    for _, q, _, sigma in points:
        mg = mass_growth(sigma, ts, n_max)
        for t, rate in zip(ts, mg.rates):
            h = entropy_estimate(q, t, n_max)
            worst = min(worst, h - rate + 1e-6)
    return _result(
        "mass-growth-le-entropy", worst >= 0.0, worst,
        "worst slack %.3e over t grid" % worst,
    )


def check_volume_scaling(points, n_max=30) -> CheckResult:
    """exp(mass growth at log lambda) matches the volume estimator on
    fractional Calabi-Yau points."""
    worst = 0.0
    for _, q, _, sigma in points:
        for lam in (0.5, 2.0, 8.0):
            mg = mass_growth(sigma, [math.log(lam)], n_max)
            v1 = math.exp(mg.rates[0])
            v2 = volume(q, lam, n_max)
            worst = max(worst, abs(v1 - v2))
    return _result(
        "sigma-volume-scaling", worst <= 1e-6, 1e-6 - worst,
        "max deviation %.3e" % worst,
    )


def check_action_composition(points, seed) -> CheckResult:
    """Rotation actions compose additively; Serre commutes with rotations."""
    worst = 0.0
    for name, _, _, sigma in points:
        gen = SplitMix64(fold_seed("action-laws", seed, name))
        for _ in range(10):
            mu = gen.next_float() - 0.5
            nu = gen.next_float() - 0.5
            one = act(act(sigma, mu), nu)
            two = act(sigma, mu + nu)
            worst = max(worst, _sigma_distance(one, two))
            three = act(act(sigma, mu), "serre")
            four = act(act(sigma, "serre"), mu)
            worst = max(worst, _sigma_distance(three, four))
    return _result(
        "action-composition-laws", worst <= 1e-9, 1e-9 - worst,
        "max record/charge deviation %.3e" % worst,
    )


def _sigma_distance(a, b) -> float:
    if a.quiver != b.quiver:
        return math.inf
    d = max(abs(x - y) for x, y in zip(a.z_simples, b.z_simples))
    return max(d, slicing_gap(a, b))


def check_heart_window_integrity(points, samples, seed) -> CheckResult:
    """Record phases stay in (0, 1] and the record count is preserved under
    random rotations."""
    bad = 0
    total = 0
    for name, _, _, sigma in points:
        count = len(sigma.records)
        gen = SplitMix64(fold_seed("heart-window", seed, name))
        cur = sigma
        for _ in range(max(5, samples // 10)):
            cur = act(cur, gen.next_float() * 2.0 - 1.0)
            total += 1
            if len(cur.records) != count:
                bad += 1
            if any(not (0.0 < r.phase <= 1.0 + 1e-9) for r in cur.records):
                bad += 1
    return _result(
        "heart-window-integrity", bad == 0, float(bad == 0),
        "%d/%d action steps clean" % (total - bad, total),
    )


def check_curve_bounds() -> CheckResult:
    """Interval sanity on curves: lower <= upper, genus 0 and 1 pinned at 1,
    upper decreasing in H with limit 1."""
    ok = True
    details = []
    lo1, up1 = curve_gldim(CurveStability(genus=1, beta=0.3, H=2.0))
    if (lo1, up1) != (1.0, 1.0):
        ok = False
        details.append("genus 1 not pinned")
    margin = math.inf
    prev = math.inf
    for h in (1.0, 10.0, 100.0, 1000.0):
        lo, up = curve_gldim_bounds(CurveStability(genus=2, beta=0.0, H=h))
        margin = min(margin, up - lo)
        if up > prev + 1e-12 or up < 1.0:
            ok = False
            details.append("upper not decreasing at H=%g" % h)
        prev = up
    return _result(
        "curve-bounds-grid", ok and margin >= 0.0, margin,
        "; ".join(details) if details else "interval width min %.3e" % margin,
    )


def check_curve_shift_sup() -> CheckResult:
    """Numeric grid max of the twist-gap function agrees with the arccot
    closed form for the upper bound."""
    import numpy as np

    worst = 0.0
    for g, h in ((2, 1.0), (3, 1.0), (2, 10.0)):
        _, up = curve_gldim_bounds(CurveStability(genus=g, beta=0.0, H=h))
        grid = np.linspace(g - 1.0 - 5.0, g - 1.0 + 5.0, 200001)
        mx = float(shift_gap_grid(g, h, grid).max())
        if mx > up + 1e-12:
            return _result("curve-shift-sup-numeric", False, up - mx,
                           "grid exceeded closed form")
        worst = max(worst, up - mx)
    return _result(
        "curve-shift-sup-numeric", worst <= 1e-6, 1e-6 - worst,
        "closed form above grid max by at most %.3e" % worst,
    )


def check_sdim_window(dynkin, n_max=30) -> CheckResult:
    """Windowed Serre-dimension estimates bracket the exact Dynkin value."""
    worst = math.inf
    for _, q, _ in dynkin:
        sd = sdim_estimate(q, n_max)
        exact = float(sd.exact)
        worst = min(
            worst,
            0.05 - abs(sd.upper - exact),
            0.05 - abs(sd.lower - exact),
            sd.upper - sd.lower + 1e-12,
        )
    return _result(
        "sdim-window-brackets-exact", worst >= 0.0, worst,
        "worst slack %.3e" % worst,
    )


def run_all(quivers=DEFAULT_QUIVERS, samples: int = 50, seed: int = 2026) -> VerifySummary:
    """Every check over the named quivers.  A sample count below 1 or no
    Dynkin quiver is a ConfigError: the checks would pass on nothing.  All
    names are parsed, then all classified, then each Dynkin quiver's Gepner
    point is built once, so a ParseError comes before a DisconnectedQuiver
    and both before a HeartMismatch, whatever the order of the names."""
    if samples < 1:
        raise ConfigError("samples must be at least 1")
    parsed = [(name, parse_quiver(name)) for name in quivers]
    classes = [(name, q, classify_dynkin(q)) for name, q in parsed]
    dynkin = [entry for entry in classes if entry[2] is not None]
    if not dynkin:
        raise ConfigError("verify needs at least one Dynkin quiver")
    points = [(name, q, dyn, gepner_construct(q)) for name, q, dyn in dynkin]
    results = [
        check_euler_form_random_agreement(parsed, seed),
        check_coxeter_tau_action(dynkin),
        check_serre_duality_modules(dynkin),
        check_dynkin_periodicity(dynkin),
        check_poincare_serre_duality(dynkin, seed),
        check_sdim_window(dynkin),
        check_fundamental_inequality(dynkin, samples, seed),
        check_gepner_points(points, samples, seed),
        check_all_semistable_small_gldim(points),
        check_exceptional_collections(points),
        check_serre_image_phase_window(points),
        check_mass_growth_vs_entropy(points),
        check_volume_scaling(points),
        check_action_composition(points, seed),
        check_heart_window_integrity(points, samples, seed),
        check_curve_bounds(),
        check_curve_shift_sup(),
    ]
    all_passed = all(r.passed for r in results)
    worst = min(r.margin for r in results)
    return VerifySummary(results=tuple(results), all_passed=all_passed, worst_margin=worst)
