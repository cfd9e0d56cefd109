"""End-to-end acceptance checks for the whole library.

Each test exercises one headline numerical claim at its stated tolerance and
prints a single PASS line with the measured margins.  Run directly
(``python3 tests/test_acceptance.py``) for one line per criterion, or through
pytest as part of the suite.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from sdlab import (
    CurveStability,
    DerivedObject,
    GldimTooLarge,
    act,
    catalog_for,
    classify_dynkin,
    coxeter_matrix,
    curve_gldim,
    curve_inf_scan,
    entropy_estimate,
    entropy_profile,
    extract_exceptional_collection,
    genus0_pair_sup,
    genus1_pair_sup,
    gepner_check,
    gepner_construct,
    gldim,
    hom_poincare,
    make_stability,
    mass_growth,
    parse_quiver,
    restrict_to_subquiver,
    sample_stability,
    sdim_estimate,
)
from sdlab.prng import SplitMix64, fold_seed
from sdlab.reps import catalog_reps, exists_mono

TOL = 1e-9


def _report(slug, detail):
    print("PASS %s: %s" % (slug, detail))


def _fraction_det(rows):
    """Exact determinant by fraction-free-ish Gaussian elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        inv = Fraction(1, 1) / m[c][c]
        for r in range(c + 1, n):
            if m[r][c] == 0:
                continue
            f = m[r][c] * inv
            for k in range(c, n):
                m[r][k] -= f * m[c][k]
    return det


def _clockwise(z, eps):
    """Rotate one charge clockwise by eps half-turns."""
    return z * complex(math.cos(math.pi * eps), -math.sin(math.pi * eps))


# 1 ------------------------------------------------------------------------


def test_dynkin_serre_dimension_window():
    """Upper and lower Serre dimensions land within 0.05 of (h-2)/h on the
    small simply laced quivers, with the exact fraction attached."""
    t0 = time.monotonic()
    worst = 0.0
    names = ("A2", "A3", "A4", "A5", "D4", "D5", "E6")
    for name in names:
        q = parse_quiver(name)
        h = classify_dynkin(q).coxeter_number
        target = (h - 2.0) / h
        dims = sdim_estimate(q, n_max=10 * h)
        err_up = abs(dims.upper - target)
        err_lo = abs(dims.lower - target)
        assert err_up <= 0.05, "%s upper off by %g" % (name, err_up)
        assert err_lo <= 0.05, "%s lower off by %g" % (name, err_lo)
        assert dims.exact == Fraction(h - 2, h)
        worst = max(worst, err_up, err_lo)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, "took %.1fs" % elapsed
    _report(
        "dynkin-serre-dimension-window",
        "%d quivers, worst window error %.4f, %.1fs" % (len(names), worst, elapsed),
    )


# 2 ------------------------------------------------------------------------


def test_entropy_linear_in_t():
    """Entropy of the Serre functor on A2 is the line t/3: the profile fit
    recovers slope and intercept, and each grid point matches to 1e-9."""
    q = parse_quiver("A2")
    grid = (-2.0, -1.0, 0.0, 1.0, 2.0)
    prof = entropy_profile(q, grid)
    assert abs(prof.slope - 1.0 / 3.0) <= 0.05
    assert abs(prof.intercept) <= 0.05
    assert prof.residual <= 0.05
    worst = 0.0
    for t in grid:
        err = abs(entropy_estimate(q, t, n_max=30) - t / 3.0)
        assert err <= TOL, "t=%g off by %g" % (t, err)
        worst = max(worst, err)
    _report(
        "entropy-linear-in-t",
        "slope %.6f intercept %.2e residual %.2e pointwise %.1e"
        % (prof.slope, prof.intercept, prof.residual, worst),
    )


# 3 ------------------------------------------------------------------------


def test_gepner_point_values():
    """The constructed fractional Calabi-Yau points have global dimension
    exactly 1 - 2/h and certify their defining functor equation."""
    worst = 0.0
    names = ("A2", "A3", "D4", "E6", "E7", "E8")
    for name in names:
        q = parse_quiver(name)
        h = classify_dynkin(q).coxeter_number
        mu = 1.0 - 2.0 / h
        sigma = gepner_construct(q)
        err = abs(gldim(sigma) - mu)
        assert err <= TOL, "%s gldim off by %g" % (name, err)
        assert gepner_check(sigma, mu).verdict, "%s functor equation fails" % name
        worst = max(worst, err)
    _report("gepner-point-values", "%s, worst gldim error %.1e" % (" ".join(names), worst))


# 4 ------------------------------------------------------------------------


def test_gldim_fundamental_inequality():
    """No stability condition dips below the (h-2)/h floor: 1000 random
    samples per quiver on A2, A3, D4."""
    t0 = time.monotonic()
    total = 0
    violations = 0
    closest = math.inf
    for name in ("A2", "A3", "D4"):
        q = parse_quiver(name)
        h = classify_dynkin(q).coxeter_number
        floor = (h - 2.0) / h
        for seed in range(1000):
            g = gldim(sample_stability(q, seed))
            total += 1
            closest = min(closest, g - floor)
            if g < floor - TOL:
                violations += 1
    elapsed = time.monotonic() - t0
    assert total == 3000
    assert violations == 0, "%d samples below the floor" % violations
    assert elapsed < 60.0, "took %.1fs" % elapsed
    _report(
        "gldim-fundamental-inequality",
        "3000 samples, 0 violations, min slack %.3e, %.1fs" % (closest, elapsed),
    )


# 5 ------------------------------------------------------------------------


def test_gepner_iff_gldim_half():
    """On A3 the global dimension hits its floor 1/2 exactly at the Gepner
    points: rotations keep both sides, jitters break both sides, and 500
    random samples never separate them."""
    q = parse_quiver("A3")
    base = gepner_construct(q)
    pool = [base]
    for k in range(50):
        if k % 5 == 0:
            pool.append(act(base, 0.03 + 0.01 * k))
        else:
            eps = 0.004 * (k % 5)
            j = k % q.n
            z = list(base.z_simples)
            z[j] = _clockwise(z[j], eps)
            pool.append(make_stability(q, z))
    for seed in range(500):
        pool.append(sample_stability(q, seed))
    at_floor = 0
    for sigma in pool:
        near = abs(gldim(sigma) - 0.5) <= TOL
        verdict = gepner_check(sigma, 0.5).verdict
        assert near == verdict, (
            "gldim %.12f but verdict %s" % (gldim(sigma), verdict)
        )
        at_floor += near
    _report(
        "gepner-iff-gldim-half",
        "%d conditions, %d at the floor, equivalence holds both ways"
        % (len(pool), at_floor),
    )


# 6 ------------------------------------------------------------------------


def test_small_gldim_semistability():
    """Global dimension at most 1 forces every indecomposable to be
    semistable; strictly below 1 they are stable and exceptional."""
    checked_le1 = 0
    checked_lt1 = 0
    for name in ("A2", "A3", "D4"):
        q = parse_quiver(name)
        cat = catalog_for(q)
        reps = catalog_reps(cat)
        pool = [
            gepner_construct(q),
            act(gepner_construct(q), 0.1),
            make_stability(q, tuple(1j for _ in range(q.n))),
        ]
        pool.extend(sample_stability(q, seed) for seed in range(200))
        for sigma in pool:
            g = gldim(sigma)
            if g > 1.0 + TOL:
                continue
            checked_le1 += 1
            assert len(sigma.records) == cat.size(), (
                "gldim %.6f yet only %d of %d semistable"
                % (g, len(sigma.records), cat.size())
            )
            if g >= 1.0 - TOL:
                continue
            checked_lt1 += 1
            for r in sigma.records:
                assert cat.hom_dim(r.ident, r.ident) == 1
                assert cat.ext_dim(r.ident, r.ident) == 0
            module_phase = {r.ident: r.phase - r.shift for r in sigma.records}
            for r in sigma.records:
                for s in sigma.records:
                    if s.ident != r.ident and exists_mono(reps[s.ident], reps[r.ident]):
                        assert module_phase[s.ident] < module_phase[r.ident], (
                            "subobject %d not strictly below %d" % (s.ident, r.ident)
                        )
    assert checked_le1 > 0 and checked_lt1 > 0
    _report(
        "small-gldim-semistability",
        "%d conditions with gldim <= 1 all fully semistable, %d strict"
        % (checked_le1, checked_lt1),
    )


# 7 ------------------------------------------------------------------------


def test_exceptional_collection_extraction():
    """Below global dimension 1 the semistables yield a full strong
    exceptional collection whose classes are a unimodular K-theory basis."""
    for name in ("A2", "A3", "A4", "A5", "D4"):
        q = parse_quiver(name)
        cat = catalog_for(q)
        coll = extract_exceptional_collection(gepner_construct(q))
        assert len(coll) == q.n
        objs = [DerivedObject.create(q, [pair]) for pair in coll]
        for i in range(q.n):
            for j in range(q.n):
                pc = hom_poincare(objs[i], objs[j])
                if i == j:
                    assert pc == {0: 1}, "%s entry %d not exceptional" % (name, i)
                elif i < j:
                    assert set(pc) <= {0}, (
                        "%s pair (%d,%d) has maps outside degree 0" % (name, i, j)
                    )
                else:
                    assert pc == {}, "%s has backward maps (%d,%d)" % (name, i, j)
        rows = [
            [Fraction(((-1) ** k) * d) for d in cat.entries[ident].dim_vector]
            for ident, k in coll
        ]
        assert abs(_fraction_det(rows)) == 1, "%s K-classes not unimodular" % name
    q2 = parse_quiver("A2")
    for z in ((1j, 1j), (1 + 1j, -1 + 1j)):
        with pytest.raises(GldimTooLarge):
            extract_exceptional_collection(make_stability(q2, z))
    _report(
        "exceptional-collection-extraction",
        "A2 A3 A4 A5 D4 all unitriangular, strong, unimodular; large gldim rejected",
    )


# 8 ------------------------------------------------------------------------


def test_restriction_semicontinuity():
    """Restricting to a full connected subquiver never raises the global
    dimension, and the exact Serre dimensions grow along A2 < A3 < A4."""
    q = parse_quiver("A4")
    base = gepner_construct(q)
    gen = SplitMix64(fold_seed("acceptance-restriction", q.text()))
    pool = [base]
    while len(pool) < 100:
        z = [_clockwise(zi, 0.03 * gen.next_float()) for zi in base.z_simples]
        sigma = make_stability(q, z)
        if gldim(sigma) <= 1.0 + TOL:
            pool.append(sigma)
    worst = -math.inf
    for sigma in pool:
        g = gldim(sigma)
        for subset in ((1, 2), (1, 2, 3)):
            sub = restrict_to_subquiver(sigma, subset)
            gap = gldim(sub) - g
            worst = max(worst, gap)
            assert gap <= TOL, "restriction to %s raised gldim by %g" % (subset, gap)
    chain = [sdim_estimate(parse_quiver(n)).exact for n in ("A2", "A3", "A4")]
    assert chain == [Fraction(1, 3), Fraction(1, 2), Fraction(3, 5)]
    assert chain[0] < chain[1] < chain[2]
    _report(
        "restriction-semicontinuity",
        "100 conditions x 2 subquivers, max gldim increase %.3e; exact chain 1/3 < 1/2 < 3/5"
        % worst,
    )


# 9 ------------------------------------------------------------------------


def test_mass_growth_bounds():
    """Mass of the generator under Serre iteration grows no faster than the
    entropy, with phase growth pinned near 1/3 and volume exponent 1/3."""
    q = parse_quiver("A2")
    sigma = gepner_construct(q)
    grid = (-2.0, 0.0, 2.0)
    mg = mass_growth(sigma, grid, n_max=30)
    worst = -math.inf
    for t, rate in zip(mg.t_grid, mg.rates):
        gap = rate - entropy_estimate(q, t, n_max=30)
        worst = max(worst, gap)
        assert gap <= 1e-6, "rate exceeds entropy at t=%g by %g" % (t, gap)
    assert abs(mg.phase_upper - 1.0 / 3.0) <= 0.05
    lams = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
    mg2 = mass_growth(sigma, tuple(math.log(l) for l in lams), n_max=30)
    slope = float(np.polyfit(np.log(lams), np.array(mg2.rates), 1)[0])
    assert abs(slope - 1.0 / 3.0) <= 0.05
    _report(
        "mass-growth-bounds",
        "max rate-entropy gap %.2e, phase upper %.4f, volume exponent %.4f"
        % (worst, mg.phase_upper, slope),
    )


# 10 -----------------------------------------------------------------------


def test_curve_global_dimension():
    """Curves: genus 0 and 1 sit exactly at global dimension 1, higher genus
    strictly above with the closed-form interval, shrinking as H grows."""
    t0 = time.monotonic()
    assert curve_gldim(CurveStability(genus=0, beta=0.0, H=1.0)) == (1.0, 1.0)
    assert curve_gldim(CurveStability(genus=1, beta=0.0, H=1.0)) == (1.0, 1.0)
    sup0 = genus0_pair_sup(CurveStability(genus=0, beta=0.0, H=1.0))
    sup1 = genus1_pair_sup(CurveStability(genus=1, beta=0.0, H=1.0))
    assert 0.99 < sup0 < 1.0
    assert 0.99 < sup1 < 1.0
    lo, up = curve_gldim(CurveStability(genus=2, beta=0.0, H=1.0))
    assert abs(lo - 1.3524) <= 1e-3
    assert abs(up - 1.5) <= 1e-3
    h_grid = np.logspace(-1, 3, 25)
    rows = curve_inf_scan(2, h_grid)
    assert all(lo_ > 1.0 for _, lo_, _ in rows)
    assert rows[-1][2] <= 1.001
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, "took %.1fs" % elapsed
    _report(
        "curve-global-dimension",
        "pair sups %.6f / %.6f, genus-2 interval [%.4f, %.4f], inf -> 1 as H grows"
        % (sup0, sup1, lo, up),
    )


# 11 -----------------------------------------------------------------------


def test_kronecker_sdim_entropy():
    """The 2-Kronecker quiver has Serre dimension exactly 1 on both sides,
    as every connected non-Dynkin quiver does, and its entropy at t=0 is the
    K-theory spectral growth of the Coxeter action (whose matrix is
    unipotent, so the spectral rate is 0)."""
    q = parse_quiver("K2")
    dims = sdim_estimate(q, n_max=30)
    assert dims.upper == 1.0 and dims.lower == 1.0
    assert dims.exact == Fraction(1)
    phi = np.array(coxeter_matrix(q).coxeter, dtype=float)
    oracle = math.log(float(np.max(np.abs(np.linalg.eigvals(phi)))))
    assert abs(oracle) < 1e-6  # both eigenvalues are 1
    est = entropy_estimate(q, 0.0, n_max=30)
    gap = abs(est - oracle)
    assert gap <= 1e-12, "entropy %.6f vs spectral rate %.6f" % (est, oracle)
    _report(
        "kronecker-sdim-entropy",
        "sdim [%.4f, %.4f] exact %s, h_0 %.6f vs spectral rate %.2e (gap %.1e)"
        % (dims.lower, dims.upper, dims.exact, est, oracle, gap),
    )


_ALL = [
    test_dynkin_serre_dimension_window,
    test_entropy_linear_in_t,
    test_gepner_point_values,
    test_gldim_fundamental_inequality,
    test_gepner_iff_gldim_half,
    test_small_gldim_semistability,
    test_exceptional_collection_extraction,
    test_restriction_semicontinuity,
    test_mass_growth_bounds,
    test_curve_global_dimension,
    test_kronecker_sdim_entropy,
]


if __name__ == "__main__":
    import sys
    import traceback

    failures = 0
    for fn in _ALL:
        try:
            fn()
        except Exception:
            failures += 1
            print("FAIL %s" % fn.__name__.replace("test_", "").replace("_", "-"))
            traceback.print_exc()
    sys.exit(1 if failures else 0)
