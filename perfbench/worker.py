"""Child process of the benchmark: one fresh interpreter per call.

    python perfbench/worker.py '<json config>'

`kind` selects what the child runs:

- `landscape-warm`: set-up (catalogs, Gepner points, table fill) then one pass
  of seeded `sample_stability` + `gldim` ops;
- `estimators`: set-up (catalogs) then one pass of entropy studies and
  curve ops;
- `replay`: the public-call sequence of one `cli-cold` command.

The child prints one JSON object as its last stdout line.  It imports sdlab
from PYTHONPATH, which the parent points at the checkout's `src`.
"""

from __future__ import annotations

import inspect
import json
import math
import random
import resource
import sys
import time
import traceback
from functools import partial

from calib import Speedometer
from tracer import Tracer

LANDSCAPE_QUIVERS = ("A3", "E6", "D8")
LANDSCAPE_SAMPLES = 1000  # per quiver and pass

ESTIMATOR_QUIVERS = (
    ("A4", "A4"), ("A8", "A8"), ("D6", "D6"), ("D8", "D8"),
    ("E6", "E6"), ("E7", "E7"), ("E8", "E8"), ("K2", "K2"),
    ("A~2", "vertices:3; arrows:1->2,2->3,1->3"),
    ("D~4", "vertices:5; arrows:2->1,3->1,4->1,5->1"),
    ("K3", "K3"), ("K4", "K4"), ("K5", "K5"),
)
ESTIMATOR_N_MAX = (30, 60, 120, 240)
T_GRID = (-2.0, -1.0, 0.0, 1.0, 2.0)
CURVE_GENERA = (2, 3, 5, 10)
CURVE_H_GRID = (0.5, 1.0, 10.0, 100.0, 1000.0)
PAIR_H = (0.5, 1.0, 4.0)
SHIFT_GENUS = 2
SHIFT_GRID_POINTS = 20001

OP_CAP_S = 30.0  # an in-process op slower than this counts as failed
TOL = 1e-9


def log_rho(name: str) -> float:
    """log of the Coxeter spectral radius: 0 on the tame quivers, and
    log((m^2 - 2 + m sqrt(m^2 - 4)) / 2) on the m-Kronecker quiver."""
    if name.startswith("K"):
        m = int(name[1:])
        return math.log((m * m - 2 + m * math.sqrt(m * m - 4)) / 2)
    return 0.0


class OpLog:
    """Times each op, keeps failed ones with their time, never drops any.
    Calibration bursts run between ops, outside their times."""

    def __init__(self, tr: Tracer, sp: Speedometer):
        self.tr = tr
        self.sp = sp
        self.rows = []  # [name, seconds, ok, wrong, detail]

    def run(self, name: str, fn) -> None:
        """fn returns None on success or the reason its answer is wrong;
        an exception is a failed op with no wrong answer."""
        self.sp.tick()
        self.tr.op_id = len(self.rows)
        wrong = False
        t0 = time.perf_counter()
        try:
            with self.tr.span("bench.op." + name):
                detail = fn()
            wrong = detail is not None
        except Exception as exc:  # an op boundary: record and keep going
            detail = "%s: %s" % (type(exc).__name__, exc)
            if not _is_domain_error(exc):
                detail += " | " + traceback.format_exc(limit=3).replace("\n", " ")
        dt = time.perf_counter() - t0
        self.tr.op_id = None
        if detail is None and dt > OP_CAP_S:
            detail = "exceeded the %.0f s cap" % OP_CAP_S
        self.rows.append([name, dt, detail is None, wrong, detail])


def _is_domain_error(exc: Exception) -> bool:
    return any(c.__name__ == "SdlabError" for c in type(exc).__mro__)


def _import(tr: Tracer):
    with tr.span("cli.import"):
        import sdlab
    return sdlab


def _prepare(tr: Tracer, sd, text: str):
    """parse, classify, roots (Dynkin only) and the first catalog_for."""
    q = tr.call("quivers.parse_quiver", sd.parse_quiver, text)
    dyn = tr.call("quivers.classify_dynkin", sd.classify_dynkin, q)
    if dyn is not None:
        roots = tr.call("quivers.positive_roots", sd.positive_roots, q)
    cat = tr.call("reps.catalog_for", sd.catalog_for, q)
    if dyn is not None and cat.size() != len(roots):
        raise AssertionError("catalog of %s has %d entries for %d roots" % (text, cat.size(), len(roots)))
    tr.count("reps.catalog_size", cat.size())
    return q, dyn, cat


def _twice(tr: Tracer, name: str, fn, *args):
    """Call fn cold, then warm, back to back; the difference is the table
    fill the first call paid.  The warm call is not part of any command."""
    t0 = time.perf_counter()
    tr.call(name + "#cold", fn, *args)
    t1 = time.perf_counter()
    out = tr.call(name, fn, *args)
    t2 = time.perf_counter()
    tr.count("reps.table_fill_s", max(0.0, (t1 - t0) - (t2 - t1)))
    tr.count("dup_s", t2 - t1)
    return out


# ------------------------------------------------------------ landscape


def landscape(cfg: dict, tr: Tracer, sp: Speedometer) -> dict:
    sd = _import(tr)
    quivers = cfg.get("quivers", LANDSCAPE_QUIVERS)
    samples = cfg.get("samples", LANDSCAPE_SAMPLES)
    setup_fail = []
    prepared = []
    for name in quivers:
        q, dyn, cat = _prepare(tr, sd, name)
        floor = (dyn.coxeter_number - 2) / dyn.coxeter_number
        sigma = _twice(tr, "stability.gepner_construct", sd.gepner_construct, q)
        g = _twice(tr, "stability.gldim", sd.gldim, sigma)
        if abs(g - floor) > TOL:
            setup_fail.append("%s Gepner gldim %r != %r" % (name, g, floor))
        tr.call("stability.act", sd.act, sigma, "serre")
        tr.call("stability.act", sd.act, sigma, floor)
        if not tr.call("stability.gepner_check", sd.gepner_check, sigma, floor).verdict:
            setup_fail.append("%s gepner_check verdict false" % name)
        again = tr.call("stability.make_stability", sd.make_stability, q, sigma.z_simples)
        if again.records != sigma.records:
            setup_fail.append("%s make_stability does not reproduce the Gepner records" % name)
        if name == "A3":
            # the subquiver that restrict_to_subquiver(1..n-1) lands on
            sub = tr.call("stability.restrict_to_subquiver", sd.restrict_to_subquiver,
                          sigma, range(1, q.n))
            sub_sigma = _twice(tr, "stability.gepner_construct", sd.gepner_construct, sub.quiver)
            _twice(tr, "stability.gldim", sd.gldim, sub_sigma)
        prepared.append((name, q, cat, floor))
        sp.tick()
    ready = time.monotonic()
    setup_bursts = sp.spent

    # the quivers take turns, so that each one's ops spread over the pass
    rng = random.Random("landscape:%d:%d" % (cfg["seed"], cfg["index"]))
    todo = [("landscape-" + name, partial(_landscape_op, tr, sd, q, cat, floor, rng.getrandbits(63)))
            for _ in range(samples) for name, q, cat, floor in prepared]
    log = OpLog(tr, sp)
    t0 = time.perf_counter()
    for name, fn in todo:
        log.run(name, fn)
    wall = time.perf_counter() - t0 - (sp.spent - setup_bursts)
    return {"ready": ready, "setup_bursts": setup_bursts, "wall": wall, "ops": log.rows,
            "setup_fail": setup_fail}


def _landscape_op(tr: Tracer, sd, q, cat, floor: float, seed: int):
    sigma = tr.call("stability.sample_stability", sd.sample_stability, q, seed)
    g = tr.call("stability.gldim", sd.gldim, sigma)
    tr.count("stability.records", len(sigma.records))
    tr.count("stability.catalog_entries", cat.size())
    tr.count("stability.gldim_pairs", len(sigma.records) ** 2)
    if g < floor - TOL:
        return "gldim %r below the floor %r" % (g, floor)
    if g < 1.0 - TOL:  # extract_exceptional_collection needs gldim strictly below 1
        coll = tr.call("stability.extract_exceptional_collection",
                       sd.extract_exceptional_collection, sigma)
        if len(coll) != q.n:
            return "exceptional collection has %d members, expected %d" % (len(coll), q.n)
        sub = tr.call("stability.restrict_to_subquiver", sd.restrict_to_subquiver,
                      sigma, range(1, q.n))
        gs = tr.call("stability.gldim", sd.gldim, sub)
        tr.count("stability.gldim_pairs", len(sub.records) ** 2)
        if gs > g + TOL:
            return "restricted gldim %r above ambient %r" % (gs, g)
    return None


# ----------------------------------------------------------- estimators


def estimators(cfg: dict, tr: Tracer, sp: Speedometer) -> dict:
    sd = _import(tr)
    names = cfg.get("quivers")
    table = [row for row in ESTIMATOR_QUIVERS if names is None or row[0] in names]
    n_maxes = cfg.get("n_max", ESTIMATOR_N_MAX)
    prepared = []
    for name, text in table:
        q, dyn, _ = _prepare(tr, sd, text)
        prepared.append((name, q, dyn))
        sp.tick()
    ready = time.monotonic()
    setup_bursts = sp.spent

    acc = {"dynkin": 0.0, "nondynkin": 0.0}
    todo = [("study-%s-%d" % (name, n), partial(_study, tr, sd, name, q, dyn, n, acc))
            for name, q, dyn in prepared for n in n_maxes]
    if cfg.get("curves", True):
        todo += _curve_ops(tr, sd)
    # a seeded order, so that the heavy ops spread over the pass
    random.Random("estimators:%d:%d" % (cfg["seed"], cfg["index"])).shuffle(todo)
    log = OpLog(tr, sp)
    t0 = time.perf_counter()
    for name, fn in todo:
        log.run(name, fn)
    wall = time.perf_counter() - t0 - (sp.spent - setup_bursts)
    return {"ready": ready, "setup_bursts": setup_bursts, "wall": wall, "ops": log.rows,
            "setup_fail": [],
            "accuracy": {"entropy_err_dynkin": acc["dynkin"],
                         "entropy_err_nondynkin": acc["nondynkin"]}}


def _study(tr: Tracer, sd, name: str, q, dyn, n: int, acc: dict):
    misses = sd.entropy_series.cache_info().misses
    try:
        # the same positional key the estimators use, so later calls hit
        tr.call("entropy.entropy_series", sd.entropy_series, q, n, sd.DEFAULT_BUDGET)
    except sd.BudgetExceeded:
        tr.count("entropy.budget_failures")
        raise
    if sd.entropy_series.cache_info().misses != misses + 1:
        return "entropy_series(%s, %d) was served from an earlier request" % (name, n)
    g = tr.call("derived.standard_generator", sd.standard_generator, q)
    x = tr.call("derived.serre_apply", sd.serre_apply, g, n)
    if x.total_summands() != g.total_summands():
        return "S^n G has %d summands, G has %d" % (x.total_summands(), g.total_summands())
    tr.call("entropy.entropy_profile", sd.entropy_profile, q, T_GRID, n)
    hs = [tr.call("entropy.entropy_estimate", sd.entropy_estimate, q, t, n) for t in T_GRID]
    sdim = tr.call("entropy.sdim_estimate", sd.sdim_estimate, q, n)
    tr.call("entropy.volume", sd.volume, q, 2.0, n)
    if sdim.upper < sdim.lower - 1e-12:
        return "upper Serre dimension below lower"
    if dyn is not None:
        h = dyn.coxeter_number
        err = max(abs(ht - t * (h - 2) / h) for t, ht in zip(T_GRID, hs))
        acc["dynkin"] = max(acc["dynkin"], err)
        if n >= 2 * h and err > TOL:
            return "Dynkin line t(h-2)/h off by %.3e at n_max=%d" % (err, n)
    else:
        acc["nondynkin"] = max(acc["nondynkin"], abs(hs[T_GRID.index(0.0)] - log_rho(name)))
    return None


def _curve_ops(tr: Tracer, sd) -> list:
    """The curve oracles as (name, op) pairs."""
    import numpy as np

    todo = [("inf_scan-g%d" % g, partial(_inf_scan, tr, sd, g)) for g in CURVE_GENERA]
    a_max = inspect.signature(sd.genus0_pair_sup).parameters["a_max"].default
    p1 = inspect.signature(sd.genus1_pair_sup).parameters
    r_max, d_max = p1["r_max"].default, p1["d_max"].default
    n0 = 2 * a_max + 1  # line bundles O(a), |a| <= a_max
    n1 = d_max + r_max * (2 * d_max + 1)  # torsion plus rank 1..r_max classes
    grid = np.linspace(SHIFT_GENUS - 6.0, SHIFT_GENUS + 4.0, SHIFT_GRID_POINTS)

    def pair_sup(fn, genus, h, n_classes, nbytes):
        v = tr.call("curves." + fn.__name__, fn, sd.CurveStability(genus, 0.0, h))
        tr.count("curves.pair_sup_pairs", n_classes ** 2)
        tr.count("curves.pair_sup_bytes", nbytes)
        return None if 0.0 < v < 1.0 else "pair sup %r not in (0, 1)" % v

    for h in PAIR_H:
        # computed bytes: genus 0 makes ~6 float64 vectors of n0 classes;
        # genus 1 fills cross, gaps and two outer products, chunk by chunk,
        # over all n1 x n1 pairs
        todo += [
            ("genus0_pair_sup", partial(pair_sup, sd.genus0_pair_sup, 0, h, n0, 6 * 8 * n0)),
            ("genus1_pair_sup", partial(pair_sup, sd.genus1_pair_sup, 1, h, n1, 4 * 8 * n1 * n1)),
            ("shift_gap_grid", partial(_shift_gap, tr, sd, h, grid)),
        ]
    return todo


def _inf_scan(tr: Tracer, sd, g: int):
    rows = tr.call("curves.curve_inf_scan", sd.curve_inf_scan, g, CURVE_H_GRID)
    for h, lo, up in rows:
        if not 1.0 < lo <= up:
            return "genus %d, H=%g: bounds (%r, %r) not 1 < lower <= upper" % (g, h, lo, up)
    return None


def _shift_gap(tr: Tracer, sd, h: float, grid):
    lo, up = sd.curve_gldim_bounds(sd.CurveStability(SHIFT_GENUS, 0.0, h))
    mx = float(tr.call("curves.shift_gap_grid", sd.shift_gap_grid, SHIFT_GENUS, h, grid).max())
    if not lo - 1e-12 <= mx <= up + 1e-12:
        return "grid max %r outside the closed-form bounds [%r, %r]" % (mx, lo, up)
    return None


# --------------------------------------------------------------- replay


def replay(cfg: dict, tr: Tracer, sp: Speedometer) -> dict:
    """One cli-cold command as its handler's public calls.  On first use,
    the stability source and gldim run twice back to back, so that the cold
    minus the warm time measures the hom/ext/mono table fill."""
    t0 = time.perf_counter()
    sd = _import(tr)
    kind, args = cfg["replay"]
    tr.op_id = 0
    t1 = time.perf_counter()
    try:
        with tr.span("bench.op." + cfg["name"]):
            fields = REPLAYS[kind](tr, sd, cfg, **args)
    except Exception as exc:
        if not _is_domain_error(exc):
            raise
        fields = {"error": type(exc).__name__}
    t2 = time.perf_counter()
    return {"fields": fields, "import_s": t1 - t0, "op_s": t2 - t1}


def _cli_quiver(tr: Tracer, sd, cfg: dict, text: str):
    """_quiver_from_cfg: parse, then catalog_for with the on-disk cache."""
    q = tr.call("quivers.parse_quiver", sd.parse_quiver, text)
    cat = tr.call("reps.catalog_for", sd.catalog_for, q, cache_dir=cfg["cache_dir"], cache_key=text)
    tr.count("reps.catalog_size", cat.size())
    return q


def _r_quiver(tr, sd, cfg, quiver):
    q = _cli_quiver(tr, sd, cfg, quiver)
    tr.call("quivers.coxeter_matrix", sd.coxeter_matrix, q)
    dyn = tr.call("quivers.classify_dynkin", sd.classify_dynkin, q)
    roots = tr.call("quivers.positive_roots", sd.positive_roots, q)
    return {"n": q.n, "positive_root_count": len(roots),
            "dynkin": {"series": dyn.series, "rank": dyn.rank,
                       "coxeter_number": dyn.coxeter_number, "fcy_pair": list(dyn.fcy_pair)}}


def _r_sdim(tr, sd, cfg, quiver, n_max):
    q = _cli_quiver(tr, sd, cfg, quiver)
    tr.call("entropy.entropy_series", sd.entropy_series, q, n_max, sd.DEFAULT_BUDGET)
    s = tr.call("entropy.sdim_estimate", sd.sdim_estimate, q, n_max, sd.DEFAULT_BUDGET)
    return {"upper": s.upper, "lower": s.lower}


def _r_entropy(tr, sd, cfg, quiver, t_grid, n_max):
    q = _cli_quiver(tr, sd, cfg, quiver)
    tr.call("entropy.entropy_series", sd.entropy_series, q, n_max, sd.DEFAULT_BUDGET)
    p = tr.call("entropy.entropy_profile", sd.entropy_profile, q, tuple(t_grid), n_max, sd.DEFAULT_BUDGET)
    rows = [[t, tr.call("entropy.entropy_estimate", sd.entropy_estimate, q, t, n_max, sd.DEFAULT_BUDGET)]
            for t in t_grid]
    return {"slope": p.slope, "intercept": p.intercept, "residual": p.residual, "table_rows": rows}


def _r_gepner(tr, sd, cfg, quiver):
    q = _cli_quiver(tr, sd, cfg, quiver)
    sigma = _twice(tr, "stability.gepner_construct", sd.gepner_construct, q)
    dyn = tr.call("quivers.classify_dynkin", sd.classify_dynkin, q)
    mu = (dyn.coxeter_number - 2) / dyn.coxeter_number
    g = _twice(tr, "stability.gldim", sd.gldim, sigma)
    rep = tr.call("stability.gepner_check", sd.gepner_check, sigma, mu)
    return {"mu": mu, "gldim": g, "verdict": rep.verdict,
            "charge_match": rep.charge_match, "slicing_match": rep.slicing_match}


def _r_sample(tr, sd, cfg, quiver):
    q = _cli_quiver(tr, sd, cfg, quiver)
    sigma = _twice(tr, "stability.sample_stability", sd.sample_stability, q, cfg["sample_seed"])
    g = _twice(tr, "stability.gldim", sd.gldim, sigma)
    tr.count("stability.records", len(sigma.records))
    tr.count("stability.catalog_entries", sd.catalog_for(q).size())
    return {"gldim": g, "record_count": len(sigma.records)}


def _r_fec(tr, sd, cfg, quiver):
    q = _cli_quiver(tr, sd, cfg, quiver)
    sigma = _twice(tr, "stability.gepner_construct", sd.gepner_construct, q)
    _twice(tr, "stability.gldim", sd.gldim, sigma)
    tr.call("stability.extract_exceptional_collection", sd.extract_exceptional_collection, sigma)
    return {"gldim": tr.call("stability.gldim", sd.gldim, sigma)}


def _r_restrict(tr, sd, cfg, quiver, subset):
    q = _cli_quiver(tr, sd, cfg, quiver)
    sigma = _twice(tr, "stability.gepner_construct", sd.gepner_construct, q)
    _twice(tr, "stability.gldim", sd.gldim, sigma)
    sub = tr.call("stability.restrict_to_subquiver", sd.restrict_to_subquiver, sigma, tuple(subset))
    return {"gldim": _twice(tr, "stability.gldim", sd.gldim, sub), "subquiver": sub.quiver.text()}


def _r_mass(tr, sd, cfg, quiver, t_grid, n_max):
    q = _cli_quiver(tr, sd, cfg, quiver)
    sigma = _twice(tr, "stability.gepner_construct", sd.gepner_construct, q)
    mg = tr.call("stability.mass_growth", sd.mass_growth, sigma, tuple(t_grid), n_max)
    g = tr.call("derived.standard_generator", sd.standard_generator, q)
    for t in mg.t_grid:
        tr.call("stability.mass", sd.mass, sigma, t, g)
    return {"phase_upper": mg.phase_upper, "phase_lower": mg.phase_lower}


def _r_curve(tr, sd, cfg, genus, h_grid):
    rows = tr.call("curves.curve_inf_scan", sd.curve_inf_scan, genus, tuple(h_grid), 0.0)
    return {"table_rows": [list(r) for r in rows]}


def _r_verify(tr, sd, cfg, quivers, samples, seed):
    s = tr.call("verify.run_all", sd.run_all, quivers=tuple(quivers), samples=samples, seed=seed)
    return {"all_passed": s.all_passed, "worst_margin": s.worst_margin}


REPLAYS = {
    "quiver": _r_quiver, "sdim": _r_sdim, "entropy": _r_entropy, "gepner": _r_gepner,
    "sample": _r_sample, "fec": _r_fec, "restrict": _r_restrict, "mass": _r_mass,
    "curve": _r_curve, "verify": _r_verify,
}
KINDS = {"landscape-warm": landscape, "estimators": estimators, "replay": replay}


def main() -> int:
    cfg = json.loads(sys.argv[1])
    tr = Tracer(bool(cfg.get("trace")))
    sp = Speedometer()
    sp.tick(force=True)
    out = KINDS[cfg["kind"]](cfg, tr, sp)
    if "ready" in out:
        out["setup_s"] = out.pop("ready") - cfg["spawn_t"] - out.pop("setup_bursts")
    sp.tick(force=True)
    out["speed_factor"] = sp.factor()
    out["bursts"] = len(sp.samples)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["counters"] = tr.counters
    out["spans"] = tr.spans
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
