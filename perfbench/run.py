"""sdlab benchmark: cold CLI, warm stability landscape, entropy estimators.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout.  The program under test is the
checkout's own `src/sdlab`, put on PYTHONPATH of every child process; the
benchmark itself never imports it.  Workloads (closed loop, one client, at
most one child process at a time):

- `cli-cold`: one `sdlab` subprocess per op, each in a fresh working
  directory with a fresh, empty SDLAB_CACHE, so every op pays import,
  catalog knitting and the exact table fills as a first-run user does.
- `landscape-warm`: per child, set-up fills the A3/E6/D8 tables, then the
  timed pass runs seeded `sample_stability` + `gldim` ops: pure stability
  loops over full tables.
- `estimators`: per child, set-up builds catalogs, then the timed pass runs
  one entropy study per (quiver, n_max), each the first request for its key,
  plus the curve oracles.  It never touches the hom tables.

End-to-end times are reported at a reference machine speed, from a fixed
pure-Python burst timed alongside the work (see `calib.py`); the measured
times stay in the report and the run's record.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics from spans recorded around each
public call (see `tracer.py`).  Scratch files go to `.perfbench-out/` in the
checkout; the full record of the run (environment, every op, spans) is left
there as `<workload>-seed<n>-trace<t>.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import ops as cliops  # noqa: E402
from tracer import layer_self_times  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
PY = sys.executable

WORKLOADS = ("cli-cold", "landscape-warm", "estimators")
CLI_CAP_S = 120.0  # per sdlab subprocess; E7 `stab gepner --check` takes ~15 s
WORKER_CAP_S = 150.0
SETUP_REPEATS = 5  # cli-cold set-ups per run
PROBE_BURSTS = 3  # calibration bursts the parent times before and after each cli-cold child
MIN_WORKERS = 3  # in-process children per run, each one set-up and one pass
ERR_FLOOR = 1e-12  # estimator errors below this read as this

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_p90_s": "s",
    "peak_rss_mb": "MB", "entropy_err_dynkin": "nats", "entropy_err_nondynkin": "nats",
}
PER_LAYER = {
    "cli.import_s": "s", "cli.overhead_s": "s", "cli.self_s": "s",
    "quivers.classify_s": "s", "quivers.roots_s": "s", "quivers.self_s": "s",
    "reps.catalog_s": "s", "reps.catalog_size": "count", "reps.table_fill_s": "s",
    "reps.table_fill_share": "ratio", "reps.self_s": "s",
    "stability.make_stability_s": "s", "stability.sample_s": "s", "stability.gldim_s": "s",
    "stability.gepner_construct_s": "s", "stability.gepner_check_s": "s",
    "stability.act_s": "s", "stability.fec_s": "s", "stability.restrict_s": "s",
    "stability.mass_growth_s": "s", "stability.semistable_ratio": "ratio",
    "stability.gldim_pairs": "count", "stability.self_s": "s",
    "derived.serre_apply_s": "s", "derived.self_s": "s",
    "entropy.series_s": "s", "entropy.estimate_s": "s", "entropy.sdim_s": "s",
    "entropy.profile_s": "s", "entropy.budget_failures": "count", "entropy.self_s": "s",
    "curves.pair_sup_s": "s", "curves.pair_sup_pairs": "count",
    "curves.pair_sup_bytes": "bytes", "curves.inf_scan_s": "s", "curves.self_s": "s",
    "verify.run_all_s": "s", "verify.self_s": "s",
    "bench.self_s": "s", "trace.overhead_s": "s",
}
SELF_LAYERS = ("cli", "quivers", "reps", "stability", "derived", "entropy", "curves", "verify", "bench")


class BenchError(Exception):
    """The benchmark could not run: no result line is printed."""


# ------------------------------------------------------------ children


class Bench:
    """One run: scratch directory, child environment and the op ledger."""

    def __init__(self, seed: int, seconds: int, trace: bool, work: Path, plan: dict | None = None):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.plan = plan or {}
        self.rows = []  # [name, seconds, ok, wrong, detail]
        self.setup_failures = []
        self._n = 0
        self.env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "SDLAB"))}
        self.env.update(PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def fresh_dir(self) -> Path:
        self._n += 1
        d = self.work / ("c%05d" % self._n)
        d.mkdir()
        return d

    def run_child(self, argv, cwd: Path, extra_env=None, cap: float = WORKER_CAP_S) -> dict:
        """Run one child to completion; wall time, exit code, output and its
        own peak RSS (from wait4, so each child is measured alone)."""
        env = dict(self.env, **(extra_env or {}))
        lock = threading.Lock()
        state = {"done": False, "killed": False}
        with open(cwd / ".stdout", "wb") as out, open(cwd / ".stderr", "wb") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                 stdout=out, stderr=err)

            def kill():
                with lock:
                    if not state["done"]:
                        state["killed"] = True
                        p.kill()

            timer = threading.Timer(cap, kill)
            timer.start()
            try:
                _, status, ru = os.wait4(p.pid, 0)
            finally:
                with lock:
                    state["done"] = True
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        return {"wall": wall, "code": p.returncode, "killed": state["killed"],
                "out": (cwd / ".stdout").read_text("utf-8", "replace"),
                "err": (cwd / ".stderr").read_text("utf-8", "replace"),
                "rss_mb": ru.ru_maxrss / 1024.0}

    def worker(self, cfg: dict) -> dict:
        d = self.fresh_dir()
        cfg = dict(cfg, seed=self.seed, spawn_t=time.monotonic())
        r = self.run_child([PY, str(HERE / "worker.py"), json.dumps(cfg)], cwd=d)
        lines = r["out"].strip().splitlines()
        if r["code"] != 0 or not lines:
            raise BenchError("worker %s exited %d (killed=%s): %s"
                             % (cfg["kind"], r["code"], r["killed"], r["err"][-2000:]))
        out = json.loads(lines[-1])
        out["wall_child"] = r["wall"]
        out["rss_mb"] = max(out["rss_mb"], r["rss_mb"])
        return out

    def attempted(self) -> int:
        return len(self.rows) + len(self.setup_failures)

    def failed(self) -> int:
        return sum(1 for r in self.rows if not r[2]) + len(self.setup_failures)

    def correct(self) -> bool:
        return not self.setup_failures and not any(r[3] for r in self.rows)


def speed_probe() -> float:
    """Median of a few calibration bursts, timed in this process (which
    never imports sdlab) while no child runs."""
    return statistics.median(calib.burst() for _ in range(PROBE_BURSTS))


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def p90(xs) -> float:
    xs = list(xs)
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10)[8]


def merge_spans(children) -> list:
    """Concatenate the span lists of several children, re-basing parents."""
    spans = []
    for child in children:
        base = len(spans)
        for name, start, end, parent, op in child["spans"]:
            spans.append((name, start, end, None if parent is None else parent + base, op))
    return spans


def layer_metrics(spans, counters: dict, passes: int) -> dict:
    """Per-layer metrics from spans and counters.  The warm stability calls
    (stability.*_s) are medians per call; the rest are totals per pass of
    the workload's op list."""
    by = defaultdict(list)
    for name, start, end, _, _ in spans:
        by[name].append(end - start)
    passes = max(passes, 1)

    def total(*names):
        return sum(sum(by[n]) for n in names) / passes

    def warm(name):
        return median(by[name])

    def per_pass(key):
        return counters.get(key, 0) / passes

    entries = counters.get("stability.catalog_entries", 0)
    m = {
        "quivers.classify_s": total("quivers.classify_dynkin"),
        "quivers.roots_s": total("quivers.positive_roots"),
        "reps.catalog_s": total("reps.catalog_for"),
        "reps.catalog_size": per_pass("reps.catalog_size"),
        "reps.table_fill_s": per_pass("reps.table_fill_s"),
        "stability.make_stability_s": warm("stability.make_stability"),
        "stability.sample_s": warm("stability.sample_stability"),
        "stability.gldim_s": warm("stability.gldim"),
        "stability.gepner_construct_s": warm("stability.gepner_construct"),
        "stability.gepner_check_s": warm("stability.gepner_check"),
        "stability.act_s": warm("stability.act"),
        "stability.fec_s": warm("stability.extract_exceptional_collection"),
        "stability.restrict_s": warm("stability.restrict_to_subquiver"),
        "stability.mass_growth_s": warm("stability.mass_growth"),
        "stability.semistable_ratio": counters.get("stability.records", 0) / entries if entries else 0.0,
        "stability.gldim_pairs": per_pass("stability.gldim_pairs"),
        "derived.serre_apply_s": total("derived.serre_apply"),
        "entropy.series_s": total("entropy.entropy_series"),
        "entropy.estimate_s": total("entropy.entropy_estimate"),
        "entropy.sdim_s": total("entropy.sdim_estimate"),
        "entropy.profile_s": total("entropy.entropy_profile"),
        "entropy.budget_failures": per_pass("entropy.budget_failures"),
        "curves.pair_sup_s": total("curves.genus0_pair_sup", "curves.genus1_pair_sup"),
        "curves.pair_sup_pairs": per_pass("curves.pair_sup_pairs"),
        "curves.pair_sup_bytes": per_pass("curves.pair_sup_bytes"),
        "curves.inf_scan_s": total("curves.curve_inf_scan"),
        "verify.run_all_s": total("verify.run_all"),
    }
    selfs = layer_self_times(spans)
    for layer in SELF_LAYERS:
        m[layer + ".self_s"] = selfs.get(layer, 0.0) / passes
    return m


def add_counters(total: dict, more: dict) -> None:
    for k, v in more.items():
        total[k] = total.get(k, 0) + v


# ------------------------------------------------------------- cli-cold


def cli_setup(b: Bench) -> tuple:
    """Fresh scratch root and a fresh `import sdlab.cli` that must resolve
    to this checkout.  Returns (set-up seconds, import seconds)."""
    t0 = time.perf_counter()
    d = b.fresh_dir()
    r = b.run_child([PY, "-c", "import sdlab.cli, sdlab; print(sdlab.__file__)"], cwd=d)
    want = os.path.realpath(SRC / "sdlab" / "__init__.py")
    if r["code"] != 0 or os.path.realpath(r["out"].strip()) != want:
        raise BenchError("sdlab does not import from %s: %s" % (SRC, r["err"][-2000:]))
    return time.perf_counter() - t0, r["wall"]


def cli_op(b: Bench, op: dict, ref: dict) -> tuple:
    d = b.fresh_dir()
    r = b.run_child([PY, "-m", "sdlab.cli"] + cliops.cli_argv(op, b.seed), cwd=d,
                    extra_env={"SDLAB_CACHE": str(d / "cache")}, cap=CLI_CAP_S)
    if r["killed"]:
        row = [op["name"], r["wall"], False, False, "exceeded the %.0f s cap" % CLI_CAP_S]
    else:
        why = cliops.check_cli_output(cliops.reference_for(ref, op["name"], b.seed),
                                      r["code"], r["out"], r["err"])
        row = [op["name"], r["wall"], why is None, why is not None, why]
    b.rows.append(row)
    return row, r["rss_mb"]


def replay_op(b: Bench, op: dict, ref: dict, traced: bool) -> dict:
    d = b.fresh_dir()
    out = b.worker({"kind": "replay", "trace": traced, "name": op["name"],
                    "replay": op["replay"], "cache_dir": str(d / "cache"),
                    "sample_seed": cliops.sample_seed(b.seed)})
    why = cliops.check_replay_fields(cliops.reference_for(ref, op["name"], b.seed), out["fields"])
    b.rows.append(["replay-" + op["name"], out["wall_child"], why is None, why is not None, why])
    return out


def run_cli_cold(b: Bench) -> dict:
    ref = b.plan.get("reference") or cliops.load_reference()
    names = b.plan.get("cli_ops")
    op_list = [op for op in cliops.CLI_OPS if names is None or op["name"] in names]
    setups = [cli_setup(b) for _ in range(SETUP_REPEATS)]

    if b.trace:
        cli_rows, traced, plain = [], [], []
        for op in op_list:
            cli_rows.append(cli_op(b, op, ref)[0])
            traced.append(replay_op(b, op, ref, True))
        for op in op_list:
            plain.append(replay_op(b, op, ref, False))
        counters = {}
        for child in traced:
            add_counters(counters, child["counters"])
        m = layer_metrics(merge_spans(traced), counters, 1)
        m["cli.import_s"] = median([s[1] for s in setups])
        # what the CLI spends beyond a fresh import and the handler's public
        # calls (the warm duplicates, dup_s, are not part of the command)
        m["cli.overhead_s"] = median([
            row[1] - m["cli.import_s"] - (t["op_s"] - t["counters"].get("dup_s", 0.0))
            for row, t in zip(cli_rows, traced)])
        gep = [t for op, t in zip(op_list, traced) if op["name"] in cliops.GEPNER_OPS]
        fill = sum(t["counters"].get("reps.table_fill_s", 0.0) for t in gep)
        busy = sum(t["op_s"] - t["counters"].get("dup_s", 0.0) for t in gep)
        m["reps.table_fill_share"] = fill / busy if busy > 0 else 0.0
        m["trace.overhead_s"] = sum(t["wall_child"] for t in traced) - sum(t["wall_child"] for t in plain)
        return {"metrics": m, "children": traced + plain}

    # every child is timed between two speed probes; its reported time is
    # its measured time at the reference speed (see calib.py)
    probes = [speed_probe()]

    def factor():
        probes.append(speed_probe())
        return calib.REF_BURST_S / statistics.mean(probes[-2:])

    setups = []
    for _ in range(SETUP_REPEATS):
        s = cli_setup(b)[0]
        setups.append((s, s * factor()))
    per_op = defaultdict(list)  # (measured, reported) seconds
    rss = []
    deadline = time.perf_counter() + b.seconds

    def sample(op):
        row, r = cli_op(b, op, ref)
        per_op[op["name"]].append((row[1], row[1] * factor()))
        rss.append(r)

    # one full pass, then more samples of the ops that still fit the run
    for op in op_list:
        sample(op)
    progressed = True
    while progressed:
        progressed = False
        for op in op_list:
            if time.perf_counter() + median([t for t, _ in per_op[op["name"]]]) <= deadline:
                sample(op)
                progressed = True
    medians = [median([t for _, t in per_op[op["name"]]]) for op in op_list]
    measured = [median([t for t, _ in per_op[op["name"]]]) for op in op_list]
    acc = accuracy_probe(b)
    return {"metrics": {
        "setup_s": median([s[1] for s in setups]),
        "wall_s": sum(medians),
        "op_p50_s": median(medians),
        "op_p90_s": p90(medians),
        "peak_rss_mb": max(rss),
        **acc,
    }, "measured": {
        "setup_s": median([s[0] for s in setups]),
        "wall_s": sum(measured),
        "op_p50_s": median(measured),
        "op_p90_s": p90(measured),
        "speed_factor": calib.REF_BURST_S / median(probes),
    }, "counts": {"op_p50_s": len(medians), "op_p90_s": len(medians), "ops_run": len(b.rows)}}


# ---------------------------------------------------------- in-process


def accuracy_probe(b: Bench) -> dict:
    """The estimator errors are a property of the program, not of a load:
    workloads other than `estimators` read them from one untimed child that
    runs the estimators' op list."""
    out = b.worker(dict(b.plan.get("estimators", {}), kind="estimators", index=-1, trace=False,
                        curves=False))
    return out["accuracy"]


def run_inprocess(b: Bench, kind: str) -> dict:
    """Children one after another until the run's seconds are used, at
    least MIN_WORKERS of them (twice that with tracing: untraced and traced
    children alternate, and their difference is the tracing overhead)."""
    start = time.perf_counter()
    deadline = start + b.seconds
    need = b.plan.get("min_workers", MIN_WORKERS) * (2 if b.trace else 1)
    children = []
    while True:
        traced = b.trace and len(children) % 2 == 1
        out = b.worker(dict(b.plan.get(kind, {}), kind=kind, index=len(children), trace=traced))
        out["traced"] = traced
        children.append(out)
        b.rows.extend(out["ops"])
        b.setup_failures.extend(out["setup_fail"])
        now = time.perf_counter()
        if len(children) >= need and now + (now - start) / len(children) > deadline:
            break
    plain = [c for c in children if not c["traced"]]

    if b.trace:
        traced = [c for c in children if c["traced"]]
        counters = {}
        for c in traced:
            add_counters(counters, c["counters"])
        m = layer_metrics(merge_spans(traced), counters, len(traced))
        fill = counters.get("reps.table_fill_s", 0.0)
        m["reps.table_fill_share"] = fill / sum(c["setup_s"] for c in traced)
        m["trace.overhead_s"] = median([c["wall"] for c in traced]) - median([c["wall"] for c in plain])
        m["cli.import_s"] = median([cli_setup(b)[1] for _ in range(SETUP_REPEATS)])
        m["cli.overhead_s"] = 0.0
        return {"metrics": m, "children": children}

    def at_ref(key):  # measured seconds at the reference speed (see calib.py)
        return [c[key] * c["speed_factor"] for c in plain]

    times = [row[1] * c["speed_factor"] for c in plain for row in c["ops"]]
    measured = [row[1] for c in plain for row in c["ops"]]
    if kind == "estimators":
        accs = [c["accuracy"] for c in plain]
        if any(a != accs[0] for a in accs):
            raise BenchError("estimator errors differ between identical passes: %r" % accs)
        acc = accs[0]
    else:
        acc = accuracy_probe(b)
    return {"metrics": {
        "setup_s": median(at_ref("setup_s")),
        "wall_s": median(at_ref("wall")),
        "op_p50_s": median(times),
        "op_p90_s": p90(times),
        "peak_rss_mb": max(c["rss_mb"] for c in plain),
        **acc,
    }, "measured": {
        "setup_s": median([c["setup_s"] for c in plain]),
        "wall_s": median([c["wall"] for c in plain]),
        "op_p50_s": median(measured),
        "op_p90_s": p90(measured),
        "speed_factor": median([c["speed_factor"] for c in plain]),
    }, "counts": {"op_p50_s": len(times), "op_p90_s": len(times), "passes": len(plain)}}


# ------------------------------------------------------------ the run


def environment() -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = r.stdout.strip() or None
    digest = hashlib.sha256()
    for f in sorted((SRC / "sdlab").rglob("*.py")):
        digest.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "machine": platform.machine(),
        "kernel": platform.release(),
    }


def run_workload(workload: str, seed: int, seconds: int, trace: bool, plan=None) -> dict:
    """Run one workload; returns the result line, the report and the record."""
    if not (SRC / "sdlab" / "__init__.py").is_file():
        raise BenchError("no sdlab package at %s" % SRC)
    OUT.mkdir(exist_ok=True)
    env = environment()
    # build: byte-compile once, so that every child imports warm .pyc files
    r = subprocess.run([PY, "-m", "compileall", "-q", str(SRC / "sdlab")], capture_output=True, text=True)
    if r.returncode != 0:
        raise BenchError("compileall failed: %s" % r.stdout[-2000:])
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        b = Bench(seed, seconds, trace, work, plan)
        res = run_cli_cold(b) if workload == "cli-cold" else run_inprocess(b, workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    metrics = res["metrics"]
    if not trace:
        for k in ("entropy_err_dynkin", "entropy_err_nondynkin"):
            metrics[k] = max(metrics[k], ERR_FLOOR)
    line = {
        "correct": b.correct(),
        "attempted": b.attempted(),
        "failed": b.failed(),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "result": line, "counts": res.get("counts", {}),
              "measured": res.get("measured", {}),
              "setup_failures": b.setup_failures, "ops": b.rows,
              "spans": merge_spans(res.get("children", []))}
    return {"line": line, "record": record}


def report(out: dict) -> str:
    rec, line = out["record"], out["line"]
    env = rec["environment"]
    lines = [
        "# perfbench %s seed=%d seconds=%d trace=%d" % (rec["workload"], rec["seed"], rec["seconds"], rec["trace"]),
        "# python %s numpy %s git %s source %s nproc %s load %s" % (
            env["python"], env["numpy"], env["git_sha"], env["source_sha256"][:12],
            env["nproc"], " ".join("%.2f" % x for x in env["loadavg_start"])),
    ]
    counts, measured = rec["counts"], rec["measured"]
    if measured:
        lines.append("# times at the reference speed; measured times in [], speed factor %.4f"
                     % measured["speed_factor"])
    for name, m in line["metrics"].items():
        n = " (n=%d)" % counts[name] if name in counts else ""
        raw = " [%.6g]" % measured[name] if name in measured else ""
        lines.append("%-30s %.6g %s%s%s" % (name, m["value"], m["unit"], raw, n))
    frac = line["failed"] / line["attempted"]
    lines.append("%-30s %.6g (%d of %d ops)" % ("fail_frac", frac, line["failed"], line["attempted"]))
    failures = defaultdict(int)
    for row in rec["ops"]:
        if not row[2]:
            failures[(row[0], row[4])] += 1
    for (name, why), k in failures.items():
        lines.append("# failed %dx %s: %s" % (k, name, why))
    for why in rec["setup_failures"]:
        lines.append("# failed set-up check: %s" % why)
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 1
    path = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(out["record"]) + "\n", encoding="utf-8")
    print(report(out))
    print(json.dumps(out["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
