"""Alternating parent/change pairs of the benchmark, summarized per metric.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload NAME \
        --seeds 2001,2002,... --seconds 30 [--claim wall_s] --out BENCH_<n>.json

DIR is the root of a checkout: `perfbench/run.py` and `src/sdlab` are run
from there, so a copy without `.git` works.  Pair i runs both sides on seed
i, the parent first on even i and the change first on odd i.  Each run is
`python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0`,
read from its last stdout line.  Runs of several workloads (the option
repeated) append to one output file, one entry per workload.

Per end-to-end metric the output holds the pairs, each side's median and
quartiles (`statistics.quantiles`, inclusive method), the change's wins
(ties count for neither side) and the gap of the medians, and per side the
failed and attempted ops and whether every run read `correct`.  A metric
with a `bound` in BENCHMARK.json gets `within_bound`: false when the
change's median is worse than the parent's by more than that bound as a
share of the parent's median, and `unresolved`: true when the parent's
own quartiles lie further apart than that bound, unless every change run
beats every parent run, so the runs cannot tell a loss of that size from
noise.  The progress line after each pair names every metric whose pairs
so far are out of bound, and every unresolved one.  With
`--claim`, a metric counts as improved when the change wins at least nine
tenths of the pairs and its median is better than the parent's by more than
the distance between the parent's quartiles.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in the checkout at `root`; its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if r.returncode != 0:
        raise SystemExit("%s failed in %s:\n%s" % (" ".join(cmd), root, r.stderr[-2000:]))
    return json.loads(r.stdout.strip().splitlines()[-1])


def spread(values: list) -> dict:
    if len(values) == 1:  # quantiles needs two points
        return {"median": values[0], "q1": values[0], "q3": values[0], "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list, better: dict, bounds: dict, claim: str | None) -> dict:
    metrics = {}
    for name in runs[0]["parent"]["metrics"]:
        pairs = [(r["parent"]["metrics"][name]["value"], r["change"]["metrics"][name]["value"])
                 for r in runs]
        sign = -1 if better.get(name, "lower") == "lower" else 1
        parent, change = spread([p for p, _ in pairs]), spread([c for _, c in pairs])
        gain = sign * (change["median"] - parent["median"])
        entry = {
            "unit": runs[0]["parent"]["metrics"][name]["unit"],
            "better": better.get(name, "lower"),
            "pairs": [list(p) for p in pairs],
            "parent": parent,
            "change": change,
            "wins": sum(sign * (c - p) > 0 for p, c in pairs),
            "losses": sum(sign * (c - p) < 0 for p, c in pairs),
            "median_gap": change["median"] - parent["median"],
            "median_gap_ratio": (change["median"] / parent["median"] - 1
                                 if parent["median"] else None),
        }
        if name in bounds:
            allowed = bounds[name] * abs(parent["median"])
            entry["within_bound"] = -gain <= allowed
            entry["unresolved"] = (parent["iqr"] > allowed
                                   and not all(sign * (c - p) > 0 for p, _ in pairs for _, c in pairs))
        if name == claim:
            entry["claim_met"] = (10 * entry["wins"] >= 9 * len(pairs)
                                  and gain > parent["iqr"])
        metrics[name] = entry
    sides = {side: {"failed": [r[side]["failed"] for r in runs],
                    "attempted": [r[side]["attempted"] for r in runs],
                    "all_correct": all(r[side]["correct"] for r in runs)}
             for side in ("parent", "change")}
    return {"metrics": metrics, "ops": sides}


def environment() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"python": platform.python_version(), "numpy": numpy,
            "machine": platform.machine(), "processor": platform.processor(),
            "platform": platform.platform(), "nproc": os.cpu_count()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, type=Path)
    p.add_argument("--change", required=True, type=Path)
    p.add_argument("--workload", required=True, action="append")
    p.add_argument("--seeds", required=True, help="comma-separated, one pair per seed")
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--claim", help="the end-to-end metric the change claims to improve")
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    out = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {
        "environment": environment(), "workloads": {}}
    for workload in args.workload:
        runs = []
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            run = {"seed": seed, "first": order[0]}
            for side in order:
                run[side] = run_once(getattr(args, side).resolve(), workload, seed, args.seconds)
            runs.append(run)
            summary = summarize(runs, better, bounds, args.claim)
            metrics = summary["metrics"].items()
            out_of_bound = [name for name, m in metrics if not m.get("within_bound", True)]
            unresolved = [name for name, m in metrics if m.get("unresolved")]
            print("%s seed %d: %s; out of bound: %s; unresolved: %s" % (workload, seed, " ".join(
                "%s %s=%.6g" % (side, args.claim or "wall_s",
                                run[side]["metrics"][args.claim or "wall_s"]["value"])
                for side in order), ", ".join(out_of_bound) or "none",
                ", ".join(unresolved) or "none"), flush=True)
        out["workloads"][workload] = {"seconds": args.seconds, "seeds": seeds,
                                      "claim": args.claim, "runs": runs, **summary}
        args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
