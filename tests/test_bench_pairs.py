"""The pair summary of tools/bench_pairs.py: bounds and the claim verdict."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _summarize():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.summarize


def _run(value):
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {name: {"value": value, "unit": "s"} for name in ("t", "score", "free")}}


def test_within_bound_is_a_relative_gap_on_the_worse_side():
    summarize = _summarize()
    better = {"t": "lower", "score": "higher", "free": "lower"}
    bounds = {"t": 0.25, "score": 0.25}
    runs = [{"parent": _run(1.0), "change": _run(c)} for c in (1.2, 1.3, 1.24)]
    metrics = summarize(runs, better, bounds, "t")["metrics"]
    # medians 1.0 -> 1.24: 24% slower is in bound, 24% more score is better
    assert metrics["t"]["within_bound"] and metrics["score"]["within_bound"]
    assert "within_bound" not in metrics["free"]
    assert not metrics["t"]["claim_met"]
    runs = [{"parent": _run(1.0), "change": _run(c)} for c in (1.3, 1.26)]
    metrics = summarize(runs, better, bounds, None)["metrics"]
    assert not metrics["t"]["within_bound"] and metrics["score"]["within_bound"]
    runs = [{"parent": _run(1.0), "change": _run(0.7)}]
    assert not summarize(runs, better, bounds, None)["metrics"]["score"]["within_bound"]


def test_a_zero_parent_median_allows_no_loss():
    summarize = _summarize()
    runs = [{"parent": _run(0.0), "change": _run(c)} for c in (0.0, 0.0)]
    assert summarize(runs, {"t": "lower"}, {"t": 0.1}, None)["metrics"]["t"]["within_bound"]
    runs = [{"parent": _run(0.0), "change": _run(1e-12)}]
    assert not summarize(runs, {"t": "lower"}, {"t": 0.1}, None)["metrics"]["t"]["within_bound"]
