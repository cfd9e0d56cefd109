"""The pair summary of tools/bench_pairs.py: bounds, unresolved spreads and the
claim verdict."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _summarize():
    return _tool().summarize


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


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    summarize = _summarize()
    better, bounds = {"t": "lower", "score": "higher"}, {"t": 0.1, "score": 0.1}
    parents = (1.0, 1.3, 0.9, 1.2)  # median 1.1, quartiles 0.975 and 1.225
    runs = [{"parent": _run(p), "change": _run(c)} for p, c in zip(parents, (1.1, 1.0, 1.2, 1.1))]
    metrics = summarize(runs, better, bounds, None)["metrics"]
    assert metrics["t"]["unresolved"] and metrics["t"]["within_bound"]
    assert metrics["score"]["unresolved"] and "unresolved" not in metrics["free"]
    # every change run below every parent run resolves a lower-is-better metric
    runs = [{"parent": _run(p), "change": _run(c)} for p, c in zip(parents, (0.8, 0.7, 0.85, 0.6))]
    metrics = summarize(runs, better, bounds, None)["metrics"]
    assert not metrics["t"]["unresolved"] and metrics["score"]["unresolved"]
    # a tight parent spread resolves, even with a loss out of bound
    runs = [{"parent": _run(p), "change": _run(1.5)} for p in (1.0, 1.01, 0.99)]
    metrics = summarize(runs, better, bounds, None)["metrics"]
    assert not metrics["t"]["unresolved"] and not metrics["t"]["within_bound"]


def test_progress_line_names_unresolved_metrics(tmp_path, monkeypatch, capsys):
    tool = _tool()
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    spec = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.1},
                           {"name": "t", "better": "lower", "bound": 0.1}]}
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(spec))
    values = {"parent": iter((1.0, 1.5)), "change": iter((1.0, 1.0))}

    def run_once(root, workload, seed, seconds):
        value = next(values[root.name])
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"wall_s": {"value": 1.0, "unit": "s"}, "t": {"value": value, "unit": "s"}}}

    monkeypatch.setattr(tool, "run_once", run_once)
    out = tmp_path / "bench.json"
    assert tool.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                      "--workload", "w", "--seeds", "1,2", "--seconds", "1", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("out of bound: none; unresolved: none")
    assert lines[1].endswith("out of bound: none; unresolved: t")
    assert json.loads(out.read_text())["workloads"]["w"]["metrics"]["t"]["unresolved"]
