"""The library API that the benchmark's worker reads.  Tier-1 never runs
the traced replay of `perfbench/worker.py`, so these checks read the
worker's source: every `sd.<name>` it reads exists, and the keywords and
parameters it passes or inspects are still there."""

import ast
import inspect
from pathlib import Path

import sdlab

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def _sd_reads() -> set[str]:
    tree = ast.parse(WORKER.read_text(encoding="utf-8"))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "sd"}


def test_every_name_the_worker_reads_is_in_the_package():
    names = _sd_reads()
    assert {"catalog_for", "entropy_series", "genus0_pair_sup"} <= names
    assert sorted(name for name in names if not hasattr(sdlab, name)) == []


def test_the_worker_calls_match_the_signatures():
    assert {"cache_dir", "cache_key"} <= set(inspect.signature(sdlab.catalog_for).parameters)
    assert "a_max" in inspect.signature(sdlab.genus0_pair_sup).parameters
    assert {"r_max", "d_max"} <= set(inspect.signature(sdlab.genus1_pair_sup).parameters)
    assert callable(sdlab.entropy_series.cache_info)
