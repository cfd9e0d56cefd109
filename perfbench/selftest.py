"""Self-test of the benchmark on tiny op lists.

    python3 perfbench/selftest.py

Runs each workload with and without tracing on a few ops, asserts that
every metric is emitted with its unit, and that a deliberately wrong
reference answer is counted as a failed op.  Takes well under a minute.
"""

from __future__ import annotations

import copy
import math
import sys

import ops as cliops
import run

TINY_ESTIMATORS = {"quivers": ["A4", "E7", "K2", "K3"], "n_max": [30, 60], "curves": True}
PLANS = {
    "cli-cold": {"cli_ops": ["fec-A6", "curve-g2", "gepner-K2"], "estimators": TINY_ESTIMATORS},
    "landscape-warm": {"landscape-warm": {"quivers": ["A3", "E6"], "samples": 40},
                       "min_workers": 1, "estimators": TINY_ESTIMATORS},
    "estimators": {"estimators": TINY_ESTIMATORS, "min_workers": 1},
}


def check_metrics(line: dict, units: dict) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line.keys()
    assert set(line["metrics"]) == set(units), set(line["metrics"]) ^ set(units)
    for name, m in line["metrics"].items():
        assert m["unit"] == units[name], (name, m)
        v = m["value"]
        assert isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v), (name, v)
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert isinstance(line["failed"], int) and 0 <= line["failed"] <= line["attempted"]


def main() -> int:
    for workload, plan in PLANS.items():
        for trace in (False, True):
            line = run.run_workload(workload, 7, 1, trace, plan)["line"]
            check_metrics(line, run.PER_LAYER if trace else run.END_TO_END)
            assert line["correct"], (workload, trace, line)
            # K3 raises BudgetExceeded at both n_max: failed, not wrong
            want_failed = {"estimators": 2 * (2 if trace else 1)}.get(workload, 0)
            assert line["failed"] == want_failed, (workload, trace, line["failed"])
            if workload == "estimators" and not trace:
                assert line["metrics"]["entropy_err_dynkin"]["value"] > 0.05  # E7 at n_max=30
            if workload == "cli-cold" and trace:
                assert line["metrics"]["reps.table_fill_s"]["value"] > 0
            if workload == "estimators" and trace:
                assert line["metrics"]["reps.table_fill_s"]["value"] == 0
                assert line["metrics"]["entropy.budget_failures"]["value"] == 2
            print("ok %s trace=%d attempted=%d failed=%d"
                  % (workload, trace, line["attempted"], line["failed"]))

    ref = copy.deepcopy(cliops.load_reference())
    ref["ops"]["curve-g2"]["stdout"]["table"]["rows"][0][1] += 1e-6
    for trace in (False, True):  # traced: every CLI run and every replay of it
        line = run.run_workload("cli-cold", 7, 1, trace, {
            "cli_ops": ["curve-g2"], "reference": ref, "estimators": TINY_ESTIMATORS})["line"]
        assert line["failed"] == line["attempted"] >= 1 and not line["correct"], line
        print("ok wrong reference counted as failed, trace=%d" % trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
