"""The benchmark's recorded `cli-cold` answers, checked in the test suite.

Each of the 13 `perfbench/ops.py` commands runs once, in a fresh working
directory, and its exit code and output must match
`perfbench/reference/cli_cold.json` under the benchmark's own comparison.
"""

import importlib.util
import os
import subprocess
import sys

import pytest

from test_cli import _subprocess_env

OPS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "ops.py"
)
_spec = importlib.util.spec_from_file_location("perfbench_ops", OPS_PATH)
ops = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ops)

SEED = 7  # picks the `stab sample` seed, as a benchmark run with --seed 7 does


@pytest.mark.parametrize("op", ops.CLI_OPS, ids=[op["name"] for op in ops.CLI_OPS])
def test_cli_answer_matches_reference(op, tmp_path):
    env = {k: v for k, v in _subprocess_env().items() if not k.startswith("SDLAB")}
    run = subprocess.run([sys.executable, "-m", "sdlab.cli"] + ops.cli_argv(op, SEED),
                         capture_output=True, text=True, env=env, cwd=str(tmp_path))
    ref = ops.reference_for(ops.load_reference(), op["name"], SEED)
    assert ops.check_cli_output(ref, run.returncode, run.stdout, run.stderr) is None, run.stderr
