import glob
import os
import subprocess
import sys

import pytest

from test_cli import _subprocess_env

DEMO_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")
DEMOS = sorted(glob.glob(os.path.join(DEMO_DIR, "*.py")))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=[os.path.basename(p) for p in DEMOS])
def test_demo_runs_cleanly(path, tmp_path):
    run = subprocess.run([sys.executable, path], capture_output=True, text=True,
                         env=_subprocess_env(), cwd=str(tmp_path))
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert run.stdout
