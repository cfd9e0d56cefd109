"""Byte comparison of `sdlab` command output between two checkouts.

    python3 tools/cli_diff.py DIR_A DIR_B [ARGV_FILE ...]

Each DIR is the root of a checkout; a copy without `.git` works.  Every
argv runs as `python -m sdlab.cli ARGV` with that checkout's `src` on
PYTHONPATH, in a fresh temporary working directory.  The argv are the
`cli-cold` ops of DIR_A's `perfbench/ops.py`, with `{sample_seed}` set to
`SAMPLE_SEEDS[0]`, followed by the argv lists of each ARGV_FILE in turn,
each a JSON list of lists of strings; so one run covers several files and
the `cli-cold` argv only once.  Prints one JSON summary of the argv whose
exit code, stdout or stderr differ, and exits 1 on any difference.  Where
the two stdouts differ and both parse as JSON, the entry's `mismatch` holds
their first difference under the benchmark's answer check (`mismatch` in
DIR_A's `perfbench/ops.py`, with DIR_A's output as the wanted one), or
null when every float agrees within its tolerance.  Standard library only.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def _ops(root: Path):
    """The `perfbench/ops.py` module of the checkout at `root`."""
    spec = importlib.util.spec_from_file_location("perfbench_ops", root / "perfbench" / "ops.py")
    ops = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ops)
    return ops


def cli_cold_argvs(root: Path) -> list:
    """The `cli-cold` argv of the checkout at `root`, at the first sample seed."""
    ops = _ops(root)
    seed = str(ops.SAMPLE_SEEDS[0])
    return [[a.replace("{sample_seed}", seed) for a in op["argv"]] for op in ops.CLI_OPS]


def run_cli(root: Path, argv: list) -> dict:
    """One `sdlab` subprocess from the checkout at `root`: exit code and the
    bytes of stdout and stderr."""
    env = dict(os.environ, PYTHONPATH=str(root.resolve() / "src"))
    with tempfile.TemporaryDirectory() as cwd:
        r = subprocess.run([sys.executable, "-m", "sdlab.cli", *argv],
                           cwd=cwd, env=env, capture_output=True)
    return {"exit": r.returncode, "stdout": r.stdout, "stderr": r.stderr}


def _shown(value):
    return value.decode("utf-8", "replace") if isinstance(value, bytes) else value


def compare(a: Path, b: Path, argvs: list) -> dict:
    """Every argv whose (exit, stdout, stderr) differ between the two roots,
    with the answer check's first difference of two JSON stdouts."""
    mismatch = _ops(a).mismatch
    differences = []
    for argv in argvs:
        got = {"a": run_cli(a, argv), "b": run_cli(b, argv)}
        fields = [k for k in ("exit", "stdout", "stderr") if got["a"][k] != got["b"][k]]
        if not fields:
            continue
        entry = {"argv": argv, "fields": fields,
                 **{side: {k: _shown(got[side][k]) for k in fields} for side in got}}
        if "stdout" in fields:
            try:
                want, new = (json.loads(got[side]["stdout"]) for side in ("a", "b"))
            except ValueError:
                pass
            else:
                entry["mismatch"] = mismatch(new, want)
        differences.append(entry)
    return {"a": str(a), "b": str(b), "argv_count": len(argvs), "differences": differences}


def main(args: list) -> int:
    if len(args) < 2:
        sys.stderr.write(__doc__)
        return 2
    a, b = Path(args[0]), Path(args[1])
    argvs = cli_cold_argvs(a)
    for argv_file in args[2:]:
        with open(argv_file, "r", encoding="utf-8") as fh:
            argvs += json.load(fh)
    summary = compare(a, b, argvs)
    print(json.dumps(summary, indent=1))
    return 1 if summary["differences"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
