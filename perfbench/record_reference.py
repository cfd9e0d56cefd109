"""Record the reference answers of the `cli-cold` ops.

    python3 perfbench/record_reference.py

Runs every `cli-cold` command once (the D8 sample once per pooled seed),
each in a fresh directory with an empty SDLAB_CACHE, and writes exit code,
parsed stdout and parsed stderr to `reference/cli_cold.json`.  Run it only
at a commit whose answers are known good: the benchmark fails every op
whose answer later differs.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import ops as cliops
import run


def answer(b: run.Bench, argv: list) -> dict:
    d = b.fresh_dir()
    r = b.run_child([run.PY, "-m", "sdlab.cli"] + argv, cwd=d,
                    extra_env={"SDLAB_CACHE": str(d / "cache")}, cap=run.CLI_CAP_S)
    if r["killed"] or r["code"] not in (0, 3):
        raise SystemExit("%s: exit %d\n%s" % (" ".join(argv), r["code"], r["err"]))
    return {"exit": r["code"],
            "stdout": json.loads(r["out"]) if r["code"] == 0 else None,
            "stderr": json.loads(r["err"]) if r["code"] != 0 else None}


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="ref-", dir=run.OUT))
    try:
        b = run.Bench(0, 0, False, work)
        ref = {"ops": {}, "samples": {}}
        for op in cliops.CLI_OPS:
            if op["name"] == "sample-D8":
                for s in cliops.SAMPLE_SEEDS:
                    argv = [a.replace("{sample_seed}", str(s)) for a in op["argv"]]
                    ref["samples"][str(s)] = answer(b, argv)
            else:
                ref["ops"][op["name"]] = answer(b, op["argv"])
            print(op["name"], file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    cliops.REFERENCE_PATH.parent.mkdir(exist_ok=True)
    cliops.REFERENCE_PATH.write_text(json.dumps(ref, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
