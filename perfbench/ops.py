"""The fixed op lists of the three workloads and the answer checks they share.

`CLI_OPS` is the `cli-cold` list.  Each entry names the `sdlab` argv, the
expected exit code, and the replay: the public-call sequence that the
command's `_cmd_*` handler makes, which the traced run executes in a fresh
child to split the command's cold cost by layer.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference" / "cli_cold.json"

# `stab sample --quiver D8` takes its --seed from the workload seed, mapped
# into this pool so that every answer has a reference recorded at the
# commit that defined the benchmark.
SAMPLE_SEEDS = tuple(range(1, 33))

CLI_OPS = (
    {"name": "quiver-E8", "argv": ["quiver", "--quiver", "E8"], "exit": 0,
     "replay": ("quiver", {"quiver": "E8"})},
    {"name": "sdim-E8", "argv": ["sdim", "--quiver", "E8"], "exit": 0,
     "replay": ("sdim", {"quiver": "E8", "n_max": 30})},
    {"name": "entropy-E7", "argv": ["entropy", "--quiver", "E7", "--t-grid=-1,0,1"], "exit": 0,
     "replay": ("entropy", {"quiver": "E7", "t_grid": [-1.0, 0.0, 1.0], "n_max": 30})},
    {"name": "gepner-D6", "argv": ["stab", "gepner", "--quiver", "D6", "--check"], "exit": 0,
     "replay": ("gepner", {"quiver": "D6"})},
    {"name": "gepner-E6", "argv": ["stab", "gepner", "--quiver", "E6", "--check"], "exit": 0,
     "replay": ("gepner", {"quiver": "E6"})},
    {"name": "gepner-E7", "argv": ["stab", "gepner", "--quiver", "E7", "--check"], "exit": 0,
     "replay": ("gepner", {"quiver": "E7"})},
    {"name": "sample-D8", "argv": ["stab", "sample", "--quiver", "D8", "--seed", "{sample_seed}"],
     "exit": 0, "replay": ("sample", {"quiver": "D8"})},
    {"name": "fec-A6", "argv": ["stab", "fec", "--quiver", "A6", "--gepner"], "exit": 0,
     "replay": ("fec", {"quiver": "A6"})},
    {"name": "restrict-A4", "argv": ["stab", "restrict", "--quiver", "A4", "--gepner", "--subset", "1,2,3"],
     "exit": 0, "replay": ("restrict", {"quiver": "A4", "subset": [1, 2, 3]})},
    {"name": "mass-D5", "argv": ["stab", "mass", "--quiver", "D5", "--gepner", "--t-grid=-1,0,1"],
     "exit": 0, "replay": ("mass", {"quiver": "D5", "t_grid": [-1.0, 0.0, 1.0], "n_max": 30})},
    {"name": "curve-g2", "argv": ["curve", "--genus", "2", "--h-grid", "0.5,1,10,100,1000"],
     "exit": 0, "replay": ("curve", {"genus": 2, "h_grid": [0.5, 1.0, 10.0, 100.0, 1000.0]})},
    {"name": "verify", "argv": ["verify"], "exit": 0,
     "replay": ("verify", {"quivers": ["A2", "A3", "D4"], "samples": 50, "seed": 0})},
    {"name": "gepner-K2", "argv": ["stab", "gepner", "--quiver", "K2"], "exit": 3,
     "replay": ("gepner", {"quiver": "K2"})},
)

GEPNER_OPS = tuple(op["name"] for op in CLI_OPS if op["replay"][0] == "gepner")


def sample_seed(seed: int) -> int:
    return SAMPLE_SEEDS[random.Random("cli-cold:%d" % seed).randrange(len(SAMPLE_SEEDS))]


def cli_argv(op: dict, seed: int) -> list:
    s = str(sample_seed(seed))
    return [a.replace("{sample_seed}", s) for a in op["argv"]]


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def reference_for(ref: dict, op_name: str, seed: int) -> dict:
    """The recorded {exit, stdout, stderr} for one op at one workload seed."""
    if op_name == "sample-D8":
        return ref["samples"][str(sample_seed(seed))]
    return ref["ops"][op_name]


def mismatch(got, want, path="$"):
    """First difference between two parsed JSON values, or None.

    Discrete values (ints, bools, strings, structure) must match exactly;
    floats must agree to 1e-9, relative to the larger of 1 and |want|.
    """
    if isinstance(want, bool) or isinstance(got, bool):
        return None if got is want else "%s: %r != %r" % (path, got, want)
    if isinstance(want, float) or isinstance(got, float):
        numbers = isinstance(got, (int, float)) and isinstance(want, (int, float))
        if numbers and (got == want or (
                math.isfinite(want) and abs(got - want) <= 1e-9 * max(1.0, abs(want)))):
            return None
        return "%s: %r != %r" % (path, got, want)
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return "%s: keys differ" % path
        for k in sorted(want):
            d = mismatch(got[k], want[k], "%s.%s" % (path, k))
            if d:
                return d
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return "%s: length differs" % path
        for i, (g, w) in enumerate(zip(got, want)):
            d = mismatch(g, w, "%s[%d]" % (path, i))
            if d:
                return d
        return None
    return None if got == want else "%s: %r != %r" % (path, got, want)


def check_cli_output(ref: dict, code: int, stdout: str, stderr: str):
    """None when the command's exit code and output match the reference,
    else a one-line reason.  Exit 3 must carry the JSON error envelope."""
    if code != ref["exit"]:
        return "exit %d, expected %d" % (code, ref["exit"])
    try:
        if ref["exit"] == 0:
            return mismatch(json.loads(stdout), ref["stdout"])
        return mismatch(json.loads(stderr), ref["stderr"])
    except ValueError:
        return "output is not JSON"


def check_replay_fields(ref: dict, fields: dict):
    """Compare the replay's answer fields with the same fields of the
    recorded CLI report (or the error type of its envelope)."""
    if "error" in fields:
        want = (ref.get("stderr") or {}).get("error", {}).get("type")
        return None if fields["error"] == want else "raised %s, expected %s" % (fields["error"], want)
    if ref["exit"] != 0:
        return "returned, expected exit %d" % ref["exit"]
    out = ref["stdout"]
    for key, value in fields.items():
        want = out["table"]["rows"] if key == "table_rows" else out.get(key)
        d = mismatch(value, want, key)
        if d:
            return d
    return None
