"""CLI fuzz: argv drawn from a grammar of every subcommand and option, with
boundary numbers, empty lists and preset, cyclic, disconnected and garbage
quiver texts.  Every argv ends in exit 0, 2 or 3, and a failure is one JSON
envelope on stderr, never a traceback.  `main` runs in-process; `--out` is
left out so that no run writes a file.  Each command meets each kind of
quiver as its own case, with its required options always given, and
hypothesis draws the other options and every value."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlab.cli import main

# quiver texts by kind -> the examples each command draws with that kind;
# cyclic and garbage texts end at parsing, so a few examples cover them
QUIVERS = {
    "dynkin": (("A1", "A3", "D5", "E7", "E8", "vertices:3; arrows:1->2,2->3"), 50),
    "kronecker": (("K3", "K5", "K2"), 50),
    "disconnected": (("vertices:5; arrows:1->2,1->2,4->5", "vertices:4; arrows:1->2,3->4"), 8),
    "cyclic": (("vertices:2; arrows:1->2,2->1", "vertices:1; arrows:1->1"), 3),
    "garbage": (("", "Z9", "vertices:2; arrows:1->3"), 3),
}
# boundary values first: hypothesis leans towards the first entries
NUMBERS = ("1e308", "-1e308", "5e-324", "nan", "inf", "0", "1", "-1")
INTS = ("0", "1", "-1", "2", "nan")
N_MAX = INTS + ("30", "240")

numbers = st.sampled_from(NUMBERS)
# a length first, so that empty lists are a third of the draws, not most
number_lists = st.integers(0, 2).flatmap(
    lambda k: st.lists(numbers, min_size=k, max_size=k)).map(",".join)
charge_lists = st.lists(st.tuples(numbers, numbers).map(",".join), max_size=5).map(";".join)
ints = st.sampled_from(INTS)
formats = st.sampled_from(("json", "csv", "md", "xml"))
flag = st.just(None)  # an option that takes no value


@pytest.fixture(scope="module")
def sigma_paths(tmp_path_factory):
    """--sigma values: a valid A3 condition, a malformed one, a missing
    file, a directory and a file that is not JSON."""
    root = tmp_path_factory.mktemp("sigma")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["stab", "sample", "--quiver", "A3", "--seed", "1"]) == 0
    (root / "a3.json").write_text(json.dumps(json.loads(out.getvalue())["sigma"]))
    (root / "bad.json").write_text('{"quiver": "A3"}')
    paths = (root / "a3.json", root / "bad.json", root / "missing.json", root, Path(__file__))
    return st.sampled_from([str(p) for p in paths])


def _stab_command(name: str, sigma_paths) -> tuple[dict, dict]:
    required, optional = {}, {"--format": formats}
    if name in ("gldim", "fec", "restrict", "mass"):
        optional.update({"--z": charge_lists, "--gepner": flag, "--sample": flag,
                         "--sigma": sigma_paths, "--seed": ints})
    if name == "sample":
        optional["--seed"] = ints
    if name == "gepner":
        optional.update({"--check": flag, "--mu": numbers})
    if name == "restrict":
        required["--subset"] = st.lists(st.sampled_from(("0", "1", "-1", "2", "3", "6")),
                                        max_size=3).map(",".join)
    if name == "mass":
        optional.update({"--t-grid": number_lists, "--nmax": st.sampled_from(N_MAX)})
    return required, optional


# the commands that take --quiver; it is given in every case of theirs
QUIVER_COMMANDS = [("quiver",), ("entropy",), ("sdim",), ("volume",),
                   *(("stab", name) for name in ("gldim", "sample", "gepner", "fec", "restrict", "mass"))]


def _grammar(sigma_paths) -> dict:
    """Each command's argv prefix -> (the options it requires besides
    --quiver, the options it may take), each mapped to its value strategy."""
    estimator = {"--nmax": st.sampled_from(N_MAX), "--budget": ints, "--format": formats}
    commands = {
        (): ({}, {"--version": flag}),
        ("quiver",): ({}, {"--format": formats}),
        ("entropy",): ({}, {**estimator, "--t": numbers, "--t-grid": number_lists, "--series": flag}),
        ("sdim",): ({}, estimator),
        ("volume",): ({"--lam": number_lists},
                      {"--nmax": st.sampled_from(N_MAX), "--format": formats}),
        ("curve",): ({"--genus": ints, "--h-grid": number_lists},
                     {"--beta": numbers, "--format": formats}),
        ("verify",): ({"--samples": st.sampled_from(("0", "1", "2", "-1"))},  # the default is 50
                      {"--quivers": st.lists(st.sampled_from(("A2", "A3", "K2", "Z9", "")),
                                             max_size=2).map(",".join),
                       "--seed": ints, "--format": formats}),
        ("stab",): ({}, {}),
        ("bogus",): ({}, {}),
    }
    for name in ("gldim", "sample", "gepner", "fec", "restrict", "mass"):
        commands[("stab", name)] = _stab_command(name, sigma_paths)
    return commands


@st.composite
def argvs(draw, prefix, required, optional):
    """The prefix, every required option and each optional one with
    probability 1/2, each with a drawn value."""
    argv = list(prefix)
    for option, values in {**required, **optional}.items():
        if option in required or draw(st.booleans()):
            value = draw(values)
            argv.append(option if value is None else "%s=%s" % (option, value))
    return argv


CASES = [(prefix, kind) for prefix in QUIVER_COMMANDS for kind in QUIVERS] + [
    (prefix, None) for prefix in sorted(_grammar(None)) if prefix not in QUIVER_COMMANDS]


@pytest.mark.parametrize("prefix, kind", CASES,
                         ids=[" ".join(prefix + ((kind,) if kind else ())) for prefix, kind in CASES])
def test_every_cli_input_ends_in_exit_0_2_or_3(sigma_paths, prefix, kind):
    required, optional = _grammar(sigma_paths)[prefix]
    texts, examples = QUIVERS[kind] if kind else ((), 15)
    if kind:
        required = {"--quiver": st.sampled_from(texts), **required}

    @settings(max_examples=examples, derandomize=True, deadline=None, database=None)
    @given(argv=argvs(prefix, required, optional))
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # --version prints and exits 0
                code = exc.code
        assert code in (0, 2, 3), (argv, code)
        if code in (2, 3):
            envelope = json.loads(err.getvalue())
            assert set(envelope) == {"error"}
            assert set(envelope["error"]) == {"type", "message"}

    run()
