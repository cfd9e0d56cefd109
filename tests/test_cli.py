import json
import math
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sdlab.cli import main


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sdim_reports_exact_fraction(capsys):
    code, out, err = _run(capsys, ["sdim", "--quiver", "A3"])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["exact"] == "1/2"
    assert abs(report["upper"] - report["lower"]) < 0.1


def test_gepner_alias_with_check(capsys):
    code, out, _ = _run(capsys, ["gepner", "--quiver", "A2", "--check"])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] is True
    assert abs(report["mu"] - 1.0 / 3.0) < 1e-12
    assert abs(report["gldim"] - 1.0 / 3.0) < 1e-9


def test_curve_csv_header(capsys):
    code, out, _ = _run(
        capsys, ["curve", "--genus", "2", "--h-grid", "1,10", "--format", "csv"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "H,lower,upper"
    assert len(lines) == 3


def test_entropy_formats(capsys):
    code, out, _ = _run(capsys, ["entropy", "--quiver", "A2", "--t", "3"])
    assert code == 0
    assert abs(json.loads(out)["estimate"] - 1.0) < 1e-9
    code, out, _ = _run(
        capsys, ["entropy", "--quiver", "A2", "--t", "3", "--format", "md"]
    )
    assert code == 0 and out.startswith("# entropy")
    code, out, _ = _run(
        capsys,
        ["entropy", "--quiver", "A2", "--series", "--nmax", "3", "--format", "csv"],
    )
    assert code == 0 and out.splitlines()[0] == "n,m,dim"


def test_entropy_grid_conflict(capsys):
    code, _, err = _run(
        capsys, ["entropy", "--quiver", "A2", "--t", "1", "--t-grid", "0,1,2"]
    )
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ConfigError"


def test_stab_gldim_with_explicit_charges(capsys):
    code, out, _ = _run(
        capsys,
        ["stab", "gldim", "--quiver", "A2", "--z=-1,0;0.5,0.8660254037844386"],
    )
    assert code == 0
    assert abs(json.loads(out)["gldim"] - 1.0 / 3.0) < 1e-6


def test_stab_needs_exactly_one_sigma_source(capsys):
    code, _, err = _run(capsys, ["stab", "gldim", "--quiver", "A2"])
    assert code == 2
    code, _, err = _run(
        capsys, ["stab", "gldim", "--quiver", "A2", "--gepner", "--sample"]
    )
    assert code == 2
    assert "stability source" in json.loads(err)["error"]["message"]


def test_stab_sigma_file_source(capsys, tmp_path):
    code, out, _ = _run(capsys, ["gepner", "--quiver", "A3"])
    sigma_path = tmp_path / "sigma.json"
    sigma_path.write_text(json.dumps(json.loads(out)["sigma"]))
    code, out, _ = _run(
        capsys, ["stab", "gldim", "--quiver", "A3", "--sigma", str(sigma_path)]
    )
    assert code == 0
    assert abs(json.loads(out)["gldim"] - 0.5) < 1e-9
    code, _, err = _run(
        capsys, ["stab", "gldim", "--quiver", "A2", "--sigma", str(sigma_path)]
    )
    assert code == 2
    assert "different quiver" in json.loads(err)["error"]["message"]


def test_stab_restrict_and_mass(capsys):
    code, out, _ = _run(
        capsys,
        ["stab", "restrict", "--quiver", "A3", "--gepner", "--subset", "1,2"],
    )
    assert code == 0
    assert json.loads(out)["subquiver"] == "vertices:2; arrows:1->2"
    code, out, _ = _run(
        capsys,
        ["stab", "mass", "--quiver", "A2", "--gepner", "--t-grid", "0,1,3",
         "--format", "csv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,mass_of_generator,growth_rate"
    assert len(lines) == 4


def test_quiver_inspection(capsys):
    code, out, _ = _run(capsys, ["quiver", "--quiver", "D4"])
    assert code == 0
    report = json.loads(out)
    assert report["dynkin"]["coxeter_number"] == 6
    assert report["positive_root_count"] == 12
    code, out, _ = _run(capsys, ["quiver", "--quiver", "K2"])
    assert code == 0
    assert json.loads(out)["dynkin"] is None


def test_verify_command_exits_zero(capsys):
    code, out, _ = _run(
        capsys, ["verify", "--quivers", "A2", "--samples", "3", "--seed", "2026"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["all_passed"] is True
    # a non-Dynkin quiver may ride along with a Dynkin one
    code, out, _ = _run(capsys, ["verify", "--quivers", "K2,A2", "--samples", "1"])
    assert code == 0
    assert json.loads(out)["quivers"] == ["K2", "A2"]


def test_domain_errors_exit_three(capsys):
    code, _, err = _run(
        capsys, ["quiver", "--quiver", "vertices:2; arrows:1->2,2->1"]
    )
    assert code == 3
    assert json.loads(err)["error"]["type"] == "CyclicQuiver"
    code, _, err = _run(capsys, ["entropy", "--quiver", "K3", "--t", "0"])
    assert code == 3
    assert json.loads(err)["error"]["type"] == "BudgetExceeded"


def test_usage_errors_exit_two(capsys):
    code, _, err = _run(capsys, ["entropy"])
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ConfigError"
    code, _, err = _run(capsys, ["entropy", "--quiver", "A2", "--format", "yaml"])
    assert code == 2
    code, _, err = _run(capsys, [])
    assert code == 2


def _error_type(err):
    payload = json.loads(err)
    assert set(payload) == {"error"} and payload["error"]["message"]
    return payload["error"]["type"]


def test_nonfinite_charge_exits_three(capsys):
    code, out, err = _run(capsys, ["stab", "gldim", "--quiver", "A2", "--z=nan,1;1,1"])
    assert code == 3 and out == ""
    assert _error_type(err) == "NotAStabilityFunction"
    # finite simple charges whose sum, the charge of dim (1, 1), overflows
    for argv in (["stab", "gldim"], ["stab", "mass", "--t", "1"]):
        code, out, err = _run(capsys, argv + ["--quiver", "A2", "--z=0,1e308;0,1e308"])
        assert code == 3 and out == ""
        assert _error_type(err) == "NotAStabilityFunction"
        assert "(1, 1)" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [["entropy", "--quiver", "A2", "--t", "nan"], ["volume", "--quiver", "A2", "--lam", "1,nan"]],
    ids=["float-option", "float-list"],
)
def test_nan_float_input_exits_two(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert _error_type(err) == "ConfigError"


@pytest.mark.parametrize(
    "text, code, error",
    [
        (None, 2, "ConfigError"),
        ("{not json", 2, "ConfigError"),
        ('{"quiver": "A2"}', 2, "ConfigError"),
        ('{"quiver": "A2", "z_simples": [[1.0, Infinity], [1.0, 1.0]]}', 3,
         "NotAStabilityFunction"),
    ],
    ids=["missing-file", "not-json", "missing-key", "nonfinite-charge"],
)
def test_bad_sigma_file_exits_with_envelope(capsys, tmp_path, text, code, error):
    sigma_path = tmp_path / "sigma.json"
    if text is not None:
        sigma_path.write_text(text)
    got, out, err = _run(
        capsys, ["stab", "gldim", "--quiver", "A2", "--sigma", str(sigma_path)]
    )
    assert got == code and out == ""
    assert _error_type(err) == error


@pytest.mark.parametrize(
    "argv, code",
    [
        (["stab", "mass", "--quiver", "A2", "--gepner", "--nmax", "0"], 2),
        (["stab", "mass", "--quiver", "A2", "--gepner", "--nmax", "-3"], 2),
        (["stab", "mass", "--quiver", "A2", "--gepner", "--t", "1e308"], 2),
        (["entropy", "--quiver", "A2", "--t", "1e308"], 2),
        (["entropy", "--quiver", "A2", "--t-grid=1e308,0,1"], 2),
        (["stab", "mass", "--quiver", "A2", "--gepner", "--t", "2000"], 0),
    ],
    ids=["mass-nmax-0", "mass-nmax-negative", "mass-huge-t", "entropy-huge-t",
         "entropy-huge-t-grid", "mass-overflowing-exp"],
)
def test_short_series_and_float_overflow_end_cleanly(capsys, argv, code):
    got, out, err = _run(capsys, argv)
    assert got == code
    if code == 2:
        assert out == ""
        assert _error_type(err) == "ConfigError"
    else:
        assert err == ""
        rows = json.loads(out)["table"]["rows"]
        assert rows[0][1] == "inf"
        assert all(math.isfinite(rate) for _, _, rate in rows)


def test_entropy_profile_fits_huge_grid_points(tmp_path):
    # numpy's fit squares the t column; 1e300 must not overflow it into a
    # zero slope with warnings on stderr
    cmd = [sys.executable, "-m", "sdlab.cli",
           "entropy", "--quiver", "A2", "--t-grid=1e300,0,1"]
    run = subprocess.run(cmd, capture_output=True, text=True,
                         env=_subprocess_env(), cwd=str(tmp_path))
    assert run.returncode == 0
    assert run.stderr == ""
    assert abs(json.loads(run.stdout)["slope"] - 1.0 / 3.0) <= 1e-12


@pytest.mark.parametrize("grid", ["0,0,0", "1,1,1"], ids=["zeros", "ones"])
def test_entropy_profile_needs_two_distinct_grid_points(capsys, grid):
    # one abscissa fixes no line: numpy's fit raised LinAlgError at 0 and
    # printed a rank-deficient slope (1/6 on A2, true slope 1/3) at 1
    code, out, err = _run(capsys, ["entropy", "--quiver", "A2", "--t-grid=" + grid])
    assert code == 2 and out == ""
    assert _error_type(err) == "ConfigError"


# repeats, zero, unit and near-overflow values; lists may be empty
T_POOL = (0.0, 1.0, -1.0, 2.5, 1e300, -1e300)


@settings(derandomize=True, database=None, max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from([["entropy"], ["stab", "mass", "--gepner"]]),
    quiver=st.sampled_from(["A2", "D4"]),
    ts=st.lists(st.sampled_from(T_POOL), max_size=5),
)
def test_t_grid_inputs_end_in_an_exit_code(capsys, command, quiver, ts):
    argv = command + ["--quiver", quiver, "--t-grid=" + ",".join(map(repr, ts))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a float warning is a failure too
        code, out, err = _run(capsys, argv)
    assert code in (0, 2, 3)
    if code:
        assert out == ""
        _error_type(err)
    else:
        assert err == ""
        json.loads(out)


def test_out_writes_same_bytes(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, ["sdim", "--quiver", "A2", "--out", str(out_path)]
    )
    assert code == 0
    assert out_path.read_text() == out


def test_unwritable_out_exits_two_with_empty_stdout(capsys, tmp_path):
    out_path = tmp_path / "missing-dir" / "report.json"
    code, out, err = _run(capsys, ["quiver", "--quiver", "A2", "--out", str(out_path)])
    assert code == 2 and out == ""
    assert _error_type(err) == "ConfigError"
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["stab", "mass", "--quiver", "A2", "--gepner", "--t", "5", "--t-grid=0,1"],
         "give --t or --t-grid, not both"),
        (["curve", "--genus", "2", "--H", "7", "--h-grid", "1"],
         "give --H or --h-grid, not both"),
    ],
    ids=["mass", "curve"],
)
def test_single_value_and_grid_conflict_exits_two(capsys, argv, message):
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"] == message


@pytest.mark.parametrize(
    "argv",
    [
        ["quiver", "--quiver", "A2"],
        ["entropy", "--quiver", "A2"],
        ["sdim", "--quiver", "A2"],
        ["volume", "--quiver", "A2", "--lam", "1"],
        ["stab", "gepner", "--quiver", "A2"],
        ["gepner", "--quiver", "A2"],
        ["curve", "--genus", "2", "--H", "1"],
        ["stab", "gldim", "--quiver", "A2", "--z=1,1;-1,1"],
        ["stab", "fec", "--quiver", "A2", "--gepner"],
        ["stab", "restrict", "--quiver", "A3", "--gepner", "--subset", "1,2"],
        ["stab", "mass", "--quiver", "A2", "--gepner"],
    ],
    ids=["quiver", "entropy", "sdim", "volume", "stab-gepner", "gepner", "curve",
         "gldim-z", "fec-gepner", "restrict-gepner", "mass-gepner"],
)
def test_seed_is_rejected_where_nothing_reads_it(capsys, argv):
    code, out, err = _run(capsys, argv + ["--seed", "3"])
    assert code == 2 and out == ""
    assert _error_type(err) == "ConfigError"


def test_sample_source_without_seed_reads_seed_zero(capsys):
    argv = ["stab", "gldim", "--quiver", "A3", "--sample"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert _run(capsys, argv + ["--seed", "0"]) == (0, out, "")
    assert _run(capsys, argv + ["--seed", "1"])[1] != out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--samples", "0", "--quivers", "A2"], "samples must be at least 1"),
        (["verify", "--samples", "-1", "--quivers", "A2", "--format", "csv"],
         "samples must be at least 1"),
        (["sdim", "--quiver", "A2", "--budget", "0"], "budget must be at least 1"),
        (["entropy", "--quiver", "A2", "--budget", "-1"], "budget must be at least 1"),
        (["verify", "--quivers", "K2", "--samples", "1"],
         "verify needs at least one Dynkin quiver"),
    ],
    ids=["samples-0", "samples-neg", "budget-0", "budget-neg", "no-dynkin-quiver"],
)
def test_nonpositive_count_exits_two(capsys, argv, message):
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert _error_type(err) == "ConfigError"
    assert json.loads(err)["error"]["message"] == message


def test_curve_zero_h_is_not_a_missing_h(capsys):
    code, out, err = _run(capsys, ["curve", "--genus", "2", "--H", "0"])
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"] == "H must be positive"


def _subprocess_env():
    import sdlab

    # A relative PYTHONPATH (``src`` from the checkout) does not resolve from
    # the child's cwd, so the directory holding the imported sdlab goes first.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(sdlab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    return env


def test_repeated_runs_are_byte_identical(tmp_path):
    env = _subprocess_env()
    cmd = [
        sys.executable, "-m", "sdlab.cli",
        "stab", "sample", "--quiver", "D4", "--seed", "42",
    ]
    runs = [
        subprocess.run(cmd, capture_output=True, env=env, cwd=str(tmp_path))
        for _ in range(2)
    ]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout


def test_cli_leaves_working_directory_empty(tmp_path):
    env = _subprocess_env()
    env.pop("SDLAB_CACHE", None)
    cmd = [sys.executable, "-m", "sdlab.cli", "sdim", "--quiver", "E6"]
    run = subprocess.run(cmd, capture_output=True, env=env, cwd=str(tmp_path))
    assert run.returncode == 0 and run.stdout
    assert list(tmp_path.iterdir()) == []


def _modules_loaded(tmp_path, watched, argvs):
    """One child runs `import sdlab`, `import sdlab.cli` and then
    `main(argv)` for each argv in turn.  Returns the watched modules in
    sys.modules after each step, keyed by step, and each command's exit code
    and stdout."""
    script = (
        "import contextlib, io, json, sys\n"
        "watched = %r\n"
        "steps = {}\n"
        "def seen(step):\n"
        "    steps[step] = [m for m in watched if m in sys.modules]\n"
        "import sdlab\n"
        "seen('import sdlab')\n"
        "import sdlab.cli\n"
        "seen('import sdlab.cli')\n"
        "runs = []\n"
        "for argv in %r:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        runs.append((sdlab.cli.main(argv), out.getvalue()))\n"
        "    seen(' '.join(argv))\n"
        "print(json.dumps({'steps': steps, 'runs': runs}))\n"
    ) % (watched, argvs)
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=_subprocess_env(), cwd=str(tmp_path))
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    return report["steps"], report["runs"]


def test_every_exported_name_resolves():
    import sdlab

    missing = [name for name in sdlab.__all__ if not hasattr(sdlab, name)]
    assert missing == []
    namespace: dict = {}
    exec("from sdlab import *", namespace)
    assert set(sdlab.__all__) <= set(namespace)


def test_runtime_never_imports_the_exact_oracle(tmp_path):
    # semistability is decided by the Hom criterion on the integer tables,
    # so only `verify` reaches sdlab.reps
    steps, runs = _modules_loaded(
        tmp_path, ("sdlab.reps", "sdlab.exactmat"),
        [
            ["stab", "gepner", "--quiver", "E8", "--check"],
            ["stab", "sample", "--quiver", "E8", "--seed", "3"],
            ["stab", "gldim", "--quiver", "E8", "--sample", "--seed", "5"],
            ["stab", "fec", "--quiver", "E6", "--sample", "--seed", "11"],
        ],
    )
    assert len(steps) == 6
    assert steps == dict.fromkeys(steps, [])
    # the E6 sample has gldim above 1, so `fec` ends in GldimTooLarge after
    # the records are built
    assert [code for code, _ in runs] == [0, 0, 0, 3]
    assert json.loads(runs[0][1])["verdict"] is True


# `cli-cold` commands that need no eigenvector, line fit or curve oracle;
# K2 is not Dynkin, so `gepner` stops before the eigenvector
NUMPY_FREE_ARGV = [
    ["quiver", "--quiver", "E8"],
    ["sdim", "--quiver", "E8"],
    ["stab", "sample", "--quiver", "D8", "--seed", "7"],
    ["curve", "--genus", "2", "--h-grid", "0.5,1,10,100,1000"],
    ["stab", "gepner", "--quiver", "K2"],
]


def test_import_and_numpy_free_commands_never_load_numpy(tmp_path):
    steps, runs = _modules_loaded(tmp_path, ("numpy",), NUMPY_FREE_ARGV)
    assert len(steps) == 2 + len(NUMPY_FREE_ARGV)
    assert steps == dict.fromkeys(steps, [])
    assert [code for code, _ in runs] == [0, 0, 0, 0, 3]


# one argv per subcommand, the numpy users included
EVERY_COMMAND_ARGV = [
    ["quiver", "--quiver", "E6"],
    ["entropy", "--quiver", "A2", "--t-grid=0,1,2"],
    ["sdim", "--quiver", "A2"],
    ["volume", "--quiver", "A2", "--lam", "2"],
    ["stab", "gldim", "--quiver", "A3", "--sample"],
    ["stab", "sample", "--quiver", "D4", "--seed", "3"],
    ["stab", "gepner", "--quiver", "A2", "--check"],
    ["stab", "fec", "--quiver", "A2", "--gepner"],
    ["stab", "restrict", "--quiver", "A3", "--gepner", "--subset", "1,2"],
    ["stab", "mass", "--quiver", "A2", "--gepner"],
    ["gepner", "--quiver", "A3"],
    ["curve", "--genus", "2", "--H", "1"],
    ["verify", "--quivers", "A2", "--samples", "1"],
]


def test_no_command_loads_dataclasses(tmp_path):
    # the value types are namedtuples: dataclasses and its inspect import
    # were most of the import time
    steps, runs = _modules_loaded(tmp_path, ("dataclasses",), EVERY_COMMAND_ARGV)
    assert len(steps) == 2 + len(EVERY_COMMAND_ARGV)
    assert steps == dict.fromkeys(steps, [])
    assert [code for code, _ in runs] == [0] * len(EVERY_COMMAND_ARGV)
