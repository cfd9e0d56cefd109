"""tools/cli_diff.py: the cli-cold argv it reads, and what it reports."""

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cli_diff.py"
ARGVS = [["quiver", "--quiver", "A2"], ["quiver", "--quiver", "bogus"]]


def _tool():
    spec = importlib.util.spec_from_file_location("cli_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_cli_cold_argv_have_their_sample_seed():
    argvs = _tool().cli_cold_argvs(ROOT)
    assert len(argvs) == 13
    assert ["stab", "sample", "--quiver", "D8", "--seed", "1"] in argvs
    assert not any("{" in a for argv in argvs for a in argv)


def test_a_tree_against_itself_reports_nothing():
    summary = _tool().compare(ROOT, ROOT, ARGVS[:1])
    assert summary["argv_count"] == 1 and summary["differences"] == []


def test_one_changed_output_is_caught(tmp_path, capsys):
    tool = _tool()
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "sdlab" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert '"kind": "quiver",' in text
    cli.write_text(text.replace('"kind": "quiver",', '"kind": "quiver-changed",'), encoding="utf-8")
    # the argv file's lists run after the cli-cold ops, left out here
    argv_file = tmp_path / "argv.json"
    argv_file.write_text(json.dumps(ARGVS), encoding="utf-8")
    tool.cli_cold_argvs = lambda root: []
    assert tool.main([str(ROOT), str(tmp_path), str(argv_file)]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["argv_count"] == 2
    assert [d["argv"] for d in summary["differences"]] == [ARGVS[0]]
    assert summary["differences"][0]["fields"] == ["stdout"]
    assert "quiver-changed" in summary["differences"][0]["b"]["stdout"]
    assert summary["differences"][0]["mismatch"] == "$.kind: 'quiver-changed' != 'quiver'"


def test_a_float_within_the_answer_tolerance_has_a_null_mismatch(tmp_path):
    # a last-digit change of a float shows in the bytes, and the answer
    # check's verdict shows that it stays within the benchmark's 1e-9
    tool = _tool()
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "sdlab" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    estimate = '"estimate": ent.entropy_estimate(q, t, ns.n_max, ns.budget),'
    assert estimate in text
    cli.write_text(text.replace(estimate, estimate[:-1] + " * (1 + 2**-50),"), encoding="utf-8")
    # a CSV stdout is no JSON, so its entry has no mismatch
    argv = ["entropy", "--quiver", "A4", "--t", "1"]
    summary = tool.compare(ROOT, tmp_path, [argv, argv + ["--format", "csv"]])
    assert [d["argv"] for d in summary["differences"]] == [argv, argv + ["--format", "csv"]]
    assert summary["differences"][0]["mismatch"] is None
    assert "mismatch" not in summary["differences"][1]

def test_several_argv_files_follow_the_cli_cold_argv_in_order(tmp_path, capsys):
    tool = _tool()
    files = []
    for name, argvs in (("first.json", ARGVS), ("second.json", ARGVS[:1])):
        files.append(tmp_path / name)
        files[-1].write_text(json.dumps(argvs), encoding="utf-8")
    seen = []

    def compare(a, b, argvs):  # records the argv and runs none
        seen.extend(argvs)
        return {"argv_count": len(argvs), "differences": []}

    tool.cli_cold_argvs = lambda root: [["quiver", "--quiver", "A1"]]
    tool.compare = compare
    assert tool.main([str(ROOT), str(ROOT), *map(str, files)]) == 0
    assert seen == [["quiver", "--quiver", "A1"], *ARGVS, ARGVS[0]]
    assert json.loads(capsys.readouterr().out)["argv_count"] == 4
    assert tool.main([str(ROOT)]) == 2


def test_every_argv_file_is_a_nonempty_list_of_nonempty_string_lists():
    # the files are read by the tool only; none of their argv runs here
    files = sorted((ROOT / "tools").glob("*_argv.json"))
    assert {f.name for f in files} >= {"entropy_argv.json", "stab_argv.json"}
    for path in files:
        argvs = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(argvs, list) and argvs, path.name
        for argv in argvs:
            assert isinstance(argv, list) and argv, (path.name, argv)
            assert all(isinstance(a, str) and a for a in argv), (path.name, argv)
