"""Module boundaries inside the package: a name with a leading underscore
belongs to its module, so no sibling imports it or reads it off the module
object.  Dunder names such as `__version__` are public.  And the pairwise
Euler form is the catalog's: outside `catalog.py` and the `reps` oracle no
module calls `euler_form` per pair, but reads the catalog's chi table.
Likewise powers of the Serre functor step the catalog only in one walk.
And every exported name has a reader outside its own definition.  Only the
CLI touches files: no other module calls `open` or imports `json` or `os`."""

import ast
from pathlib import Path

import sdlab

PACKAGE = Path(sdlab.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]  # the checkout: perfbench/ and demos/ sit here


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _sibling(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "sdlab"


def _private_reads(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = set()  # local names bound to sibling modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _sibling(node):
            for alias in node.names:
                if _private(alias.name):
                    found.append("%s:%d imports %s" % (path.name, node.lineno, alias.name))
                elif node.module in (None, "sdlab"):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append("%s:%d reads %s.%s" % (path.name, node.lineno, node.value.id, node.attr))
    return found


def test_no_module_uses_a_private_name_of_a_sibling():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _private_reads(path)]
    assert found == []


def test_the_check_sees_private_imports_and_reads(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from . import __version__, entropy as ent\n"
        "from .entropy import _fit, growth_rate\n"
        "def f():\n"
        "    from sdlab.catalog import _CATALOGS\n"
        "    return ent._log(ent.growth_rate)\n"
    )
    assert _private_reads(path) == [
        "mod.py:2 imports _fit",
        "mod.py:4 imports _CATALOGS",
        "mod.py:5 reads ent._log",
    ]


def _calls(path: Path, name: str) -> list[str]:
    """Each call of `name` by bare name, and each read of `name` off an
    object (a bound method taken to call later counts), with the function
    it sits in."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            called = isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
            if (called and child.func.id == name) or (
                    isinstance(child, ast.Attribute) and child.attr == name):
                found.append("%s:%s" % (path.name, where))
            visit(child, where)

    visit(tree, "<module>")
    return found


def _callers(name: str) -> set[str]:
    """The functions outside `catalog.py` and the `reps` oracle that use `name`."""
    return {
        hit for path in sorted(PACKAGE.glob("*.py")) if path.name not in ("catalog.py", "reps.py")
        for hit in _calls(path, name)
    }


# the forms built on it where it is defined, and the check of euler_form itself
EULER_FORM_CALLERS = {
    "quivers.py:tits_form",
    "verify.py:check_euler_form_random_agreement",
}


def test_only_the_catalog_and_the_oracle_call_euler_form():
    assert _callers("euler_form") == EULER_FORM_CALLERS


# the Serre action on records and the verify rows that take single steps,
# the hand-stepped periodicity oracle among them; powers of S read the
# catalog's own orbits
SERRE_STEP_CALLERS = {
    "stability.py:act",
    "verify.py:check_coxeter_tau_action",
    "verify.py:check_serre_duality_modules",
    "verify.py:check_dynkin_periodicity",
    "verify.py:check_serre_image_phase_window",
}


def test_serre_powers_step_the_catalog_in_one_walk():
    assert _callers("serre_step") | _callers("serre_inv_step") == SERRE_STEP_CALLERS
    assert _callers("serre_inv_step") == set()


def test_the_check_sees_euler_form_calls(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from . import quivers\n"
        "from .quivers import euler_form\n"
        "x = euler_form(q, d, e)\n"
        "def f():\n"
        "    def g():\n"
        "        return quivers.euler_form(q, d, e)\n"
        "    return [euler_form(q, a, b) for a in d for b in e] + [euler_form]\n"
    )
    assert _calls(path, "euler_form") == ["mod.py:<module>", "mod.py:g", "mod.py:f"]


def test_the_check_sees_steps_taken_as_bound_methods(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "def walk(cat, n):\n"
        "    step = cat.serre_step if n >= 0 else cat.serre_inv_step\n"
        "    return step(0), serre_step\n"
        "def act(cat):\n"
        "    return cat.serre_step(0)\n"
    )
    assert _calls(path, "serre_step") == ["mod.py:walk", "mod.py:act"]
    assert _calls(path, "serre_inv_step") == ["mod.py:walk"]


def _reads(path: Path) -> set[str]:
    """The names `path` reads, by bare name or off an object, outside the
    function or class of the same name (a class reading itself in its own
    methods is no caller)."""
    found = set()

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, inside | {child.name})
                continue
            if isinstance(getattr(child, "ctx", None), ast.Load):  # a Name's id, an Attribute's attr
                name = getattr(child, "id", None) or getattr(child, "attr", None)
                if name is not None and name not in inside:
                    found.add(name)
            visit(child, inside)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return found


def _exported_names_without_a_reader(files) -> list[str]:
    read = set().union(*map(_reads, files))
    return [name for name in sdlab.__all__ if name not in read]


def test_every_exported_name_has_a_reader():
    # the package outside `__init__.py`, the benchmark and the demos; the
    # tests do not count, so a name only its own test calls fails here
    files = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").rglob("*.py")) + sorted((ROOT / "demos").rglob("*.py"))
    assert _exported_names_without_a_reader(files) == []


def test_the_check_sees_readers_outside_the_definition(tmp_path, monkeypatch):
    path = tmp_path / "mod.py"
    path.write_text(
        "import sdlab as sd\n"
        "class Kept:\n"
        "    def copy(self):\n"
        "        return Kept()\n"
        "def unread(x):\n"
        "    return unread(x - 1)\n"
        "def tits_form(q, d):\n"
        "    return tits_form(q, d)\n"
        "def caller():\n"
        "    return sd.volume, tits_form(q, d)\n"
    )
    monkeypatch.setattr(sdlab, "__all__", ["Kept", "unread", "volume", "tits_form"])
    assert _exported_names_without_a_reader([path]) == ["Kept", "unread"]


FILE_MODULES = ("json", "os")


def _file_access(path: Path) -> list[str]:
    """Each call of `open` by bare name and each import of `json` or `os`
    (or a submodule of one) in `path`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
            found.append("%s:%d calls open" % (path.name, node.lineno))
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        for name in names:
            if name.split(".")[0] in FILE_MODULES:
                found.append("%s:%d imports %s" % (path.name, node.lineno, name))
    return found


def test_only_the_cli_touches_files():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) if path.name != "cli.py"
             for hit in _file_access(path)]
    assert found == []


def test_the_check_sees_open_calls_and_file_imports(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import json\n"
        "import math, os.path\n"
        "from os import replace\n"
        "from . import jsonish\n"
        "def f(p):\n"
        "    with open(p) as fh:\n"
        "        return fh.read(), p.open()\n"
    )
    assert _file_access(path) == [
        "mod.py:1 imports json",
        "mod.py:2 imports os.path",
        "mod.py:3 imports os",
        "mod.py:6 calls open",
    ]
