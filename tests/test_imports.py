"""Module boundaries inside the package: a name with a leading underscore
belongs to its module, so no sibling imports it or reads it off the module
object.  Dunder names such as `__version__` are public.  And the pairwise
Euler form is the catalog's: outside `catalog.py` and the `reps` oracle no
module calls `euler_form` per pair, but reads the catalog's chi table."""

import ast
from pathlib import Path

import sdlab

PACKAGE = Path(sdlab.__file__).resolve().parent


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


def _euler_form_calls(path: Path) -> list[str]:
    """Each call of `euler_form`, by name or as a module attribute, with the
    function it sits in."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "euler_form":
                    found.append("%s:%s" % (path.name, where))
            visit(child, where)

    visit(tree, "<module>")
    return found


# the forms built on it where it is defined, and the check of euler_form itself
EULER_FORM_CALLERS = {
    "quivers.py:symmetrized_form",
    "quivers.py:tits_form",
    "verify.py:check_euler_form_random_agreement",
}


def test_only_the_catalog_and_the_oracle_call_euler_form():
    found = {
        hit for path in sorted(PACKAGE.glob("*.py")) if path.name not in ("catalog.py", "reps.py")
        for hit in _euler_form_calls(path)
    }
    assert found == EULER_FORM_CALLERS


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
    assert _euler_form_calls(path) == ["mod.py:<module>", "mod.py:g", "mod.py:f"]
