"""Module boundaries inside the package: a name with a leading underscore
belongs to its module, so no sibling imports it or reads it off the module
object.  Dunder names such as `__version__` are public."""

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
