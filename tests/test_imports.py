"""Every module of the package uses each name it imports, or exports it in
``__all__``.  No linter is a dependency, so the check parses the sources with
``ast``; ``__init__.py`` is left out, since it imports only to re-export."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lyaprod"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """The names that ``source`` imports but neither uses nor lists in
    ``__all__``, sorted."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_finds_a_leftover_import():
    source = "import math\nimport numbers\nfrom x import a, b as c\n__all__ = ['a']\nmath.pi\n"
    assert unused_imports(source) == ["c", "numbers"]


def test_every_module_is_checked():
    assert {"cli.py", "specfun.py", "theory.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
