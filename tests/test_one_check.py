"""Two facts of the package each have one implementation: a Sigma spectrum
is checked only where ``sigma.SigmaSpec.of`` builds a SigmaSpec, and a
matrix is inverted only in ``ensembles._invert``.  Like ``test_imports.py``,
the check parses the sources with ``ast``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lyaprod"
MODULES = sorted(SRC.glob("*.py"))


def calls(source, is_target):
    """(enclosing function, e.g. ``SigmaSpec.of`` or ``<module>``) of every
    call in ``source`` whose callee satisfies ``is_target``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and is_target(node.func):
            found.append(scope or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def builds_sigma_spec(func):
    return (isinstance(func, ast.Name) and func.id == "SigmaSpec"
            or isinstance(func, ast.Attribute) and func.attr == "SigmaSpec")


def inverts(func):
    """``np.linalg.inv``, ``numpy.linalg.inv`` or ``linalg.inv``."""
    return (isinstance(func, ast.Attribute) and func.attr == "inv"
            and isinstance(func.value, ast.Attribute) and func.value.attr == "linalg"
            or isinstance(func, ast.Attribute) and func.attr == "inv"
            and isinstance(func.value, ast.Name) and func.value.id == "linalg")


def package_calls(is_target):
    """{module name: enclosing functions} of the package's calls to the target."""
    found = {p.name: calls(p.read_text(), is_target) for p in MODULES}
    return {name: scopes for name, scopes in found.items() if scopes}


def test_finds_a_second_converter_and_a_replay():
    source = ("class SigmaSpec:\n"
              "    def of(y):\n        return SigmaSpec(y)\n"
              "def kargin(spec):\n    spec = SigmaSpec(tuple(spec))\n"
              "def blocks(g):\n    for s in g:\n        np.linalg.inv(s)\n")
    assert calls(source, builds_sigma_spec) == ["SigmaSpec.of", "kargin"]
    assert calls(source, inverts) == ["blocks"]


@pytest.mark.parametrize("is_target,where", [
    (builds_sigma_spec, {"sigma.py": ["SigmaSpec.of"]}),
    (inverts, {"ensembles.py": ["_invert"]}),
], ids=["sigma-spec", "inverse"])
def test_one_implementation(is_target, where):
    assert package_calls(is_target) == where
