"""scipy's Bessel J functions are called in one place: the recurrence
evaluator ``analytic_spectra._jv``, which gives J_nu and J_nu' together,
refuses the unstable x <= nu and checks every value for finiteness.  The
zero finder's stability argument and its tests against mpmath hold for that
evaluator only, so no other code path may evaluate J."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "drumspec"
BESSEL_J = {"jv", "jn", "jve"}


def bessel_j_references(path):
    """(imports, uses) of scipy.special's jv, jn and jve in ``path``:
    imports as line numbers, uses as (enclosing function or '', line)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imports, bound = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
            for alias in node.names:
                if alias.name in BESSEL_J:
                    imports.append(node.lineno)
                    bound.add(alias.asname or alias.name)
    uses = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Name) and child.id in bound
                    or isinstance(child, ast.Attribute) and child.attr in BESSEL_J):
                uses.append((func, child.lineno))
            visit(child, func)

    visit(tree, "")
    return imports, uses


def test_only_analytic_spectra_references_bessel_j():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "analytic_spectra.py")
    assert modules
    found = {p.name: bessel_j_references(p) for p in modules}
    assert {name: refs for name, refs in found.items() if refs != ([], [])} == {}


def test_only_the_recurrence_evaluator_calls_jv():
    imports, uses = bessel_j_references(SRC / "analytic_spectra.py")
    assert imports
    assert uses
    assert {func for func, _ in uses} == {"_jv"}


def test_reference_check_sees_every_spelling(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "import scipy.special\n"
        "from scipy import special as sp\n"
        "from scipy.special import jn as bessel\n"
        "x = scipy.special.jv(1, 2)\n"
        "def f(v):\n"
        "    return sp.jve(1, v) + bessel(1, v)\n")
    imports, uses = bessel_j_references(path)
    assert imports == [3]
    assert sorted(uses) == [("", 4), ("f", 6), ("f", 6)]
