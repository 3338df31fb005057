"""Every name a ``drumspec`` module imports is used in that module, and a
drumspec process loads only the scipy it runs."""

import ast
import json
import subprocess
import sys
from pathlib import Path

from drumspec.cli import VERDICT_EXIT

SRC = Path(__file__).resolve().parents[1] / "src" / "drumspec"


def unused_imports(path):
    """Names bound by an import anywhere in ``path`` that no expression reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert unused == []


# scipy subpackages are imported inside the functions that call them, so
# that a process that neither meshes, solves nor finds Bessel zeros does
# not pay for loading them.
BUDGET_PROBE = """
import importlib, json, pkgutil, sys
import drumspec
for info in pkgutil.iter_modules(drumspec.__path__):
    importlib.import_module("drumspec." + info.name)
from drumspec import cli
from drumspec.analytic_spectra import rectangle_spectrum, write_spectrum
from drumspec.geometry import make_disk, make_equilateral_triangle, save_domain

def loaded():
    return sorted(m for m in sys.modules if m in {budget!r})

write_spectrum(rectangle_spectrum(1.0, 1.0, 2.0e4), "square.spectrum")
save_domain(make_equilateral_triangle(), "triangle.yaml")
save_domain(make_disk(), "disk.yaml")
steps = [("imports", loaded())]
for argv in (["classify", "--spectrum", "square.spectrum"],
             ["spectrum", "--domain", "triangle.yaml", "--cutoff", "1e4"],
             ["spectrum", "--domain", "disk.yaml", "--cutoff", "1e4"]):
    code = cli.main(argv)
    steps.append((argv[0] + " " + argv[2], code, loaded()))
print(json.dumps(steps))
"""


def test_only_the_scipy_a_command_runs_is_imported(tmp_path):
    budget = {"scipy.sparse", "scipy.spatial", "scipy.linalg", "scipy.special"}
    src = str(SRC.parent)
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n"
         + BUDGET_PROBE.format(budget=budget)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    imports, classify, triangle, disk = json.loads(proc.stdout.splitlines()[-1])
    assert imports == ["imports", []]
    assert classify == ["classify square.spectrum",
                        VERDICT_EXIT["has_corners"], []]
    assert triangle == ["spectrum triangle.yaml", 0, []]
    assert disk == ["spectrum disk.yaml", 0, ["scipy.special"]]
