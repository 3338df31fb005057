"""Every name a ``drumspec`` module imports is used in that module."""

import ast
from pathlib import Path

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
