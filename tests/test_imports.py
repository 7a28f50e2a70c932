"""Static check on the package source: it imports only the standard library
and itself, and every name it imports is used."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "superpatterns"


def _import_problems(path: Path) -> tuple[list[str], list[str]]:
    """(modules imported from outside the standard library and the package,
    imported names never used), each entry naming the file and line."""
    outside: list[str] = []
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.partition(".")[0]
                imported[alias.asname or root] = node.lineno
                if root != "superpatterns" and root not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno} {alias.name}")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
            root = (node.module or "").partition(".")[0]
            if node.level == 0 and root != "superpatterns" and root not in sys.stdlib_module_names:
                outside.append(f"{path.name}:{node.lineno} {node.module}")
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            # A name listed in __all__ is re-exported, which is a use.
            used.update(ast.literal_eval(node.value))
    unused = [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    return outside, unused


def test_imports_are_standard_library_or_package_and_all_used():
    outside: list[str] = []
    unused: list[str] = []
    for path in sorted(SOURCE.glob("*.py")):
        o, u = _import_problems(path)
        outside += o
        unused += u
    assert outside == [], "imports from outside the standard library"
    assert unused == [], "imported names never used"
