"""numpy stays the only runtime dependency of the library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "jetzeta"

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "jetzeta"}


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_library_imports_only_stdlib_and_numpy():
    files = sorted(SRC.rglob("*.py"))
    assert files
    bad = {f"{path.relative_to(SRC)}: {root}"
           for path in files for root in _imported_roots(path) - ALLOWED}
    assert not bad, sorted(bad)
