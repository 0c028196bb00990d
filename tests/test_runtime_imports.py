"""The runtime package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "percept_cane"


def absolute_imports(path: Path) -> list[tuple[int, str]]:
    """``(line, top-level name)`` of every absolute import in one module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name.partition(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.partition(".")[0]))
    return found


def test_runtime_is_stdlib_only():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 1
    outside = [
        f"{path.name}:{line}: {name}"
        for path in modules
        for line, name in absolute_imports(path)
        if name != "percept_cane" and name not in sys.stdlib_module_names
    ]
    assert outside == []
