"""The runtime package and the test oracles import nothing outside the
standard library (and the package), and every name the package imports is
used."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "percept_cane"
ORACLES = Path(__file__).resolve().parent / "oracles.py"


def absolute_imports(path: Path) -> list[tuple[int, str]]:
    """``(line, top-level name)`` of every absolute import in one module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name.partition(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.partition(".")[0]))
    return found


def outside_stdlib(modules: list[Path]) -> list[str]:
    """``path:line: name`` of every import from outside the standard
    library and ``percept_cane``."""
    return [
        f"{path.name}:{line}: {name}"
        for path in modules
        for line, name in absolute_imports(path)
        if name != "percept_cane" and name not in sys.stdlib_module_names
    ]


def test_runtime_is_stdlib_only():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 1
    assert outside_stdlib(modules) == []


def test_oracles_are_stdlib_only():
    # the reference implementations need nothing the runtime does not
    assert absolute_imports(ORACLES)
    assert outside_stdlib([ORACLES]) == []


def unused_imports(path: Path) -> list[str]:
    """``path:line: name`` of every name one module imports but never
    references; a stand-in for a linter's unused-import rule."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_runtime_imports_only_names_it_uses():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 1
    assert [entry for path in modules for entry in unused_imports(path)] == []


def test_unused_import_check_flags_a_leftover(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import NamedTuple, Protocol\n"
        "from . import speech as sp\n"
        "class M(NamedTuple):\n"
        "    x: int\n"
        "print(os.path.sep)\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == ["m.py:3: Protocol", "m.py:4: sp"]
