"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "edgesym"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression or annotation
    of the module reads, quoted annotations included."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            note = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used.update(n.id for n in ast.walk(ast.parse(note.value)) if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from typing import Optional, Sequence\n"
        "from .graph import Edge, Graph\n"
        "def f(g: Graph, v: 'Optional[int]') -> 'Sequence[int]':\n"
        "    import json\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["Edge (line 4)", "json (line 6)", "osp (line 2)"]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []
