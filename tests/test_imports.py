"""Every name a module of the package imports is used in that module, and
every private module-level function or class is read by some module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "edgesym"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def names_read(tree: ast.AST) -> set[str]:
    """Names that an expression or annotation of the tree reads, quoted
    annotations included."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            note = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= names_read(ast.parse(note.value))
    return used


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression or annotation
    of the module reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = names_read(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def private_definitions(tree: ast.Module) -> list[ast.stmt]:
    """Module-level functions and classes whose name starts with a single
    underscore."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node for node in tree.body if isinstance(node, kinds)
            and node.name.startswith("_") and not node.name.startswith("__")]


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """Private module-level functions and classes that no module reads, by
    name or as an attribute of a module."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read: set[str] = set()
    for tree in trees.values():
        read |= names_read(tree)
        read.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
    return sorted(f"{module}: {node.name} (line {node.lineno})"
                  for module, tree in trees.items()
                  for node in private_definitions(tree) if node.name not in read)


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


def test_dead_definition_checker_flags_only_unread_names():
    sources = {
        "a.py": "def _used(): pass\ndef _dead(): pass\nclass _Also: pass\ndef __dunder__(): pass\n",
        "b.py": "from . import a\nfrom .c import _Typed\na._used()\nx: '_Typed' = None\n",
        "c.py": "class _Typed: pass\ndef public(): pass\n",
    }
    assert unread_definitions(sources) == ["a.py: _Also (line 3)", "a.py: _dead (line 2)"]


def test_package_has_no_unread_private_definitions():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert sum(len(private_definitions(ast.parse(s))) for s in sources.values()) >= 40
    assert unread_definitions(sources) == []
