"""Each name in ``sccd.__all__`` is read, outside its own definition, by a package
module other than ``__init__.py`` or by ``perfbench/``; test-only code lives in ``tests/``."""

from __future__ import annotations

import ast
from pathlib import Path

import sccd

ROOT = Path(__file__).resolve().parents[1]


def _reads(tree: ast.Module, skip: str) -> set[str]:
    """Names and attributes read outside the top-level definition of ``skip``."""
    body = [stmt for stmt in tree.body if getattr(stmt, "name", None) != skip]
    nodes = [node for stmt in body for node in ast.walk(stmt)]
    return {n.id for n in nodes if isinstance(n, ast.Name)} | {
        n.attr for n in nodes if isinstance(n, ast.Attribute)
    }


def test_every_export_has_a_caller_outside_the_tests():
    paths = set((ROOT / "src" / "sccd").glob("*.py")) - {ROOT / "src" / "sccd" / "__init__.py"}
    trees = [ast.parse(p.read_text()) for p in paths | set((ROOT / "perfbench").glob("*.py"))]
    unread = [name for name in sccd.__all__ if not any(name in _reads(t, name) for t in trees)]
    assert unread == []
