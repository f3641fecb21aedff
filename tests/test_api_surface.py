"""The package keeps no code and no option that only the tests use.

Each name in ``sccd.__all__`` and each top-level function and class in
``src/sccd/`` is read, outside its own definition, by a package module other
than ``__init__.py`` or by ``perfbench/``; and each defaulted parameter of a
public function is set by some call there.  Test-only code lives in ``tests/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import sccd

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "sccd").glob("*.py"))
CALLERS = [p for p in PACKAGE if p.name != "__init__.py"]
CALLERS += sorted((ROOT / "perfbench").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


def _reads(stmt: ast.stmt) -> set[str]:
    """Names and attributes read in one top-level statement."""
    nodes = list(ast.walk(stmt))
    return {n.id for n in nodes if isinstance(n, ast.Name)} | {
        n.attr for n in nodes if isinstance(n, ast.Attribute)
    }


def test_every_export_has_a_caller_outside_the_tests():
    # (name of the statement's definition, if any; what the statement reads)
    statements = [
        (getattr(stmt, "name", None), _reads(stmt)) for p in CALLERS for stmt in _tree(p).body
    ]
    defined = [
        stmt.name
        for path in PACKAGE
        for stmt in _tree(path).body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
    ]
    unread = [
        name
        for name in dict.fromkeys([*sccd.__all__, *defined])
        if not any(name in reads and name != owner for owner, reads in statements)
    ]
    assert unread == []


def test_every_default_is_overridden_outside_the_tests():
    calls = [node for p in CALLERS for node in ast.walk(_tree(p)) if isinstance(node, ast.Call)]

    def overridden(function: str, position: int | None, name: str) -> bool:
        for call in calls:
            callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if callee == function and (
                any(k.arg == name for k in call.keywords)
                or (position is not None and len(call.args) > position)
            ):
                return True
        return False

    unset = []
    for path in PACKAGE:
        for stmt in _tree(path).body:
            if not isinstance(stmt, ast.FunctionDef) or stmt.name.startswith("_"):
                continue
            args = stmt.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [
                (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            unset += [f"{stmt.name}({name})" for i, name in defaulted
                      if not overridden(stmt.name, i, name)]
    assert unset == []
