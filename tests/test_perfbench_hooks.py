"""The benchmark's per-layer hooks name functions the program still has.

``perfbench/run.py`` wraps each ``(module, attr)`` pair of its
``LAYER_CALLS`` table after importing ``sccd.cli``, and only warns when
one is missing, so a renamed or re-imported function would silently
drop a layer from the benchmark's report.  The table is read from the
source, without importing the benchmark.
"""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _layer_calls() -> tuple[tuple[str, str, str], ...]:
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYER_CALLS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYER_CALLS assignment in {RUN_PY}")


def test_every_layer_hook_resolves_after_importing_the_cli():
    calls = _layer_calls()
    assert calls
    importlib.import_module("sccd.cli")
    missing = [
        (module, attr)
        for module, attr, _ in calls
        if not callable(getattr(sys.modules.get(module), attr, None))
    ]
    assert missing == []
