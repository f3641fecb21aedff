"""Pinned digest of the ``sccd scc`` text over the corpus and the worked graphs.

The digest is one sha256 over ``render_result`` for every corpus graph
and every worked graph, in both modes.  It was taken before the
partition's representation changed, so any change to the component
lines, the round counts or the diameter line shows here.  A deliberate
change of that text updates the value, with a line in ``CHANGES.md``.
"""

from __future__ import annotations

import hashlib

from sccd.engine import Mode, assemble_partition, render_result, run

from conftest import complete5, cycle_with_tail, pair_chain, tree9
from corpus import build_corpus

SCC_TEXT_SHA256 = "fa1e594e7368e95fe86a2aa03d2d17a7b652c07d50d67011c101729a483445a4"


def scc_text_digest() -> str:
    graphs = build_corpus() + [
        (make.__name__, make()) for make in (pair_chain, complete5, tree9, cycle_with_tail)
    ]
    h = hashlib.sha256()
    for label, g in graphs:
        for mode in Mode:
            result = run(g, mode=mode)
            text = render_result(result, assemble_partition(g, result))
            h.update(f"{label} {mode.value}\n{text}".encode())
    return h.hexdigest()


def test_scc_text_matches_pinned_digest():
    assert scc_text_digest() == SCC_TEXT_SHA256
