"""Pinned sha256 digests of the ``sccd scc`` text and the trace table, both modes.

``render_result`` covers the corpus, ``trace_table`` its graphs of at most 30
nodes; both add the worked graphs.  A deliberate change of either text updates
its value, with a line in ``CHANGES.md``.
"""

from __future__ import annotations

import hashlib

from sccd.engine import Mode, assemble_partition, render_result, run, trace_table

from conftest import complete5, cycle_with_tail, pair_chain, tree9
from corpus import build_corpus

SCC_TEXT_SHA256 = "fa1e594e7368e95fe86a2aa03d2d17a7b652c07d50d67011c101729a483445a4"
TRACE_TEXT_SHA256 = "486be2b7b921982a93b8ef2440003a88b1eb6070eb03cb47d0f41dde46ca1718"


def text_digest(graphs, render) -> str:
    worked = [(make.__name__, make()) for make in (pair_chain, complete5, tree9, cycle_with_tail)]
    h = hashlib.sha256()
    for label, g in graphs + worked:
        for mode in Mode:
            h.update(f"{label} {mode.value}\n{render(g, mode)}".encode())
    return h.hexdigest()


def scc_text(g, mode):
    result = run(g, mode=mode)
    return render_result(result, assemble_partition(g, result))


def trace_text(g, mode):
    return trace_table(run(g, mode=mode, trace=True))


def test_scc_text_matches_pinned_digest():
    assert text_digest(build_corpus(), scc_text) == SCC_TEXT_SHA256


def test_trace_text_matches_pinned_digest():
    small = [(label, g) for label, g in build_corpus() if g.n <= 30]
    assert text_digest(small, trace_text) == TRACE_TEXT_SHA256
