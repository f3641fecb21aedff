"""Pinned sha256 digests of the ``sccd scc`` text, the trace table and the bench CSV, both modes.

``render_result`` covers the corpus, ``trace_table`` its graphs of at most 30
nodes; both add the worked graphs.  The CSV digest covers the non-timing
columns of the diameter suite and of one small run per family and parameter
set.  A deliberate change of any of these outputs updates its value, with a
line in ``CHANGES.md``.
"""

from __future__ import annotations

import csv
import hashlib

from sccd.bench import FAMILIES, ExperimentConfig, diameter_benchmark, emit_csv, run_experiment
from sccd.engine import Mode, assemble_partition, render_result, run, trace_table

from conftest import complete5, cycle_with_tail, pair_chain, tree9
from corpus import build_corpus

SCC_TEXT_SHA256 = "fa1e594e7368e95fe86a2aa03d2d17a7b652c07d50d67011c101729a483445a4"
TRACE_TEXT_SHA256 = "486be2b7b921982a93b8ef2440003a88b1eb6070eb03cb47d0f41dde46ca1718"
CSV_SHA256 = "225de643bc252cb3aa577c2f015cd2a900c197357a0a236cdc84477aa930e23d"


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


def test_csv_columns_match_pinned_digest(tmp_path):
    # Timings vary between calls, so every t_* column is left out.
    h = hashlib.sha256()
    for mode in Mode:
        runs = [diameter_benchmark(seed=1, mode=mode)] + [
            run_experiment(ExperimentConfig(family, pset, (60,), 2, seed=1, mode=mode))
            for family in FAMILIES
            for pset in (1, 2)
        ]
        for records in runs:
            path = tmp_path / "out.csv"
            emit_csv(records, path)
            with open(path, newline="") as f:
                rows = list(csv.reader(f))
            keep = [i for i, name in enumerate(rows[0]) if not name.startswith("t_")]
            for row in rows:
                h.update((",".join(row[i] for i in keep) + "\n").encode())
    assert h.hexdigest() == CSV_SHA256
