"""Pinned sha256 digests of the ``sccd scc`` text, the trace table, the bench CSV and the CLI.

``render_result`` covers the corpus, ``trace_table`` its graphs of at most 30
nodes; both add the worked graphs and both modes.  The CSV digest covers the
non-timing columns of the diameter suite and of one small run per family and
parameter set.  The CLI digest covers argv, stdout, stderr and exit code of
in-process ``sccd.cli.main`` calls on edge-list files, malformed and hostile
ones included, and on ``gen`` parameter errors.  A deliberate change of any of
these outputs updates its value, with a line in ``CHANGES.md``.
"""

from __future__ import annotations

import csv
import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

from sccd.bench import FAMILIES, ExperimentConfig, diameter_benchmark, emit_csv, run_experiment
from sccd.cli import main
from sccd.engine import Mode, assemble_partition, render_result, run
from sccd.graphs import serialize_edge_list

from conftest import complete5, cycle_with_tail, edge_list_text, pair_chain, tree9
from corpus import build_corpus
from history import streamed_table

SCC_TEXT_SHA256 = "fa1e594e7368e95fe86a2aa03d2d17a7b652c07d50d67011c101729a483445a4"
TRACE_TEXT_SHA256 = "486be2b7b921982a93b8ef2440003a88b1eb6070eb03cb47d0f41dde46ca1718"
CSV_SHA256 = "225de643bc252cb3aa577c2f015cd2a900c197357a0a236cdc84477aa930e23d"
CLI_SHA256 = "a685d0860cb4b3619f5d11aa75a0653ad642500e69ebe2e7e7cd15b145146ab0"

# Malformed and hostile files, and edge cases of the format, by name.
HOSTILE_FILES = {
    "empty.txt": "",
    "comments.txt": "# only a comment\n\n",
    "three_ids.txt": "0 1\n1 2 3\n",
    "word.txt": "0 1\nbogus line\n",
    "negative.txt": "0 -1\n",
    "huge_id.txt": "0 99999999999\n",
    "huge_nodes.txt": "# nodes: 99999999999\n0 1\n",
    "small_nodes.txt": "0 5\n# nodes: 3\n",
    "two_directives.txt": "# nodes: 4\n# nodes: 4\n0 1\n",
    "unicode_digit.txt": "0 \u0661\n",
    "too_wide_to_check.txt": "# nodes: 4097\n0 1\n",
}

GEN_ERRORS = (
    ["gen", "er", "--n", "-2", "--m", "3", "--seed", "1"],
    ["gen", "ws", "--n", "-1", "--k", "-2", "--p", "0.5", "--seed", "1"],
    ["gen", "ba", "--n", "16777217", "--m", "3", "--seed", "1"],
    ["gen", "ws", "--n", "10", "--k", "4", "--p", "1.5", "--seed", "1"],
)


def text_digest(graphs, render) -> str:
    worked = [(make.__name__, make()) for make in (pair_chain, complete5, tree9, cycle_with_tail)]
    h = hashlib.sha256()
    for label, g in graphs + worked:
        for mode in Mode:
            h.update(f"{label} {mode.value}\n{render(g, mode)}".encode())
    return h.hexdigest()


def scc_text(g, mode):
    result = run(g, mode=mode)
    return render_result(result, assemble_partition(result))


def test_scc_text_matches_pinned_digest():
    assert text_digest(build_corpus(), scc_text) == SCC_TEXT_SHA256


def test_trace_text_matches_pinned_digest():
    small = [(label, g) for label, g in build_corpus() if g.n <= 30]
    assert text_digest(small, streamed_table) == TRACE_TEXT_SHA256


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


def crlf_base1(g) -> str:
    """``g`` with 1-based ids, CRLF line ends and ``#`` comments, read by the line loop."""
    lines = ["# worked or corpus graph, ids from 1"]
    for line in edge_list_text(g, base=1).splitlines():
        lines.append(line if line.startswith("#") else f"{line}  # edge")
    return "\r\n".join(lines) + "\r\n"


def test_cli_output_matches_pinned_digest(tmp_path):
    worked = [make() for make in (pair_chain, complete5, tree9, cycle_with_tail)]
    small = [g for _, g in build_corpus() if g.n <= 30][::10]
    files = []
    for i, g in enumerate(worked + small):
        for base, text in ((0, serialize_edge_list(g)), (1, crlf_base1(g))):
            path = tmp_path / f"g{i}_base{base}.txt"
            path.write_bytes(text.encode())
            files.append((str(path), base))
    for name, text in HOSTILE_FILES.items():
        (tmp_path / name).write_bytes(text.encode())
        files.append((str(tmp_path / name), 0))
    files.append((str(tmp_path / "absent.txt"), 0))
    calls = [
        [*command, path, "--base", str(base), *mode]
        for path, base in files
        for command in (["scc"], ["diameter"], ["diameter", "--check"], ["trace"])
        for mode in ([], ["--global-rounds"])
    ]
    h = hashlib.sha256()
    for argv in calls + list(GEN_ERRORS):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        record = f"{argv}\n{code}\n{out.getvalue()}\n{err.getvalue()}\n"
        h.update(record.replace(str(tmp_path), "<tmp>").encode())
    assert h.hexdigest() == CLI_SHA256
