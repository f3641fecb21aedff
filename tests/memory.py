"""Memory measures for generated and parsed graphs, without pytest.

:func:`traced_peak` gives the tracemalloc peak of one call and
:func:`graph_bytes` what the returned graph holds.  Tier-1 holds the
generators and the parser to bounds in these terms, the parser on each
of :data:`FORMS`; CI checks one graph too large for Tier-1 both ways, and
parses its text in the clean form and with CRLF line ends:

    PYTHONPATH=src:tests python -c "from memory import check_ba_peak; check_ba_peak(2000, 400, 1)"
    PYTHONPATH=src:tests python -c "from memory import check_parse_peak; check_parse_peak(2000, 400, 1)"
    PYTHONPATH=src:tests python -c "from memory import check_parse_peak; check_parse_peak(2000, 400, 1, 'crlf')"
"""
from __future__ import annotations

import sys
import tracemalloc

from sccd.generators import gen_barabasi_albert
from sccd.graphs import parse_edge_list, serialize_edge_list


def traced_peak(make):
    """What ``make()`` returns and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        made = make()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return made, peak


def graph_bytes(g) -> int:
    """Bytes of the tuples and ints a graph's adjacency holds, each object once.

    Small ints are shared by the interpreter and cost the graph nothing.
    """
    seen = {}
    for adj in (g.in_adj, g.out_adj):
        seen[id(adj)] = sys.getsizeof(adj)
        for heads in adj:
            seen[id(heads)] = sys.getsizeof(heads)
            for v in heads:
                if not -5 <= v <= 256:
                    seen[id(v)] = sys.getsizeof(v)
    return sum(seen.values())


def check_ba_peak(n: int, m: int, seed: int) -> None:
    """Exit non-zero unless generating BA(n, m) peaks below twice its graph."""
    g, peak = traced_peak(lambda: gen_barabasi_albert(n, m, seed))
    held = graph_bytes(g)
    print(f"BA n={n} m={m}: {g.m} edges, peak {peak / 2**20:.1f} MiB, graph {held / 2**20:.1f} MiB")
    if peak >= 2 * held:
        sys.exit("generation peaked at twice the graph or more")


# Edge-list text as serialize_edge_list writes it ("clean"), and four edits
# of it: a comment first line, which the line loop reads on its own; tabs,
# which the bulk decode takes as it takes spaces; and no final newline and
# CRLF line ends, which send the last chunk and every chunk to the line loop.
FORMS = {
    "clean": lambda text: text,
    "comment": lambda text: "# comment\n" + text,
    "no final newline": lambda text: text[:-1],
    "tab": lambda text: text.replace(" ", "\t"),
    "crlf": lambda text: text.replace("\n", "\r\n"),
}


def check_parse_peak(n: int, m: int, seed: int, form: str = "clean") -> None:
    """Exit non-zero unless parsing BA(n, m)'s edge list in ``form`` peaks below 1.5 times its graph."""
    text = FORMS[form](serialize_edge_list(gen_barabasi_albert(n, m, seed)))
    g, peak = traced_peak(lambda: parse_edge_list(text))
    held = graph_bytes(g)
    print(f"BA n={n} m={m} {form} text: {len(text)} characters, "
          f"peak {peak / 2**20:.1f} MiB, graph {held / 2**20:.1f} MiB")
    if peak >= 1.5 * held:
        sys.exit("parsing peaked at 1.5 times the graph or more")
