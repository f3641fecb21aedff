from __future__ import annotations

from dataclasses import fields

import pytest

from sccd import graphs
from sccd.generators import gen_barabasi_albert, gen_erdos_renyi, gen_watts_strogatz
from sccd.graphs import (
    Digraph,
    EdgeListError,
    max_in_degree,
    parse_edge_list,
    serialize_edge_list,
)
from sccd.oracles import scc_kosaraju
from sccd.stats import graph_stats

from conftest import PAIR_CHAIN_TEXT, complete5, edge_list_text, edge_set, pair_chain, tree9
from memory import FORMS, graph_bytes, traced_peak


def test_parse_worked_example_base1():
    g = parse_edge_list(PAIR_CHAIN_TEXT, base=1)
    assert g.n == 6
    assert g.m == 8
    assert edge_set(g) == edge_set(pair_chain())


def test_parse_empty_text():
    g = parse_edge_list("")
    assert g.n == 0
    assert g.m == 0


def test_parse_duplicates_collapse():
    g = parse_edge_list("0 1\n0 1", base=0)
    assert g.n == 2
    assert g.m == 1


def test_parse_comments_and_blank_lines():
    g = parse_edge_list("# a comment\n\n0 1  # inline\n1 0\n")
    assert edge_set(g) == {(0, 1), (1, 0)}


def test_parse_nodes_directive_keeps_isolated_nodes():
    g = parse_edge_list("# nodes: 5\n0 1\n")
    assert g.n == 5
    assert g.in_adj[4] == ()


def test_parse_rejects_id_beyond_declared_count():
    with pytest.raises(EdgeListError, match="exceeds declared"):
        parse_edge_list("# nodes: 2\n0 5\n")


def test_parse_rejects_late_directive_below_an_earlier_id():
    # The directive line itself is refused, with its own line number.
    with pytest.raises(EdgeListError, match="line 2: declared node count 3 is too small for id 6"):
        parse_edge_list("5 6\n# nodes: 3\n")
    with pytest.raises(EdgeListError, match="line 3: declared node count 2 is too small for id 3"):
        parse_edge_list("1 3\n\n# nodes: 2\n1 2\n", base=1)
    # A directive above every earlier id still pins the count.
    assert parse_edge_list("0 1\n# nodes: 4\n1 3\n").n == 4
    assert parse_edge_list("1 3\n# nodes: 3\n", base=1).n == 3


def test_parse_rejects_node_count_above_cap():
    # Neither input allocates anything: both are refused while parsing.
    with pytest.raises(EdgeListError, match="line 2: id 16777216 implies more than the limit"):
        parse_edge_list("0 1\n0 16777216\n")
    with pytest.raises(EdgeListError, match="id 16777217 implies more than the limit"):
        parse_edge_list("1 16777217\n", base=1)
    with pytest.raises(EdgeListError, match="declared node count 16777217 exceeds the limit"):
        parse_edge_list("# nodes: 16777217\n")
    with pytest.raises(EdgeListError, match="exceeds the limit of 16777216"):
        parse_edge_list("# nodes: 1000000000000\n")


def test_parse_malformed_line_reports_line_number():
    with pytest.raises(EdgeListError, match="line 3"):
        parse_edge_list("0 1\n1 0\n2\n")
    with pytest.raises(EdgeListError, match="line 1"):
        parse_edge_list("a b\n")


@pytest.mark.parametrize("line", ["0 1_0", "0 \u0661", "\uff10 1"])
def test_parse_refuses_ids_int_alone_would_read(line):
    # int() reads these as 0 10, 0 1 and 0 1; an id is ASCII digits and a sign.
    with pytest.raises(EdgeListError, match="line 2: non-integer id"):
        parse_edge_list(f"0 1\n{line}\n")


def test_nodes_directive_is_ascii():
    # With other digits or spaces the line is a plain comment.
    assert parse_edge_list("# nodes: \uff15\n0 1\n").n == 2
    assert parse_edge_list("#\u3000nodes: 5\n0 1\n").n == 2
    assert parse_edge_list("#\tnodes:\t5\t\n0 1\n").n == 5


def test_parse_negative_id_rejected():
    with pytest.raises(EdgeListError):
        parse_edge_list("-1 2\n")
    # base-1 input containing a 0 rebases below zero
    with pytest.raises(EdgeListError):
        parse_edge_list("0 1\n", base=1)


def test_from_edges_rejects_negative_node_count():
    with pytest.raises(ValueError, match="node count must be >= 0, got -1"):
        Digraph.from_edges(-1, [])
    # Any edge is out of range for a negative count, and that is checked first.
    with pytest.raises(ValueError, match=r"edge \(0, 1\) out of range for n=-1"):
        Digraph.from_edges(-1, [(0, 1)])


def test_parse_accepts_self_loop():
    g = parse_edge_list("0 0\n")
    assert edge_set(g) == {(0, 0)}
    assert g.in_adj[0] == (0,)


def test_serialize_round_trip_is_identity_on_edges():
    g = pair_chain()
    text = serialize_edge_list(g)
    back = parse_edge_list(text)
    assert edge_set(back) == edge_set(g)
    assert back.n == g.n


def test_serialize_is_sorted_and_stable():
    g = Digraph.from_edges(3, [(2, 1), (0, 2), (0, 1)])
    assert serialize_edge_list(g) == "# nodes: 3\n0 1\n0 2\n2 1\n"
    assert serialize_edge_list(g) == serialize_edge_list(g)


def test_serialize_base1():
    # serialize_edge_list writes 0-based ids; 1-based text of the same graph reads back to it.
    g = Digraph.from_edges(2, [(0, 1)])
    assert edge_list_text(g) == serialize_edge_list(g) == "# nodes: 2\n0 1\n"
    assert edge_list_text(g, base=1, header=False) == "1 2\n"
    assert parse_edge_list("1 2\n", base=1) == g


def test_clean_text_takes_the_bulk_path(monkeypatch):
    # The line loop returns the same graphs, so only this shows that a
    # shape check gone wrong has not sent clean text down the slow path.
    # Clean text, with spaces or tabs, reaches the loop only for its
    # `# nodes:` line.
    read_lines = graphs._Reader.read_lines

    def directive_only(reader, chunk):
        assert graphs._NODES_DIRECTIVE.fullmatch(chunk.removesuffix("\n")), chunk[:40]
        return read_lines(reader, chunk)

    monkeypatch.setattr(graphs._Reader, "read_lines", directive_only)
    drawn = [
        gen_erdos_renyi(60, 90, 1),
        gen_barabasi_albert(60, 5, 2),
        gen_watts_strogatz(60, 4, 0.2, 3),
        Digraph.from_edges(4, []),
    ]
    # Then again in chunks of a line or two, each cut at a newline.
    for chunk in (graphs._CHUNK, 1, 7):
        monkeypatch.setattr(graphs, "_CHUNK", chunk)
        for g in drawn:
            for base in (0, 1):
                # Tab-separated ids take the bulk path too.
                for sep in (" ", "\t"):
                    text = edge_list_text(g, base).replace(" ", sep)
                    assert parse_edge_list(text, base=base) == g
                    text = edge_list_text(g, base, header=False).replace(" ", sep)
                    assert edge_set(parse_edge_list(text, base=base)) == edge_set(g)
        for base in (0, 1):
            assert parse_edge_list("", base=base) == Digraph.from_edges(0, [])
            assert parse_edge_list("# nodes: 7", base=base) == Digraph.from_edges(7, [])


@pytest.mark.parametrize("header", [True, False])
def test_clean_parse_peaks_near_the_graph(header):
    # The text is decoded in chunks: with `# nodes:` each chunk goes to the
    # builder as soon as it is decoded, and without it every chunk is held
    # only until the largest id is known, then freed as the builder reads
    # it.  No copy of the whole text is made.
    g0 = gen_barabasi_albert(500, 100, 1)
    text = edge_list_text(g0, 0, header)
    g, peak = traced_peak(lambda: parse_edge_list(text))
    assert g == g0
    assert peak < (1.6 if header else 1.8) * graph_bytes(g)


@pytest.mark.parametrize("form", ["comment", "no final newline", "tab", "crlf"])
def test_edited_text_parses_within_the_clean_bound(form):
    # Each of these edits sends the first line or some or all chunks to the
    # line loop, which reads one chunk at a time and, with `# nodes:` in the
    # first chunk, hands each chunk's ids to the builder as it goes.
    g0 = gen_barabasi_albert(500, 100, 1)
    text = FORMS[form](edge_list_text(g0, 0))
    g, peak = traced_peak(lambda: parse_edge_list(text))
    assert g == g0
    assert peak < 1.6 * graph_bytes(g)


def test_parse_memory_per_node():
    # One edge among 20,000 nodes, scaled like test_assembly_memory_per_node.
    # The decoded ids are freed once read, and the builder frees its
    # out-lists before it makes the in-lists, so each node costs one empty
    # list, not two, at the peak.
    n = 20_000
    text = f"# nodes: {n}\n0 1\n"
    g, peak = traced_peak(lambda: parse_edge_list(text))
    assert g.n == n and g.m == 1
    assert peak < 100 * n


def test_adjacency_consistent_with_edges():
    g = pair_chain()
    rebuilt = {(u, v) for v in range(g.n) for u in g.in_adj[v]}
    assert rebuilt == edge_set(g)
    assert g.m == len(rebuilt)


def test_from_edges_drops_repeats_and_keeps_self_loops():
    g = Digraph.from_edges(4, [(2, 0), (1, 1), (0, 1), (2, 0), (1, 1), (2, 1), (0, 1), (3, 3)])
    assert g.out_adj == ((1,), (1,), (0, 1), (3,))
    assert g.in_adj == ((2,), (0, 1, 2), (), (3,))
    assert g.m == len(edge_set(g)) == 5
    assert edge_set(g) == {(0, 1), (1, 1), (2, 0), (2, 1), (3, 3)}


def test_digraph_keeps_only_its_adjacency():
    assert [f.name for f in fields(Digraph)] == ["n", "in_adj", "out_adj"]
    # The printed graph names its edges through out_adj.
    assert repr(Digraph.from_edges(2, [(1, 0), (0, 1)])) == "Digraph(n=2, out_adj=((1,), (0,)))"


def test_in_neighbors_worked_example():
    g = pair_chain()
    # node 3 in 1-based display; fed by 2 and 4
    assert g.in_adj[2] == (1, 3)


def test_in_neighbors_isolated_and_complete():
    g = Digraph.from_edges(3, [])
    assert g.in_adj[1] == ()
    k5 = complete5()
    for v in range(5):
        assert k5.in_adj[v] == tuple(u for u in range(5) if u != v)


def test_max_in_degree():
    assert max_in_degree(pair_chain()) == 2
    assert max_in_degree(Digraph.from_edges(4, [])) == 0
    assert max_in_degree(complete5()) == 4
    with pytest.raises(ValueError):
        max_in_degree(Digraph.from_edges(0, []))


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError):
        Digraph.from_edges(2, [(0, 2)])


def test_graph_stats_worked_examples():
    # graph_stats keeps no SCC count; the counts come from Kosaraju directly.
    for make, expected, num_sccs in (
        (pair_chain, (8, 2, 5), 3),
        (complete5, (20, 4, 1), 1),
        (tree9, (8, 1, 3), 9),
    ):
        g = make()
        s = graph_stats(g)
        assert (s.m, s.d_in_max, s.finite_diameter) == expected
        assert scc_kosaraju(g).num_components == num_sccs
