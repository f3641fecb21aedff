"""Differential properties over arbitrary small digraphs.

Each drawn graph is checked in both modes against the reference engine
(traced and untraced runs), Kosaraju, the brute-force construction and
BFS distances.  The three diameter oracles are checked against each
other, on dense and on strongly connected graphs too.
Partition labels are checked to be canonical on drawn label lists, and
the grouping by reach masks against the paper's assembly from the
reference engine's peer sets.
The edge-list parser is checked against ``Digraph.from_edges`` on drawn
texts, and on each kind of bad line for the line number it reports, and
against adjacency built by hand from the drawn pairs.  It is checked
against the whole-text line loop in ``reference_parse`` on serialized
graphs with one edit each, also when the text, given as a string or as a
file, is cut into chunks of a few characters.
Hypothesis runs derandomized with a fixed example count, so every run
checks the same graphs.
"""

from __future__ import annotations

import io
import random
from itertools import accumulate
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sccd.engine import Mode, assemble_partition, run
from sccd.graphs import (
    MAX_NODES,
    Digraph,
    EdgeListError,
    parse_edge_list,
)
from sccd.partition import SccPartition
from sccd.oracles import (
    bfs_finite_diameter,
    floyd_warshall_diameter,
    scc_kosaraju,
)

from conftest import INF, brute_force_sccs, distance_rows, edge_list_text, edge_set
from history import render_history, streamed_table, traced_run
from reference_engine import reference_assemble, reference_run
from reference_parse import parse_lines

MAX_N = 40

CHECKED = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@st.composite
def edge_pairs(draw) -> tuple[int, list[tuple[int, int]]]:
    """A node count up to MAX_N and pairs over it, repeats and self-loops included."""
    n = draw(st.integers(1, MAX_N))
    node = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=3 * n))


@st.composite
def digraphs(draw) -> Digraph:
    """Any digraph on up to MAX_N nodes: self-loops and isolated nodes included."""
    return Digraph.from_edges(*draw(edge_pairs()))


@st.composite
def tail_fed_cycles(draw) -> Digraph:
    """A cycle fed by a chain, isolated nodes and a few extra edges, ids shuffled.

    The cycle's entry node stabilizes before the rest of the cycle, which
    is what makes per-node freezing leave partial peer sets behind.
    """
    cycle = draw(st.integers(1, 12))
    tail = draw(st.integers(0, 20))
    isolated = draw(st.integers(0, 5))
    n = cycle + tail + isolated
    edges = [(i, (i + 1) % cycle) for i in range(cycle)]
    edges += [(i, i + 1) for i in range(cycle, cycle + tail - 1)]
    if tail:
        edges.append((cycle + tail - 1, 0))
    node = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(node, node), max_size=4))
    ids = draw(st.permutations(range(n)))
    return Digraph.from_edges(n, [(ids[u], ids[v]) for u, v in edges])


@st.composite
def dags_of_cycles(draw) -> Digraph:
    """Up to six cycles joined by forward edges only, ids shuffled.

    Each cycle is one component and the forward edges make a DAG of them.
    A one-node cycle is a self-loop or a lone node.
    """
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    starts = list(accumulate(sizes, initial=0))
    n = starts[-1]
    edges = []
    for first, size in zip(starts, sizes):
        if size > 1 or draw(st.booleans()):
            edges += [(first + i, first + (i + 1) % size) for i in range(size)]
    cycle = st.integers(0, len(sizes) - 1)
    for a, b in draw(st.lists(st.tuples(cycle, cycle), max_size=2 * len(sizes))):
        if a != b:
            a, b = min(a, b), max(a, b)
            u = draw(st.integers(starts[a], starts[a + 1] - 1))
            v = draw(st.integers(starts[b], starts[b + 1] - 1))
            edges.append((u, v))
    ids = draw(st.permutations(range(n)))
    return Digraph.from_edges(n, [(ids[u], ids[v]) for u, v in edges])


@st.composite
def dense_digraphs(draw) -> Digraph:
    """2 to MAX_N nodes; each ordered pair, self-loops too, is an edge with a drawn probability."""
    n = draw(st.integers(2, MAX_N))
    p = draw(st.integers(0, 100)) / 100
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return Digraph.from_edges(n, [(u, v) for u in range(n) for v in range(n) if rng.random() < p])


@st.composite
def chorded_cycles(draw) -> Digraph:
    """A cycle through 2 to MAX_N nodes plus drawn chords, ids shuffled.

    The graph is strongly connected, so every BFS walk on it ends by
    seeing every node, never by running out of new ones.
    """
    n = draw(st.integers(2, MAX_N))
    node = st.integers(0, n - 1)
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += draw(st.lists(st.tuples(node, node), max_size=3 * n))
    ids = draw(st.permutations(range(n)))
    return Digraph.from_edges(n, [(ids[u], ids[v]) for u, v in edges])


graphs = st.one_of(digraphs(), tail_fed_cycles(), dags_of_cycles())

# Lines the parser skips.  "#0 1" splits into two tokens, like an edge.
NOISE = ("", "   ", "\t", "# comment", "#", "#0 1", "  # 1 2 3", "# nodes of the graph")


@st.composite
def edge_list_documents(draw) -> tuple[list[str], int, Digraph, int | None, list]:
    """Edge-list lines for drawn pairs, and the graph they must parse to.

    Returns the lines, the id base (0 or 1), the expected graph, the
    index of the ``# nodes:`` directive line, if there is one, and the
    edges written, repeats included.  Edges come in any order, some
    twice, some with inline comments or odd spacing, between blank and
    comment lines.  The directive, when present, may be on any line,
    since it exceeds every id.
    """
    n, edges = draw(edge_pairs())
    base = draw(st.sampled_from((0, 1)))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=5))
    lines = []
    for u, v in draw(st.permutations(edges)):
        gap = draw(st.sampled_from((" ", "  ", "\t", " \t ")))
        tail = draw(st.sampled_from(("", " ", "  # inline", "#x")))
        lines.append(f"{u + base}{gap}{v + base}{tail}")
    for _ in range(draw(st.integers(0, 6))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(NOISE)))
    if draw(st.booleans()):
        directive = draw(st.integers(0, len(lines)))
        lines.insert(directive, f"# nodes: {n}")
    else:
        directive = None
        n = max((max(e) for e in edges), default=-1) + 1
    return lines, base, Digraph.from_edges(n, edges), directive, edges


def adjacency_by_hand(n: int, pairs: list[tuple[int, int]]) -> tuple[tuple, tuple]:
    """In- and out-adjacency of ``pairs`` as sorted tuples without repeats."""
    in_adj = tuple(tuple(sorted({u for u, v in pairs if v == w})) for w in range(n))
    out_adj = tuple(tuple(sorted({v for u, v in pairs if u == w})) for w in range(n))
    return in_adj, out_adj


@CHECKED
@given(edge_list_documents(), st.data())
def test_parse_equals_from_edges(doc, data):
    lines, base, expected, _, pairs = doc
    ends = data.draw(st.lists(st.sampled_from(("\n", "\r\n")), min_size=len(lines),
                              max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    g = parse_edge_list(text, base=base)
    assert g == expected
    # Independent of Digraph._build, which parse_edge_list and from_edges share.
    assert (g.in_adj, g.out_adj) == adjacency_by_hand(expected.n, pairs)
    assert g.m == len(edge_set(g)) == len(set(pairs))


BAD_LINES = ("three tokens", "non-integer", "below base", "beyond declared", "past the limit")


@CHECKED
@given(edge_list_documents(), st.sampled_from(BAD_LINES), st.data())
def test_bad_line_reports_its_line_number(doc, kind, data):
    lines, base, expected, directive, _ = doc
    if kind == "beyond declared" and directive is None:
        directive = 0
        lines.insert(0, f"# nodes: {expected.n}")
    first = 0 if kind != "beyond declared" else directive + 1
    where = data.draw(st.integers(first, len(lines)))
    bad = {
        "three tokens": f"{base} {base} {base}",
        "non-integer": data.draw(st.sampled_from(("a 1", "1 x", "1.5 2", "0x1 1"))),
        "below base": f"{base - 1} {base}",
        "beyond declared": f"{base} {expected.n + base}",
        "past the limit": f"{MAX_NODES + base} {base}",
    }[kind]
    lines.insert(where, bad)
    with pytest.raises(EdgeListError) as caught:
        parse_edge_list("\n".join(lines), base=base)
    assert caught.value.line_no == where + 1


EDITS = (
    None, "no final newline", "crlf", "one token", "one token and a space", "three then one",
    "leading zero", "blank line", "tab", "count at or below an id", "count above the limit",
    "id past the limit", "id 0", "comment first line", "line break in the directive",
    "comment line", "late directive", "unicode separator", "line break in the body",
)


@st.composite
def edited_serializations(draw) -> tuple[str, int]:
    """A drawn graph's text in ``serialize_edge_list``'s form with at most one edit, and its base.

    An inserted line goes between any two lines of the body, or last,
    where it may lack a newline of its own.
    """
    g = draw(digraphs())
    base = draw(st.sampled_from((0, 1)))
    header = draw(st.booleans())
    text = edge_list_text(g, base, header)
    edit = draw(st.sampled_from(EDITS))
    if edit is None:
        return text, base
    if edit == "no final newline":
        return text.removesuffix("\n"), base
    if edit == "crlf":
        return text.replace("\n", "\r\n"), base
    body = text.partition("\n")[2] if header else text
    if edit == "count at or below an id":
        top = max((max(e) for e in edge_set(g)), default=0)
        return f"# nodes: {top - draw(st.integers(0, top))}\n{body}", base
    if edit == "count above the limit":
        return f"# nodes: {MAX_NODES + 1}\n{body}", base
    if edit == "comment first line":
        return "# comment\n" + text, base
    if edit == "line break in the directive":
        # Each of these splits a line for str.splitlines() but not for "\n".
        brk = draw(st.sampled_from(("\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028")))
        return f"#{brk}nodes: {g.n}\n{body}", base
    u, v, w = (str(draw(st.integers(base, g.n - 1 + base))) for _ in range(3))
    space = draw(st.sampled_from(("\xa0", "\u3000")))
    # These split a line for str.splitlines() but not for "\n".
    brk = draw(st.sampled_from(("\x0c", "\u2028")))
    inserted = {
        "one token": [u],
        "one token and a space": [u + " "],
        "three then one": [f"{u} {v} {w}", u],
        "leading zero": [f"0{u} {v}"],
        "blank line": [""],
        "tab": [f"{u}\t{v}"],
        "id past the limit": [f"{MAX_NODES + base} {v}"],
        "id 0": [f"0 {v}"],
        "comment line": ["# comment"],
        # With the header a second directive.  Without it the count arrives
        # after edges, so in small chunks the chunks before it are held.
        "late directive": [f"# nodes: {g.n + draw(st.integers(-1, 1))}"],
        "unicode separator": [f"{u}{space}{v}"],
        "line break in the body": [f"{u} {v}{brk}{w} {u}"],
    }[edit]
    lines = text.splitlines(keepends=True)
    at = draw(st.integers(int(header), len(lines)))
    end = draw(st.sampled_from(("\n", ""))) if at == len(lines) else "\n"
    return "".join(lines[:at]) + "\n".join(inserted) + end + "".join(lines[at:]), base


def parse_outcome(parse, text: str, base: int):
    """The parsed graph, or the message and line number of the error raised."""
    try:
        return parse(text, base)
    except EdgeListError as exc:
        return str(exc), exc.line_no


@CHECKED
@given(edited_serializations(), st.integers(1, 12))
@example(("5", 0), 1)  # one id and no newline: an error, not an empty graph
def test_bulk_parse_equals_line_loop(doc, chunk):
    text, base = doc
    expected = parse_outcome(parse_lines, text, base)
    assert parse_outcome(parse_edge_list, text, base) == expected
    # Chunks of a few characters hold a line or two each, so an edit lands
    # after earlier chunks' pairs have reached the builder.  A file is read
    # a chunk at a time; newline="" hands its text over unchanged.
    with patch("sccd.graphs._CHUNK", chunk):
        assert parse_outcome(parse_edge_list, text, base) == expected
        read = parse_outcome(lambda t, b: parse_edge_list(io.StringIO(t, newline=""), b), text, base)
        assert read == expected


@CHECKED
@given(graphs)
def test_engine_equals_reference_engine(g):
    for mode in Mode:
        result, history = traced_run(g, mode=mode)
        ref, ref_history = reference_run(g, mode=mode)
        assert history == ref_history, mode
        assert streamed_table(g, mode) == render_history(ref_history), mode
        assert result.final == ref.final, mode
        # ref_history was built by node_round, never by the engine's views.
        assert result.final == ref_history[-1], mode
        assert result.rounds_per_node == ref.rounds_per_node, mode
        assert result.element_ops == ref.element_ops, mode
        # The result derives its peers from its final masks; the reference's
        # last snapshot read them round by round, by the paper's rule.
        last = ref_history[-1].states
        for nodes in result.components:
            for v in nodes:
                mask = sum(1 << i for i, u in enumerate(nodes) if u in last[v].peers)
                assert result.peers[v] == mask, (mode, v)
        # Without an observer, the nodes that grew keep no round counts
        # until they settle; the result must not show it.
        untraced = run(g, mode=mode)
        for name in ("rounds_per_node", "element_ops", "components", "reach"):
            assert getattr(untraced, name) == getattr(result, name), (mode, name)
        assert untraced.final == ref.final, mode


@CHECKED
@given(graphs)
def test_partition_equals_kosaraju_and_brute_force(g):
    reference = scc_kosaraju(g)
    assert brute_force_sccs(g) == reference
    for mode in Mode:
        assert assemble_partition(run(g, mode=mode)) == reference, mode


@CHECKED
@given(graphs)
def test_paper_assembly_equals_mask_grouping(g):
    # The paper assembles the components from the peer sets, merged by
    # inclusion; assemble_partition groups the final reach masks.
    reference = scc_kosaraju(g)
    for mode in Mode:
        _, ref_history = reference_run(g, mode=mode)
        assert reference_assemble(ref_history[-1]) == reference, mode
        assert assemble_partition(run(g, mode=mode)) == reference, mode


@CHECKED
@given(graphs)
def test_rounds_equal_in_eccentricity_plus_one(g):
    rows = distance_rows(g)
    expected = tuple(max(row[v] for row in rows if row[v] != INF) + 1 for v in range(g.n))
    assert run(g, mode=Mode.PER_NODE_FREEZE).rounds_per_node == expected
    # Every node runs until the last one stabilizes.
    assert run(g, mode=Mode.GLOBAL_ROUNDS).rounds_per_node == (max(expected),) * g.n


def assert_diameter_oracles_agree(g: Digraph) -> None:
    expected = max(d for row in distance_rows(g) for d in row if d != INF)
    assert bfs_finite_diameter(g) == expected == floyd_warshall_diameter(g)


@CHECKED
@given(graphs)
def test_diameter_oracles_agree(g):
    assert_diameter_oracles_agree(g)


@CHECKED
@given(dense_digraphs())
def test_diameter_oracles_agree_on_dense_graphs(g):
    assert_diameter_oracles_agree(g)


@CHECKED
@given(chorded_cycles())
def test_bfs_diameter_equals_all_pairs_on_strongly_connected_graphs(g):
    assert scc_kosaraju(g).num_components == 1
    assert bfs_finite_diameter(g) == max(d for row in distance_rows(g) for d in row if d != INF)


@st.composite
def label_pairs(draw) -> tuple[list[int], list[int]]:
    """Two label lists over the same nodes; half the time the second renames the first."""
    n = draw(st.integers(0, 12))
    labels = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    x = draw(labels)
    if draw(st.booleans()):
        names = draw(st.lists(st.integers(), min_size=7, max_size=7, unique=True))
        return x, [names[c + 3] for c in x]
    return x, draw(labels)


def node_sets(labels: list[int]) -> set[frozenset[int]]:
    return {frozenset(v for v, c in enumerate(labels) if c == k) for k in set(labels)}


@CHECKED
@given(label_pairs())
def test_partition_labels_are_canonical(pair):
    x, y = pair
    a, b = SccPartition.from_labels(x), SccPartition.from_labels(y)
    assert (a == b) == (node_sets(x) == node_sets(y))
    for p, labels in ((a, x), (b, y)):
        comps = p.components
        assert len(p.labels) == len(labels) and p.num_components == len(comps)
        assert {frozenset(c) for c in comps} == node_sets(labels)
        assert all(list(c) == sorted(set(c)) for c in comps)
        assert [c[0] for c in comps] == sorted(c[0] for c in comps)
        assert all(v in comps[p.labels[v]] for v in range(len(labels)))
