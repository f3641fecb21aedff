"""Differential properties over arbitrary small digraphs.

Each drawn graph is checked in both modes against the reference engine,
Kosaraju, the brute-force construction and BFS distances.  Hypothesis
runs derandomized with a fixed example count, so every run checks the
same graphs.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from sccd.engine import Mode, assemble_partition, run
from sccd.graphs import Digraph
from sccd.oracles import all_pairs_bfs, partitions_equal, scc_kosaraju

from conftest import brute_force_sccs
from reference_engine import reference_run

MAX_N = 40

CHECKED = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@st.composite
def digraphs(draw) -> Digraph:
    """Any digraph on up to MAX_N nodes: self-loops and isolated nodes included."""
    n = draw(st.integers(1, MAX_N))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    return Digraph.from_edges(n, edges)


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


graphs = st.one_of(digraphs(), tail_fed_cycles())


@CHECKED
@given(graphs)
def test_engine_equals_reference_engine(g):
    for mode in Mode:
        result = run(g, mode=mode, trace=True)
        ref = reference_run(g, mode=mode, trace=True)
        assert result.history == ref.history, mode
        assert result.final == ref.final, mode
        assert result.rounds_per_node == ref.rounds_per_node, mode
        assert result.element_ops == ref.element_ops, mode


@CHECKED
@given(graphs)
def test_partition_equals_kosaraju_and_brute_force(g):
    reference = scc_kosaraju(g)
    assert partitions_equal(brute_force_sccs(g), reference)
    for mode in Mode:
        assert partitions_equal(assemble_partition(g, run(g, mode=mode)), reference), mode


@CHECKED
@given(graphs)
def test_rounds_equal_in_eccentricity_plus_one(g):
    dm = all_pairs_bfs(g)
    expected = tuple(dm.in_eccentricity(v) + 1 for v in range(g.n))
    assert run(g, mode=Mode.PER_NODE_FREEZE).rounds_per_node == expected
    # Every node runs until the last one stabilizes.
    assert run(g, mode=Mode.GLOBAL_ROUNDS).rounds_per_node == (max(expected),) * g.n
