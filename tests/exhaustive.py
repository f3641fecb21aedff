"""Every labelled digraph on a few nodes, run through both engine modes and every oracle.

:func:`check_all_digraphs` enumerates each digraph on exactly ``k`` nodes
and checks, in both modes, that the engine's partition is Kosaraju's and
that its diameter is the BFS one, which must equal Floyd-Warshall's.  It
decodes each node's final peer set itself.  In global-rounds mode that set
must be the node's Kosaraju component.  In per-node-freeze mode it must be
the members ``u`` of that component whose in-eccentricity (longest finite
distance into the node) is at most ``v``'s: ``v`` settles in round
``ecc(v) + 1`` and reads the sizes of round ``ecc(v)``, when a member of
its component has its full reach set exactly if ``ecc(u) <= ecc(v)``, and
a node outside it has a smaller one.  Peers read against the sizes of
round ``ecc(v) + 1`` instead fail this on 0 <-> 1, 2 -> 0.  With
``against_reference`` it also checks the per-round states, the streamed
trace text, round counts and element ops against
:func:`reference_engine.reference_run`.  Tier-1 covers 1-4
nodes, and 1-3 with self-loops (``tests/test_exhaustive.py``); CI covers
all 1,048,576 loop-free digraphs on 5 nodes without the reference:

    PYTHONPATH=src:tests python -c "from exhaustive import check_all_digraphs; check_all_digraphs(5)"
"""

from __future__ import annotations

from sccd.engine import Mode, assemble_partition, finite_diameter_from_run, run
from sccd.graphs import Digraph
from sccd.oracles import bfs_finite_diameter, floyd_warshall_diameter, scc_kosaraju

from conftest import INF, distance_rows
from history import render_history, streamed_table, traced_run
from reference_engine import reference_run


def check_all_digraphs(k: int, loops: bool = False, against_reference: bool = False) -> int:
    """Check every digraph on ``k`` nodes; return how many there were.

    A failure names the graph's edges and the engine mode.
    """
    pairs = [(u, v) for u in range(k) for v in range(k) if loops or u != v]
    for bits in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
        g = Digraph.from_edges(k, edges)
        components = scc_kosaraju(g)
        scc_of = [frozenset(c) for c in components.components]
        rows = distance_rows(g)
        ecc = [max(row[v] for row in rows if row[v] != INF) for v in range(k)]
        diameter = bfs_finite_diameter(g)
        assert floyd_warshall_diameter(g) == diameter, f"oracles disagree on {k} nodes, {edges}"
        for mode in Mode:
            where = f"{mode.value} on {k} nodes, {edges}"
            result, history = traced_run(g, mode) if against_reference else (run(g, mode), None)
            assert assemble_partition(result) == components, where
            assert finite_diameter_from_run(result) == diameter, where
            for nodes in result.components:
                for v in nodes:
                    peers = {w for i, w in enumerate(nodes) if result.peers[v] >> i & 1}
                    scc = scc_of[components.labels[v]]
                    if mode is Mode.PER_NODE_FREEZE:
                        scc = {u for u in scc if ecc[u] <= ecc[v]}
                    assert peers == scc, f"peers of {v}, {where}"
            if against_reference:
                ref, ref_history = reference_run(g, mode)
                assert history == ref_history, where
                assert streamed_table(g, mode) == render_history(ref_history), where
                assert result.rounds_per_node == ref.rounds_per_node, where
                assert result.element_ops == ref.element_ops, where
    return 1 << len(pairs)
