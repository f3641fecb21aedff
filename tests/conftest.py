from __future__ import annotations

from math import inf as INF

import pytest

from sccd.graphs import Digraph
from sccd.partition import SccPartition

# The three worked graphs used throughout: a chain of three 2-cycles,
# the complete digraph on five nodes, and a nine-node out-tree.

PAIR_CHAIN_TEXT = "1 2\n2 1\n2 3\n3 4\n4 3\n4 5\n5 6\n6 5"


def pair_chain() -> Digraph:
    # 0<->1 -> 2<->3 -> 4<->5
    return Digraph.from_edges(
        6, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4), (4, 5), (5, 4)]
    )


def complete5() -> Digraph:
    return Digraph.from_edges(5, [(u, v) for u in range(5) for v in range(5) if u != v])


def tree9() -> Digraph:
    return Digraph.from_edges(
        9, [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (2, 6), (3, 7), (3, 8)]
    )


def cycle_with_tail() -> Digraph:
    # 3-cycle 0->1->2->0 fed by the chain 3->4->...->12->0.  Node 0
    # stabilizes well before nodes 1 and 2, so its own peer set is a
    # strict subset of the cycle.
    edges = [(0, 1), (1, 2), (2, 0)]
    edges += [(i, i + 1) for i in range(3, 12)]
    edges.append((12, 0))
    return Digraph.from_edges(13, edges)


@pytest.fixture
def g_pair_chain() -> Digraph:
    return pair_chain()


@pytest.fixture
def g_complete5() -> Digraph:
    return complete5()


@pytest.fixture
def g_tree9() -> Digraph:
    return tree9()


@pytest.fixture
def g_cycle_with_tail() -> Digraph:
    return cycle_with_tail()


def distance_rows(g: Digraph) -> list[list[float]]:
    """``rows[u][v]``: shortest ``u -> v`` path length, ``INF`` if none.  One plain
    BFS per source over ``out_adj``, sharing no code with the engine or the oracles."""
    rows = []
    for s in range(g.n):
        row = [INF] * g.n
        row[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in g.out_adj[u]:
                    if row[w] == INF:
                        row[w] = row[u] + 1
                        nxt.append(w)
            frontier = nxt
        rows.append(row)
    return rows


def edge_set(g: Digraph) -> set[tuple[int, int]]:
    return {(u, v) for u, heads in enumerate(g.out_adj) for v in heads}


def brute_force_sccs(g: Digraph) -> SccPartition:
    """Label each node by the smallest node it is mutually reachable with."""
    rows = distance_rows(g)
    nodes = range(g.n)
    return SccPartition.from_labels(
        [min(u for u in nodes if rows[u][v] != INF and rows[v][u] != INF) for v in nodes]
    )


def condensation_is_acyclic(g: Digraph, partition: SccPartition) -> bool:
    """Kahn topological sort on the component graph succeeds iff it is a DAG."""
    k = partition.num_components
    label = partition.labels
    succ: list[set[int]] = [set() for _ in range(k)]
    for u, v in edge_set(g):
        cu, cv = label[u], label[v]
        if cu != cv:
            succ[cu].add(cv)
    indeg = [0] * k
    for cu in range(k):
        for cv in succ[cu]:
            indeg[cv] += 1
    ready = [c for c in range(k) if indeg[c] == 0]
    seen = 0
    while ready:
        c = ready.pop()
        seen += 1
        for d in succ[c]:
            indeg[d] -= 1
            if indeg[d] == 0:
                ready.append(d)
    return seen == k
