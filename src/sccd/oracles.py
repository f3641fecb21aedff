"""Classical baselines: Kosaraju SCCs, the BFS diameter, Floyd-Warshall.

These are the independent reference implementations the round engine is
checked against by ``sccd bench`` and ``sccd diameter --check``, and the
comparison subjects of the benchmark harness.  All of them are pure
functions of an immutable graph.  The BFS diameter walks forward over
out-neighbours from one source at a time, unlike the engine's merge of
in-neighbour reach sets from all sources at once, so that a bug in one
cannot hide the same bug in the other.
"""

from __future__ import annotations

import math
from itertools import compress

from .graphs import Digraph
from .partition import SccPartition

INF = math.inf


def bfs_finite_diameter(g: Digraph) -> int:
    """Largest finite shortest-path length, without storing the matrix.

    One forward BFS per source on int bitsets: bit ``w`` of ``out_mask[u]``
    is the edge ``u -> w``.  A step ORs the masks of the frontier nodes
    and clears the ``seen`` bits, so it costs one OR per frontier node
    instead of one check per edge.  The next frontier's ids are read bit
    by bit from a sparse mask (under one set bit in 8) and from the
    binary digits of a denser one.  A walk ends when a step finds no new
    node, or as soon as ``seen`` holds all ``n`` nodes: the source's
    eccentricity is then the depth just reached, and its last frontier is
    neither read nor expanded.
    """
    if g.n < 1:
        raise ValueError("bfs_finite_diameter requires a nonempty graph")
    n = g.n
    out_mask = [sum(1 << w for w in heads) for heads in g.out_adj]
    everyone = (1 << n) - 1
    best = 0
    for s in range(n):
        seen = 1 << s
        frontier = [s]
        # Every step reaches a new node, so the walk ends by depth n - 1.
        depth = 0
        while True:
            nxt = 0
            for u in frontier:
                nxt |= out_mask[u]
            nxt &= ~seen
            if not nxt:
                break
            depth += 1
            seen |= nxt
            if seen == everyone:
                break
            if nxt.bit_count() * 8 < nxt.bit_length():
                frontier = _bits_one_by_one(nxt)
            else:
                frontier = _bits_from_digits(nxt)
        if depth > best:
            best = depth
    return best


def _bits_one_by_one(mask: int) -> list[int]:
    # The set bits of a sparse mask, from the top: cost follows the set size.
    bits = []
    while mask:
        i = mask.bit_length() - 1
        bits.append(i)
        mask ^= 1 << i
    return bits


_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _bits_from_digits(mask: int) -> list[int]:
    # The set bits of a dense mask, read from its binary digits in one pass.
    digits = format(mask, "b")[::-1].encode().translate(_DIGIT_VALUES)
    return list(compress(range(len(digits)), digits))


def floyd_warshall_diameter(g: Digraph) -> int:
    """Finite diameter via the cubic all-pairs relaxation, unit weights.

    Kept as a genuinely independent route to the same number as
    :func:`bfs_finite_diameter`; also the classical subject of the
    diameter benchmark.
    """
    if g.n < 1:
        raise ValueError("floyd_warshall_diameter requires a nonempty graph")
    n = g.n
    dist = [[INF] * n for _ in range(n)]
    for u, heads in enumerate(g.out_adj):
        row_u = dist[u]
        for v in heads:
            row_u[v] = 1
        row_u[u] = 0
    for k in range(n):
        row_k = dist[k]
        for i in range(n):
            d_ik = dist[i][k]
            if d_ik == INF:
                continue
            row_i = dist[i]
            for j in range(n):
                nd = d_ik + row_k[j]
                if nd < row_i[j]:
                    row_i[j] = nd
    best = 0.0
    for row in dist:
        for d in row:
            if d != INF and d > best:
                best = d
    return int(best)


def scc_kosaraju(g: Digraph) -> SccPartition:
    """Exact SCC partition via two iterative depth-first passes.

    Iterative on explicit stacks, so arbitrarily deep graphs (e.g. a
    100k-node path) do not hit the recursion limit.
    """
    if g.n < 1:
        raise ValueError("scc_kosaraju requires a nonempty graph")
    n = g.n
    visited = [False] * n
    order: list[int] = []
    for s in range(n):
        if visited[s]:
            continue
        visited[s] = True
        stack: list[tuple[int, int]] = [(s, 0)]
        while stack:
            u, i = stack[-1]
            adj = g.out_adj[u]
            while i < len(adj) and visited[adj[i]]:
                i += 1
            if i < len(adj):
                stack[-1] = (u, i + 1)
                visited[adj[i]] = True
                stack.append((adj[i], 0))
            else:
                stack.pop()
                order.append(u)
    # Components are counted from 1, so an unlabelled node reads as 0.
    label = [0] * n
    count = 0
    for s in reversed(order):
        if label[s]:
            continue
        count += 1
        label[s] = count
        work = [s]
        while work:
            u = work.pop()
            for w in g.in_adj[u]:
                if not label[w]:
                    label[w] = count
                    work.append(w)
    return SccPartition.from_labels(label)


def partitions_equal(a: SccPartition, b: SccPartition) -> bool:
    """Whether two partitions are the same family of sets."""
    if a.n != b.n:
        raise ValueError(f"partitions over different universes: {a.n} vs {b.n}")
    return a.labels == b.labels
