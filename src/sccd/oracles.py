"""Classical baselines: Kosaraju SCCs, the BFS diameter, Floyd-Warshall.

These are the independent reference implementations the round engine is
checked against by ``sccd bench`` and ``sccd diameter --check``, and the
comparison subjects of the benchmark harness.  All of them are pure
functions of an immutable graph.  The BFS diameter walks forward over
out-neighbours from one source at a time, clearing reached nodes from a
mask of the nodes not yet seen and stopping, even mid-frontier, once
that mask is empty.  That is unlike the engine's merge of in-neighbour
reach sets from all sources at once, so that a bug in one cannot hide
the same bug in the other.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Iterator

from .graphs import Digraph
from .partition import SccPartition

INF = math.inf


def bfs_finite_diameter(g: Digraph) -> int:
    """Largest finite shortest-path length, without storing the matrix.

    One forward BFS per source on int bitsets.  ``unseen`` holds the
    nodes the walk has not reached, and each frontier node ``u`` clears
    its out-neighbours from it with one AND against ``not_out[u]``, the
    complement of its out-mask, so a step costs one AND per frontier node
    instead of one check per edge, and an AND is only as wide as the
    highest node still unseen.  The walk stops as soon as ``unseen`` is
    empty, even part-way through a frontier: the source's eccentricity
    is then one more than the frontier's depth, and the rest of that
    frontier is neither read nor expanded.  It also stops when a whole
    frontier leaves ``unseen`` unchanged: the eccentricity is then the
    frontier's depth.  Otherwise the newly seen nodes are the next
    frontier, whose ids are read bit by bit from a sparse mask (under one
    set bit in 8) and lazily from the binary digits of a denser one.
    """
    if g.n < 1:
        raise ValueError("bfs_finite_diameter requires a nonempty graph")
    n = g.n
    everyone = (1 << n) - 1
    # Nodes without out-edges share one ``everyone``, so a sparse graph
    # does not hold an n-bit int per node.
    not_out = [everyone ^ sum(1 << w for w in heads) if heads else everyone
               for heads in g.out_adj]
    best = 0
    for s in range(n):
        unseen = everyone ^ (1 << s)
        frontier = (s,)
        # Every step reaches a new node, so the walk ends by depth n - 1.
        depth = 0
        while True:
            before = unseen
            for u in frontier:
                unseen &= not_out[u]
                if not unseen:
                    break
            if unseen == before:
                break
            depth += 1
            if not unseen:
                break
            nxt = before ^ unseen
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


def _bits_from_digits(mask: int) -> Iterator[int]:
    # The set bits of a dense mask, from the bottom, read from its binary
    # digits; a walk that stops early takes only the ids it expands.
    digits = format(mask, "b")[::-1].encode().translate(_DIGIT_VALUES)
    return compress(range(len(digits)), digits)


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
    100k-node path) do not hit the recursion limit.  A frame of the first
    pass keeps its node's iterator over the out-list, so the pass resumes
    each list where it left off and reads every out-list once.
    """
    if g.n < 1:
        raise ValueError("scc_kosaraju requires a nonempty graph")
    n = g.n
    out_adj = g.out_adj
    visited = [False] * n
    order: list[int] = []
    for s in range(n):
        if visited[s]:
            continue
        visited[s] = True
        stack: list[tuple[int, Iterator[int]]] = [(s, iter(out_adj[s]))]
        while stack:
            u, heads = stack[-1]
            for w in heads:
                if not visited[w]:
                    visited[w] = True
                    stack.append((w, iter(out_adj[w])))
                    break
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
