"""Seeded random digraph generators.

Three classical families: Erdos-Renyi, Barabasi-Albert and
Watts-Strogatz.  The latter two are undirected models, so after building
the undirected edge set each edge is assigned a single uniformly random
direction from the same seeded stream; bidirectional copies would merge
every connected component into one strongly connected component, which
is not what these families are used for here.  Equal seeds give
identical graphs.
"""

from __future__ import annotations

import random

from .graphs import MAX_NODES, Digraph


def _orient(edges: list[tuple[int, int]], rng: random.Random) -> list[tuple[int, int]]:
    # Edges arrive in construction order, so the coin flips are reproducible.
    return [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]


def _digraph(n: int, pairs: list[tuple[int, int]]) -> Digraph:
    # The pairs are ints in range by construction, so they skip
    # Digraph.from_edges' conversion and range pass; only its count check
    # is left, raised where from_edges raised it.
    if n < 0:
        raise ValueError(f"node count must be >= 0, got {n}")
    return Digraph._build(n, pairs)


def _check_nodes(n: int) -> None:
    # Refused before anything is allocated for the graph, as the parser does.
    if n > MAX_NODES:
        raise ValueError(f"n must be at most the limit of {MAX_NODES} nodes, got {n}")


def check_erdos_renyi(n: int, m: int) -> None:
    """Raise ValueError unless :func:`gen_erdos_renyi` accepts ``n`` and ``m``."""
    _check_nodes(n)
    capacity = n * (n - 1)
    if not 0 <= m <= capacity:
        raise ValueError(f"m must be in [0, {capacity}] for n={n}, got {m}")


def check_barabasi_albert(n: int, m: int) -> None:
    """Raise ValueError unless :func:`gen_barabasi_albert` accepts ``n`` and ``m``."""
    _check_nodes(n)
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")


def check_watts_strogatz(n: int, K: int, p: float) -> None:
    """Raise ValueError unless :func:`gen_watts_strogatz` accepts ``n``, ``K`` and ``p``."""
    _check_nodes(n)
    if K % 2 != 0:
        raise ValueError(f"K must be even, got {K}")
    if K >= n:
        raise ValueError(f"K must be < n, got K={K}, n={n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")


def gen_erdos_renyi(n: int, m: int, seed: int) -> Digraph:
    """Exactly ``m`` distinct directed edges sampled uniformly, no self-loops.

    Sampling is without replacement over all ``n*(n-1)`` ordered pairs,
    so opposite edges (u, v) and (v, u) may both occur.
    """
    check_erdos_renyi(n, m)
    capacity = n * (n - 1)
    rng = random.Random(seed)
    edges = []
    for idx in rng.sample(range(capacity), m):
        u, r = divmod(idx, n - 1)
        v = r if r < u else r + 1
        edges.append((u, v))
    return _digraph(n, edges)


def gen_barabasi_albert(n: int, m: int, seed: int) -> Digraph:
    """Preferential attachment from an ``m``-node seed clique, then oriented.

    Each new vertex attaches to ``m`` distinct existing vertices chosen
    with probability proportional to their undirected degree (uniformly
    while all degrees are still zero, which only happens for m=1).
    """
    check_barabasi_albert(n, m)
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    repeated: list[int] = []  # node id repeated once per unit of degree
    for i in range(m):
        for j in range(i + 1, m):
            edges.append((i, j))
            repeated.extend((i, j))
    for new in range(m, n):
        targets: set[int] = set()
        while len(targets) < m:
            if repeated:
                cand = rng.choice(repeated)
            else:
                cand = rng.randrange(new)
            targets.add(cand)
        for t in sorted(targets):
            edges.append((new, t))
            repeated.extend((new, t))
    return _digraph(n, _orient(edges, rng))


def gen_watts_strogatz(n: int, K: int, p: float, seed: int) -> Digraph:
    """Ring lattice with ``K`` neighbors per node, rewired with probability ``p``.

    Every lattice edge (i, i+j) for j=1..K/2 is considered once; with
    probability ``p`` its far endpoint is replaced by a uniform random
    node avoiding self-loops and duplicates.  Orientation happens last.
    """
    check_watts_strogatz(n, K, p)
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    adj: list[set[int]] = [set() for _ in range(n)]

    def add(u: int, v: int) -> None:
        edges.append((u, v))
        adj[u].add(v)
        adj[v].add(u)

    for j in range(1, K // 2 + 1):
        for i in range(n):
            add(i, (i + j) % n)
    pos = 0
    for j in range(1, K // 2 + 1):
        for i in range(n):
            if rng.random() < p and len(adj[i]) < n - 1:
                u, v = edges[pos]
                w = rng.randrange(n)
                while w == u or w in adj[u]:
                    w = rng.randrange(n)
                adj[u].discard(v)
                adj[v].discard(u)
                adj[u].add(w)
                adj[w].add(u)
                edges[pos] = (u, w)
            pos += 1
    return _digraph(n, _orient(edges, rng))

