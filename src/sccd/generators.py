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
from typing import Iterable, Iterator

from .graphs import MAX_NODES, Digraph


def _orient(edges: Iterable[tuple[int, int]], rng: random.Random) -> Iterator[tuple[int, int]]:
    # One coin per edge, in construction order, drawn as Digraph._build
    # consumes the pairs; nothing else draws from rng meanwhile, so the
    # coin flips are reproducible.
    return ((u, v) if rng.random() < 0.5 else (v, u) for u, v in edges)


def _edge_key(u: int, v: int, n: int) -> int:
    return u * n + v if u < v else v * n + u


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
    pairs = (divmod(idx, n - 1) for idx in rng.sample(range(capacity), m))
    return Digraph._build(n, ((u, r if r < u else r + 1) for u, r in pairs))


def gen_barabasi_albert(n: int, m: int, seed: int) -> Digraph:
    """Preferential attachment from an ``m``-node seed clique, then oriented.

    Each new vertex attaches to ``m`` distinct existing vertices chosen
    with probability proportional to their undirected degree (uniformly
    while all degrees are still zero, which only happens for m=1).

    A draw from ``repeated`` (one entry per unit of degree) takes
    ``getrandbits(k)``, with ``k`` the bit length of ``len(repeated)``,
    until the value is below ``len(repeated)``, and picks that entry.
    This is how ``rng.choice(repeated)`` draws on CPython 3.10-3.13, so
    the graphs equal those built with ``choice``; defining the draw over
    the public ``getrandbits`` keeps them from depending on ``choice``.

    ``repeated`` gains both endpoints of each edge as the edge is made,
    so read two at a time it is also the edge list, in construction order.
    """
    check_barabasi_albert(n, m)
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    repeated: list[int] = []  # node id repeated once per unit of degree
    for i in range(m):
        for j in range(i + 1, m):
            repeated.extend((i, j))
    for new in range(m, n):
        targets: set[int] = set()
        # repeated grows only after this node's targets are chosen.
        size = len(repeated)
        k = size.bit_length()
        while len(targets) < m:
            if size:
                r = getrandbits(k)
                while r >= size:
                    r = getrandbits(k)
                targets.add(repeated[r])
            else:
                targets.add(rng.randrange(new))
        for t in sorted(targets):
            repeated.extend((new, t))
    it = iter(repeated)
    del repeated  # now only the iterator holds it, which frees it once read
    return Digraph._build(n, _orient(zip(it, it), rng))


def gen_watts_strogatz(n: int, K: int, p: float, seed: int) -> Digraph:
    """Ring lattice with ``K`` neighbors per node, rewired with probability ``p``.

    Every lattice edge (i, i+j) for j=1..K/2 is considered once; with
    probability ``p`` its far endpoint is replaced by a uniform random
    node avoiding self-loops and duplicates.  Orientation happens last.
    """
    check_watts_strogatz(n, K, p)
    rng = random.Random(seed)
    # Edge pos joins node pos % n to heads[pos]; rewiring moves only the
    # head.  The set holds each undirected edge {a, b}, a < b, as a * n + b.
    heads = [(i + j) % n for j in range(1, K // 2 + 1) for i in range(n)]
    linked = {_edge_key(pos % n, v, n) for pos, v in enumerate(heads)}
    degree = [K] * n
    for pos, v in enumerate(heads):
        u = pos % n
        if rng.random() < p and degree[u] < n - 1:
            w = rng.randrange(n)
            while w == u or _edge_key(u, w, n) in linked:
                w = rng.randrange(n)
            linked.remove(_edge_key(u, v, n))
            linked.add(_edge_key(u, w, n))
            degree[v] -= 1
            degree[w] += 1
            heads[pos] = w
    del linked, degree
    tails = (u for _ in range(K // 2) for u in range(n))
    return Digraph._build(n, _orient(zip(tails, heads), rng))
