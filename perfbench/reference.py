"""Reference answers for the benchmark, computed from plain BFS.

Independent of the program under test: it reads the edge-list text
itself and uses no sccd code.  From one BFS per source it derives the
strongly connected components, each node's in-eccentricity (the longest
finite distance into it) and the longest finite distance overall.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Reference:
    n: int
    components: tuple[tuple[int, ...], ...]  # members ascending, sorted by smallest member
    in_ecc: tuple[int, ...]
    diameter: int
    max_in_degree: int


def read_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Node count and distinct edges of 0-based "u v" text with a "# nodes: N" line."""
    n = None
    edges: set[tuple[int, int]] = set()
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            if key.strip() == "nodes":
                n = int(value)
            continue
        if line:
            u, v = line.split()
            edges.add((int(u), int(v)))
    if n is None:
        raise ValueError("edge list lacks a '# nodes: N' line")
    return n, sorted(edges)


def bfs_distances(out_adj: list[list[int]], source: int) -> list[int]:
    """Distances from ``source`` along out-edges; -1 where unreachable."""
    dist = [-1] * len(out_adj)
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in out_adj[u]:
                if dist[w] < 0:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def reference(n: int, edges: list[tuple[int, int]]) -> Reference:
    out_adj: list[list[int]] = [[] for _ in range(n)]
    in_degree = [0] * n
    for u, v in edges:
        out_adj[u].append(v)
        in_degree[v] += 1
    in_ecc = [0] * n
    reaches: list[bytearray] = []
    for s in range(n):
        dist = bfs_distances(out_adj, s)
        reaches.append(bytearray(d >= 0 for d in dist))
        for v, d in enumerate(dist):
            if d > in_ecc[v]:
                in_ecc[v] = d
    comp_of = [-1] * n
    components = []
    for s in range(n):
        if comp_of[s] >= 0:
            continue
        row = reaches[s]
        comp = tuple(v for v in range(s, n) if row[v] and reaches[v][s])
        for v in comp:
            comp_of[v] = len(components)
        components.append(comp)
    return Reference(
        n=n,
        components=tuple(components),
        in_ecc=tuple(in_ecc),
        diameter=max(in_ecc, default=0),
        max_in_degree=max(in_degree, default=0),
    )
