"""Seeded graph corpus shared by the acceptance criteria.

Uniform random digraphs with the edge probability swept over four
densities, plus the three generator families at 25 and 50 nodes.  Every
graph is a pure function of the constants below, so the corpus is
identical on every run.
"""

from __future__ import annotations

import random

from sccd.generators import gen_barabasi_albert, gen_erdos_renyi, gen_watts_strogatz
from sccd.graphs import Digraph

GNP_SIZES = (4, 6, 9, 12, 16, 20, 25, 30, 36, 42, 48, 54, 60)
GNP_PROBS = (0.02, 0.05, 0.1, 0.3)
GNP_SEEDS_PER_CELL = 10


def gen_uniform_digraph(n: int, p: float, seed: int) -> Digraph:
    """Each ordered pair (u, v), u != v, becomes an edge with probability ``p``."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
    return Digraph.from_edges(n, pairs)


def build_corpus() -> list[tuple[str, Digraph]]:
    graphs: list[tuple[str, Digraph]] = []
    for n in GNP_SIZES:
        for p in GNP_PROBS:
            for i in range(GNP_SEEDS_PER_CELL):
                seed = 7919 * n + int(1000 * p) + i
                graphs.append((f"gnp(n={n},p={p},seed={seed})", gen_uniform_digraph(n, p, seed)))
    for n in (25, 50):
        for seed in (11, 12):
            m_sparse = round(n ** (2 / 3))
            graphs.append((f"er(n={n},m={m_sparse},seed={seed})", gen_erdos_renyi(n, m_sparse, seed)))
            graphs.append((f"er(n={n},m={2 * n},seed={seed})", gen_erdos_renyi(n, 2 * n, seed)))
            graphs.append((f"ba(n={n},m=3,seed={seed})", gen_barabasi_albert(n, 3, seed)))
            for p in (0.2, 0.8):
                graphs.append(
                    (f"ws(n={n},K=4,p={p},seed={seed})", gen_watts_strogatz(n, 4, p, seed))
                )
    return graphs
