"""Summary statistics of a digraph; the diameter comes from the BFS oracle."""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Digraph, max_in_degree
from .oracles import bfs_finite_diameter
# Not called here: perfbench/run.py's layer hooks wrap sccd.stats.scc_kosaraju.
from .oracles import scc_kosaraju  # noqa: F401


@dataclass(frozen=True)
class GraphStats:
    m: int
    d_in_max: int
    finite_diameter: int


def graph_stats(g: Digraph) -> GraphStats:
    """Edge count, max in-degree and BFS finite diameter.

    The SCC count is not among them: a bench record reads it from the
    Kosaraju partition it checks the engine against.
    """
    if g.n < 1:
        raise ValueError("graph_stats requires a nonempty graph")
    return GraphStats(
        m=g.m,
        d_in_max=max_in_degree(g),
        finite_diameter=bfs_finite_diameter(g),
    )
