"""SCCs and finite diameter of digraphs via a synchronous round engine."""

__version__ = "0.1.0"

from .engine import (
    InternalCorrectnessError,
    Mode,
    NodeState,
    RoundSnapshot,
    RunResult,
    assemble_partition,
    finite_diameter_from_run,
    render_result,
    run,
    trace_table,
)
from .generators import (
    gen_barabasi_albert,
    gen_erdos_renyi,
    gen_uniform_digraph,
    gen_watts_strogatz,
)
from .graphs import (
    Digraph,
    EdgeListError,
    in_neighbors,
    max_in_degree,
    out_neighbors,
    parse_edge_list,
    serialize_edge_list,
)
from .oracles import (
    DistanceMatrix,
    all_pairs_bfs,
    bfs_finite_diameter,
    floyd_warshall_diameter,
    partitions_equal,
    reach_set,
    scc_kosaraju,
)
from .partition import SccPartition
from .stats import GraphStats, graph_stats

__all__ = [
    "Digraph",
    "DistanceMatrix",
    "EdgeListError",
    "GraphStats",
    "InternalCorrectnessError",
    "Mode",
    "NodeState",
    "RoundSnapshot",
    "RunResult",
    "SccPartition",
    "all_pairs_bfs",
    "assemble_partition",
    "bfs_finite_diameter",
    "finite_diameter_from_run",
    "floyd_warshall_diameter",
    "gen_barabasi_albert",
    "gen_erdos_renyi",
    "gen_uniform_digraph",
    "gen_watts_strogatz",
    "graph_stats",
    "in_neighbors",
    "max_in_degree",
    "out_neighbors",
    "parse_edge_list",
    "partitions_equal",
    "reach_set",
    "render_result",
    "run",
    "scc_kosaraju",
    "serialize_edge_list",
    "trace_table",
    "__version__",
]
