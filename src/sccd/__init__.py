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
    gen_watts_strogatz,
)
from .graphs import (
    Digraph,
    EdgeListError,
    max_in_degree,
    parse_edge_list,
    serialize_edge_list,
)
from .oracles import (
    bfs_finite_diameter,
    floyd_warshall_diameter,
    partitions_equal,
    scc_kosaraju,
)
from .partition import SccPartition
from .stats import GraphStats, graph_stats

__all__ = [
    "Digraph",
    "EdgeListError",
    "GraphStats",
    "InternalCorrectnessError",
    "Mode",
    "NodeState",
    "RoundSnapshot",
    "RunResult",
    "SccPartition",
    "assemble_partition",
    "bfs_finite_diameter",
    "finite_diameter_from_run",
    "floyd_warshall_diameter",
    "gen_barabasi_albert",
    "gen_erdos_renyi",
    "gen_watts_strogatz",
    "graph_stats",
    "max_in_degree",
    "parse_edge_list",
    "partitions_equal",
    "render_result",
    "run",
    "scc_kosaraju",
    "serialize_edge_list",
    "trace_table",
    "__version__",
]
