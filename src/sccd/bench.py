"""Benchmark harness: engine vs. classical baselines on random graph families.

Wall-clock numbers are recorded for inspection only and never gate
anything; correctness (partition equality against Kosaraju, and the
round-count/diameter identity against the BFS and Floyd-Warshall
oracles) is asserted on every generated graph.
"""

from __future__ import annotations

import csv
import math
import time
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from statistics import median
from typing import Callable, TypeVar

from . import __version__
from .engine import InternalCorrectnessError, Mode, assemble_partition, run
from .generators import (
    check_barabasi_albert,
    check_erdos_renyi,
    check_watts_strogatz,
    gen_barabasi_albert,
    gen_erdos_renyi,
    gen_watts_strogatz,
)
from .graphs import Digraph, serialize_edge_list
from .oracles import floyd_warshall_diameter, partitions_equal, scc_kosaraju
from .stats import graph_stats

EULER_MASCHERONI = 0.5772156649015329

FAMILIES = ("ER", "BA", "WS")

# Second-parameter choice per (family, parameter_set); WS uses 4 lattice
# neighbors throughout since only the rewiring probability varies.
WS_LATTICE_K = 4

TIMING_REPS = 5

T = TypeVar("T")


@dataclass(frozen=True)
class CostEstimate:
    """Average-degree x average-path-length product for a random family."""

    expected_avg_degree: float
    expected_avg_path_length: float

    @property
    def expected_cost(self) -> float:
        return self.expected_avg_degree * self.expected_avg_path_length


def expected_cost_er(n: int, m: int) -> CostEstimate:
    """Closed-form cost estimate for a uniform random graph with ``m`` edges.

    Average degree 2m/n; average path length
    (ln n - gamma)/ln(2m/n) + 1/2, defined only above mean degree 1.
    """
    if n < 2 or m < 1:
        raise ValueError(f"need n >= 2 and m >= 1, got n={n}, m={m}")
    avg_degree = 2 * m / n
    if avg_degree <= 1.0:
        raise ValueError(f"mean degree {avg_degree} <= 1; path-length formula undefined")
    avg_path = (math.log(n) - EULER_MASCHERONI) / math.log(avg_degree) + 0.5
    return CostEstimate(avg_degree, avg_path)


def expected_cost_ba(n: int, m: int) -> CostEstimate:
    """Closed-form cost estimate for preferential attachment with ``m`` links per vertex.

    Average degree 2m; average path length
    (ln n - ln(m/2) - 1 - gamma)/(ln ln n + ln(m/2)) + 3/2.
    """
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    denom = math.log(math.log(n)) + math.log(m / 2)
    if denom <= 0.0:
        raise ValueError(f"non-positive denominator {denom:.4f} for n={n}, m={m}")
    if denom < 0.1:
        warnings.warn(
            f"near-singular path-length denominator {denom:.4f} for n={n}, m={m}",
            RuntimeWarning,
            stacklevel=2,
        )
    avg_path = (math.log(n) - math.log(m / 2) - 1 - EULER_MASCHERONI) / denom + 1.5
    return CostEstimate(2.0 * m, avg_path)


def expected_cost_ws(n: int, K: int) -> tuple[CostEstimate, CostEstimate]:
    """Limiting cost estimates for a rewired ring lattice with degree ``K``.

    Average path length tends to n/(2K) with no rewiring and to
    ln(n)/ln(K) under full rewiring; both limits are returned, and they
    bracket every rewiring probability.
    """
    if K < 2:
        raise ValueError(f"need K >= 2, got {K}")
    if n <= K:
        raise ValueError(f"need n > K, got n={n}, K={K}")
    lattice = CostEstimate(float(K), n / (2 * K))
    rewired = CostEstimate(float(K), math.log(n) / math.log(K))
    return lattice, rewired


@dataclass(frozen=True)
class ExperimentConfig:
    family: str
    parameter_set: int
    node_sizes: tuple[int, ...] = (100, 200, 300, 400, 500)
    replicates: int = 10
    seed: int = 0
    mode: Mode = Mode.PER_NODE_FREEZE

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.parameter_set not in (1, 2):
            raise ValueError(f"parameter_set must be 1 or 2, got {self.parameter_set}")
        if self.replicates < 1 or not self.node_sizes:
            raise ValueError("need replicates >= 1 and at least one node size")
        # Refuse every size the family's generator would refuse, before
        # anything runs, so that a ValueError out of a run is an engine fault.
        check = _CHECKS[self.family]
        for n in self.node_sizes:
            if n < 1:
                raise ValueError(f"node sizes must be >= 1, got {n}")
            check(*_generator_args(self.family, self.parameter_set, n))


@dataclass(frozen=True)
class ExperimentRecord:
    """One CSV row: the fields are the columns, in column order."""

    family: str
    parameter_set: int
    n: int
    generator_params: str
    seed: int
    replicate: int
    m_edges: int
    d_in_max: int
    finite_diameter: int
    num_sccs: int
    rounds_max: int
    element_ops: int
    t_consensus: float
    t_kosaraju: float
    t_floyd_warshall: float | None
    correct: bool  # always True: a record is built only after every check passed


CSV_COLUMNS = tuple(f.name for f in fields(ExperimentRecord))


def _generator_args(family: str, parameter_set: int, n: int) -> tuple:
    """Arguments of the family's generator, without the seed, for one size."""
    # Set 0 is the diameter suite's.
    if family == "ER":
        return n, (50, round(n ** (2 / 3)), 500)[parameter_set]
    if family == "BA":
        return n, (3, max(1, round(n / 5)), 50)[parameter_set]
    return n, WS_LATTICE_K, (0.2, 0.8, 0.2)[parameter_set]


_CHECKS = {"ER": check_erdos_renyi, "BA": check_barabasi_albert, "WS": check_watts_strogatz}


def _generate(family: str, parameter_set: int, n: int, seed: int) -> tuple[Digraph, str]:
    args = _generator_args(family, parameter_set, n)
    if family == "ER":
        return gen_erdos_renyi(*args, seed), f"m={args[1]}"
    if family == "BA":
        return gen_barabasi_albert(*args, seed), f"m={args[1]}"
    return gen_watts_strogatz(*args, seed), f"K={args[1]};p={args[2]}"


def _median_time(fn: Callable[[], T]) -> tuple[T, float]:
    # The untimed warm-up call's result, and the median of TIMING_REPS monotonic-clock timings.
    result = fn()
    times = []
    for _ in range(TIMING_REPS):
        t0 = time.perf_counter()
        fn()
        t1 = time.perf_counter()
        times.append(t1 - t0)
    return result, median(times)


def _record_seed(base_seed: int, parameter_set: int, n: int, replicate: int) -> int:
    return ((base_seed * 31 + parameter_set) * 1_000_003 + n) * 101 + replicate


def _check_and_record(
    family: str,
    parameter_set: int,
    n: int,
    seed: int,
    replicate: int,
    mode: Mode,
    with_floyd_warshall: bool,
) -> ExperimentRecord:
    g, params = _generate(family, parameter_set, n, seed)
    stats = graph_stats(g)
    result, t_consensus = _median_time(lambda: run(g, mode=mode))
    partition = assemble_partition(g, result)
    reference, t_kosaraju = _median_time(lambda: scc_kosaraju(g))
    rounds_max = max(result.rounds_per_node)
    t_fw = None
    if with_floyd_warshall:
        fw_diameter, t_fw = _median_time(lambda: floyd_warshall_diameter(g))
    if (
        not partitions_equal(partition, reference)
        or rounds_max != stats.finite_diameter + 1
        or (with_floyd_warshall and fw_diameter != rounds_max - 1)
    ):
        raise InternalCorrectnessError(
            f"mismatch on {family} set {parameter_set}, n={n}, seed={seed}, mode={mode.value}: "
            f"engine D={rounds_max - 1}, oracle D={stats.finite_diameter}, "
            f"engine components={partition.num_components}, "
            f"oracle components={reference.num_components}\n"
            f"offending graph:\n{serialize_edge_list(g)}"
        )
    return ExperimentRecord(
        family=family,
        parameter_set=parameter_set,
        n=n,
        generator_params=params,
        seed=seed,
        replicate=replicate,
        m_edges=stats.m,
        d_in_max=stats.d_in_max,
        finite_diameter=stats.finite_diameter,
        num_sccs=reference.num_components,
        rounds_max=rounds_max,
        element_ops=result.element_ops,
        t_consensus=t_consensus,
        t_kosaraju=t_kosaraju,
        t_floyd_warshall=t_fw,
        correct=True,
    )


def run_experiment(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    """Generate, decompose and cross-check graphs for one family/parameter set.

    The graph sequence is a pure function of ``cfg.seed``; only the
    timing fields vary between invocations.  Any correctness mismatch
    aborts the whole run with the offending seed and graph.
    """
    return [
        _check_and_record(
            cfg.family, cfg.parameter_set, n, _record_seed(cfg.seed, cfg.parameter_set, n, rep),
            rep, cfg.mode, with_floyd_warshall=False,
        )
        for n in cfg.node_sizes
        for rep in range(cfg.replicates)
    ]


def diameter_benchmark(seed: int, mode: Mode = Mode.PER_NODE_FREEZE) -> list[ExperimentRecord]:
    """Ten 25-node graphs per family, engine diameter against Floyd-Warshall."""
    return [
        _check_and_record(
            family, 0, 25, _record_seed(seed, 0, 25, rep) + _family_offset(family),
            rep, mode, with_floyd_warshall=True,
        )
        for family in FAMILIES
        for rep in range(10)
    ]


def _family_offset(family: str) -> int:
    # Stable across processes, unlike hash() on strings.
    return sum(ord(c) * 257**i for i, c in enumerate(family))


def _cell(value: object) -> object:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return value


def emit_csv(records: list[ExperimentRecord], path: str | Path) -> None:
    """Write one header row plus one row per record, columns in CSV_COLUMNS order."""
    if not records:
        raise ValueError("no records to emit")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        writer.writerows([_cell(getattr(r, c)) for c in CSV_COLUMNS] for r in records)


def write_manifest(path: str | Path, description: str, seed: int, mode: Mode) -> None:
    """Reproducibility sidecar: tool version, configuration, seed."""
    lines = [
        f"sccd version: {__version__}",
        f"configuration: {description}",
        f"seed: {seed}",
        f"engine mode: {mode.value}",
        f"watts-strogatz lattice neighbors: {WS_LATTICE_K}",
        "timings: median of repeated runs, monotonic clock, warm-up discarded",
    ]
    Path(path).write_text("\n".join(lines) + "\n")
