"""Command-line front end.

Subcommands: ``scc`` (component decomposition), ``diameter``, ``trace``
(round-by-round table), ``gen`` (write a random graph as an edge list)
and ``bench`` (experiment harness emitting CSV).  Exit codes: 0 on
success, 2 on input or parameter errors (including a graph too large for
the engine's mask limit or for the memory the process has, or a trace
past its character limit), 3 when an
internal correctness check fails or the engine raises on input that
passed validation; an exit-3 message names the engine mode, so that it
reproduces the failing run.  ``trace`` writes each round as it ends, so
on exit 2 or 3 its output holds the whole rounds written before.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from . import bench as bench_mod
from .engine import (
    GraphTooLargeError,
    InternalCorrectnessError,
    Mode,
    assemble_partition,
    finite_diameter_from_run,
    render_result,
    run,
    trace_table,
)
from .generators import gen_barabasi_albert, gen_erdos_renyi, gen_watts_strogatz
from .graphs import Digraph, EdgeListError, parse_edge_list, serialize_edge_list
from .oracles import floyd_warshall_diameter

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# ``diameter --check`` runs Floyd-Warshall on an n x n matrix of Python
# floats; at this many nodes its row pointers alone take 128 MiB.
MAX_CHECK_NODES = 4096


def _read_graph(path: str, base: int) -> Digraph:
    with open(path, encoding="utf-8") as f:
        return parse_edge_list(f, base=base)


@contextmanager
def _engine_faults() -> Iterator[None]:
    """Report a ValueError or IndexError out of the engine as an internal fault.

    The input was already parsed and checked, so such an error is an
    engine bug, not bad input.  The one exception is a graph too large
    for the engine's memory limit, which is an input error.
    """
    try:
        yield
    except GraphTooLargeError:
        raise
    except (ValueError, IndexError) as exc:
        raise InternalCorrectnessError(f"{type(exc).__name__}: {exc}") from exc


def cmd_scc(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph, args.base)
    if g.n == 0:
        return EXIT_OK
    with _engine_faults():
        result = run(g, mode=args.mode)
        partition = assemble_partition(result)
        text = render_result(result, partition, base=args.base)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_diameter(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph, args.base)
    if args.check and g.n > MAX_CHECK_NODES:
        raise ValueError(
            f"--check builds an n x n floyd-warshall matrix and is limited to "
            f"{MAX_CHECK_NODES} nodes; this graph has {g.n}"
        )
    if g.n == 0:
        print(0)
        return EXIT_OK
    with _engine_faults():
        result = run(g, mode=args.mode)
        d = finite_diameter_from_run(result)
    print(d)
    if args.check:
        fw = floyd_warshall_diameter(g)
        if fw != d:
            print(f"check failed in {args.mode.value} mode: floyd-warshall reports {fw}",
                  file=sys.stderr)
            return EXIT_INTERNAL
        print(f"check ok: floyd-warshall agrees ({fw})")
    return EXIT_OK


def cmd_trace(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph, args.base)
    if g.n == 0:
        return EXIT_OK
    with _engine_faults():
        trace_table(g, args.mode, sys.stdout, args.base)
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "er":
        if args.m is None:
            raise ValueError("er requires --m")
        g = gen_erdos_renyi(args.n, args.m, args.seed)
    elif args.family == "ba":
        if args.m is None:
            raise ValueError("ba requires --m")
        g = gen_barabasi_albert(args.n, args.m, args.seed)
    else:
        g = gen_watts_strogatz(args.n, args.k, args.p, args.seed)
    text = serialize_edge_list(g)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    if args.diameter_suite:
        with _engine_faults():
            records = bench_mod.diameter_benchmark(args.seed, args.mode)
        description = "diameter suite: ER/BA/WS at n=25 vs floyd-warshall"
    else:
        if args.family is None:
            raise ValueError("bench requires --family or --diameter-suite")
        cfg = bench_mod.ExperimentConfig(
            family=args.family.upper(),
            parameter_set=args.param_set,
            node_sizes=tuple(args.sizes),
            replicates=args.replicates,
            seed=args.seed,
            mode=args.mode,
        )
        with _engine_faults():
            records = bench_mod.run_experiment(cfg)
        description = (
            f"family={cfg.family} parameter_set={cfg.parameter_set} "
            f"sizes={list(cfg.node_sizes)} replicates={cfg.replicates}"
        )
    out = Path(args.out)
    bench_mod.emit_csv(records, out)
    bench_mod.write_manifest(out.with_suffix(".manifest.txt"), description, args.seed, args.mode)
    print(f"wrote {len(records)} records to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sccd",
        description="Strongly connected components and finite diameter of directed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mode_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--global-rounds", dest="mode", action="store_const",
                       const=Mode.GLOBAL_ROUNDS, default=Mode.PER_NODE_FREEZE,
                       help="every node keeps updating until all stabilize together "
                            "(default: each node freezes once stable)")

    def add_graph_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("graph", help="edge-list file")
        p.add_argument("--base", type=int, choices=(0, 1), default=0,
                       help="id base of the input file (also used for output)")
        add_mode_args(p)

    p_scc = sub.add_parser("scc", help="decompose into strongly connected components")
    add_graph_args(p_scc)
    p_scc.set_defaults(func=cmd_scc)

    p_diam = sub.add_parser("diameter", help="finite diameter from the round counts")
    add_graph_args(p_diam)
    p_diam.add_argument("--check", action="store_true",
                        help="cross-check against floyd-warshall")
    p_diam.set_defaults(func=cmd_diameter)

    p_trace = sub.add_parser("trace", help="print the round-by-round state table")
    add_graph_args(p_trace)
    p_trace.set_defaults(func=cmd_trace)

    p_gen = sub.add_parser("gen", help="generate a seeded random graph")
    p_gen.add_argument("family", choices=("er", "ba", "ws"))
    p_gen.add_argument("--n", type=int, required=True, help="number of nodes")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--m", type=int, help="edges (er) / links per new vertex (ba)")
    p_gen.add_argument("--k", type=int, default=bench_mod.WS_LATTICE_K,
                       help="ws lattice neighbors per node")
    p_gen.add_argument("--p", type=float, default=0.2, help="ws rewiring probability")
    p_gen.add_argument("--out", help="output file (default: stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="run the benchmark harness, emit CSV")
    p_bench.add_argument("--family", choices=("er", "ba", "ws"))
    p_bench.add_argument("--param-set", type=int, choices=(1, 2), default=1)
    p_bench.add_argument("--sizes", type=int, nargs="+", default=[100, 200, 300, 400, 500])
    p_bench.add_argument("--replicates", type=int, default=10)
    p_bench.add_argument("--seed", type=int, required=True)
    p_bench.add_argument("--out", required=True, help="CSV output path")
    p_bench.add_argument("--diameter-suite", action="store_true",
                         help="25-node diameter comparison against floyd-warshall")
    add_mode_args(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EdgeListError, ValueError, OSError, MemoryError) as exc:
        # A MemoryError carries no message of its own.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INPUT
    except InternalCorrectnessError as exc:
        # Only commands that run the engine raise it, and each has a mode.
        print(f"internal correctness violation in {args.mode.value} mode: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
