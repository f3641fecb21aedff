#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for `sccd scc` and `sccd bench`.

Run from the repository root:

    python3 perfbench/run.py --workload scc-ba --seed 1 --seconds 25 --trace 0

Everything runs in this one process, with no threads.  A run imports
the program from ``src/`` afresh, generates the workload's graphs from
``--seed`` and writes them as edge-list files (set-up, repeated and
timed), computes reference answers with ``reference.py`` (which uses no
sccd code), then calls ``sccd.cli.main`` in-process with standard output
captured, in whole rounds of one operation per graph, for as many rounds
as fit in ``--seconds`` (at least one).  Every operation's output is
checked against the reference.

``--trace 0`` reports the end-to-end metrics.  Each timed operation is
followed by calls of a fixed calibration task (``calibration.py``), and
times are reported relative to it, so that the host's drifting speed
cancels out.  ``--trace 1`` reports the per-layer metrics: it wraps the
public functions the command calls, as the program's modules see them,
so each call gets a span; it also times the same operation untraced,
which gives the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Earlier lines
carry the run's metadata.  A failed check prints a reproducer on
standard error and keeps the run's files under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import sys
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from calibration import make_calibration
from reference import Reference, read_edge_list, reference

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 11
MIB = 2**20
# Calibration time (calibration.py) taken as the reference host speed:
# setup_s is set-up time scaled to a host that runs the calibration in this long.
CALIB_REF_S = 0.15
# After each timed operation the calibration runs for at least this share of
# the operation's time, so that it samples the host's speed over more than
# an instant.
CALIB_SHARE = 0.1
MAX_REPORTS = 5  # reproducers printed per run; later failures are only counted

# Operations per round (one per generated graph) and how many of those
# graphs the tracemalloc pass covers.  Watts-Strogatz graphs differ more
# from seed to seed than the Barabasi-Albert ones, so scc-ws averages over
# more graphs to keep run-to-run spread small.  A bench record takes about
# 5 s, so bench-ba-global uses one graph and fits several rounds in a run.
GRAPHS = {"scc-ba": 2, "scc-ws": 8, "bench-ba-global": 1}
PEAK_GRAPHS = {"scc-ba": 1, "scc-ws": 3, "bench-ba-global": 1}

BA_N, BA1_M, BA2_M = 500, 100, 50
WS_N, WS_K, WS_P = 1000, 4, 0.2
BENCH_PARAM_SET = 2
# Closed form for Barabasi-Albert with an m-node seed clique: C(m, 2) + (n - m) * m.
BENCH_M_EDGES = BA2_M * (BA2_M - 1) // 2 + (BA_N - BA2_M) * BA2_M

# (module, attribute, layer span name): the calls the traced run wraps.
LAYER_CALLS = (
    ("sccd.cli", "parse_edge_list", "graphs.parse"),
    ("sccd.cli", "run", "engine.run"),
    ("sccd.cli", "assemble_partition", "engine.assemble"),
    ("sccd.cli", "render_result", "engine.render"),
    ("sccd.bench", "gen_barabasi_albert", "generators.gen"),
    ("sccd.bench", "graph_stats", "stats.graph_stats"),
    ("sccd.bench", "run", "engine.run"),
    ("sccd.bench", "assemble_partition", "engine.assemble"),
    ("sccd.bench", "scc_kosaraju", "oracles.kosaraju"),
    ("sccd.bench", "emit_csv", "bench.emit_csv"),
    ("sccd.stats", "bfs_finite_diameter", "oracles.bfs_diameter"),
    ("sccd.stats", "scc_kosaraju", "oracles.kosaraju"),
)
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in LAYER_CALLS))
RUN_COUNTS = ("rounds", "node_updates", "element_ops", "reach_elems", "peer_entries")


@dataclass
class Op:
    """One operation: a CLI call on one generated graph, with its expected output."""

    index: int
    graph_path: Path
    argv: list[str]
    expected: list[str]
    out_csv: Path | None = None


@dataclass
class Tracer:
    """In-memory spans: [name, parent index, start, end]; plus per-call engine counts."""

    spans: list[list] = field(default_factory=list)
    run_counts: list[dict[str, int]] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else None, perf_counter(), None])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][3] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if name == "engine.run":
                self.run_counts.append(run_counts(out))
            return out

        return traced

    def durations(self, name: str) -> list[float]:
        return [end - start for n, _, start, end in self.spans if n == name]


def run_counts(result) -> dict[str, int]:
    """Work counts of one engine run, read from its public result."""
    states = result.final.states
    return {
        "rounds": max(result.rounds_per_node),
        "node_updates": sum(result.rounds_per_node),
        "element_ops": result.element_ops,
        "reach_elems": sum(len(s.reach) for s in states),
        "peer_entries": sum(len(s.peers) for s in states),
    }


@contextlib.contextmanager
def layer_spans(tracer: Tracer):
    """Route the program's calls into each layer through ``tracer``."""
    saved = []
    for module_name, attr, layer in LAYER_CALLS:
        module = sys.modules[module_name]
        if not hasattr(module, attr):
            print(f"warning: {module_name}.{attr} not found; {layer} is not traced there",
                  file=sys.stderr)
            continue
        fn = getattr(module, attr)
        saved.append((module, attr, fn))
        setattr(module, attr, tracer.wrap(layer, fn))
    try:
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def import_sccd():
    """Import the program from ``src/`` afresh and return (sccd, sccd.cli)."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    for name in [m for m in sys.modules if m == "sccd" or m.startswith("sccd.")]:
        del sys.modules[name]
    return importlib.import_module("sccd"), importlib.import_module("sccd.cli")


def graph_seeds(workload: str, seed: int) -> list[int]:
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(10**9) for _ in range(GRAPHS[workload])]


def bench_row_seed(bench_seed: int) -> int:
    # The seed `sccd bench` derives for its single record (n=500, replicate 0);
    # the CSV's seed column is checked against it.
    return ((bench_seed * 31 + BENCH_PARAM_SET) * 1_000_003 + BA_N) * 101


def generate(sccd, workload: str, graph_seed: int):
    if workload == "scc-ba":
        return sccd.gen_barabasi_albert(BA_N, BA1_M, graph_seed)
    if workload == "scc-ws":
        return sccd.gen_watts_strogatz(WS_N, WS_K, WS_P, graph_seed)
    return sccd.gen_barabasi_albert(BA_N, BA2_M, bench_row_seed(graph_seed))


def set_up(workload: str, seeds: list[int], workdir: Path, tracer: Tracer):
    """Import the program, then generate and write the workload's graphs.

    Returns the set-up time, the imported modules and the graphs.
    """
    start = perf_counter()
    sccd, cli = import_sccd()
    graphs = []
    for i, graph_seed in enumerate(seeds):
        with tracer.span("generators.gen"):
            g = generate(sccd, workload, graph_seed)
        (workdir / f"graph{i}.txt").write_text(sccd.serialize_edge_list(g))
        graphs.append(g)
    return perf_counter() - start, sccd, cli, graphs


def expected_scc(ref: Reference) -> list[str]:
    lines = ["component: " + " ".join(map(str, comp)) for comp in ref.components]
    lines.append("rounds: " + " ".join(str(e + 1) for e in ref.in_ecc))
    lines.append(f"diameter: {ref.diameter}")
    return lines


BENCH_FIELDS = ("family", "parameter_set", "n", "generator_params", "seed", "replicate",
                "m_edges", "d_in_max", "finite_diameter", "num_sccs", "rounds_max", "correct")


def expected_bench(ref: Reference, bench_seed: int, out_csv: Path) -> list[str]:
    values = {
        "family": "BA", "parameter_set": BENCH_PARAM_SET, "n": BA_N,
        "generator_params": f"m={BA2_M}", "seed": bench_row_seed(bench_seed), "replicate": 0,
        "m_edges": BENCH_M_EDGES, "d_in_max": ref.max_in_degree,
        "finite_diameter": ref.diameter, "num_sccs": len(ref.components),
        "rounds_max": ref.diameter + 1, "correct": "true",
    }
    return [f"wrote 1 records to {out_csv}", "csv rows: 1"] + [
        f"{name}: {values[name]}" for name in BENCH_FIELDS
    ]


def make_ops(workload: str, seeds: list[int], workdir: Path) -> list[Op]:
    ops = []
    for i, graph_seed in enumerate(seeds):
        path = workdir / f"graph{i}.txt"
        ref = reference(*read_edge_list(path.read_text()))
        if workload.startswith("scc-"):
            ops.append(Op(i, path, ["scc", str(path)], expected_scc(ref)))
        else:
            out_csv = workdir / f"record{i}.csv"
            argv = ["bench", "--family", "ba", "--param-set", str(BENCH_PARAM_SET),
                    "--sizes", str(BA_N), "--replicates", "1", "--global-rounds",
                    "--seed", str(graph_seed), "--out", str(out_csv)]
            ops.append(Op(i, path, argv, expected_bench(ref, graph_seed, out_csv), out_csv))
    return ops


def observed(op: Op, stdout: str) -> list[str]:
    lines = stdout.splitlines()
    if op.out_csv is not None:
        try:
            with open(op.out_csv, newline="") as f:
                rows = list(csv.DictReader(f))
        except OSError as exc:
            return lines + [f"csv unreadable: {exc}"]
        lines.append(f"csv rows: {len(rows)}")
        if rows:
            lines += [f"{name}: {rows[0].get(name)}" for name in BENCH_FIELDS]
    return lines


def first_difference(expected: list[str], got: list[str]) -> str | None:
    for i in range(max(len(expected), len(got))):
        e = expected[i] if i < len(expected) else "<no line>"
        g = got[i] if i < len(got) else "<no line>"
        if e != g:
            col = next((k for k, (a, b) in enumerate(zip(e, g)) if a != b), min(len(e), len(g)))
            return (f"line {i + 1}, column {col + 1}:\n"
                    f"  expected: {excerpt(e, col)}\n"
                    f"  got:      {excerpt(g, col)}")
    return None


def excerpt(line: str, col: int, width: int = 60) -> str:
    lo, hi = max(0, col - width), col + width
    return ("..." if lo else "") + line[lo:hi] + ("..." if hi < len(line) else "")


class Runner:
    """Calls operations through ``sccd.cli.main``, checks each and tallies results."""

    def __init__(self, cli, workload: str, seed: int, args_line: str):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.args_line = args_line
        self.attempted = self.failed = self.mismatches = self.reports = 0

    def call(self, op: Op, tracer: Tracer | None = None) -> float | None:
        """Run ``op`` once, in an "op" span of ``tracer`` if given.

        Returns its wall time, or None if it failed.
        """
        self.attempted += 1
        if op.out_csv is not None:
            op.out_csv.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        span = tracer.span("op") if tracer is not None else contextlib.nullcontext()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = perf_counter()
                with span:
                    rc = self.cli.main(op.argv)
        except Exception:
            self.failed += 1
            self.report(op, "the operation raised:\n" + traceback.format_exc())
            return None
        elapsed = perf_counter() - start
        if rc != 0:
            self.failed += 1
            self.report(op, f"exit code {rc}; stderr begins: {err.getvalue()[:300]!r}")
            return None
        diff = first_difference(op.expected, observed(op, out.getvalue()))
        if diff is not None:
            self.mismatches += 1
            self.report(op, f"first difference from the reference, {diff}")
        return elapsed

    def report(self, op: Op, what: str) -> None:
        self.reports += 1
        if self.reports > MAX_REPORTS:
            return
        mode = "global-rounds" if "--global-rounds" in op.argv else "per-node-freeze"
        print(
            f"CHECK FAILED: workload {self.workload}, seed {self.seed}, mode {mode}, "
            f"graph {op.index}\n"
            f"  kept edge list: {op.graph_path}\n"
            f"  call: sccd {' '.join(op.argv)}\n"
            f"  rerun: python3 perfbench/run.py {self.args_line}\n"
            f"{what}",
            file=sys.stderr,
        )


def rounds_within(seconds: float, fn) -> None:
    """Call ``fn`` (one round) once, then again while one more round of the
    mean length so far would still end within ``seconds``."""
    start = perf_counter()
    rounds = 0
    while True:
        fn()
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return


def peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def timed(fn) -> float:
    start = perf_counter()
    fn()
    return perf_counter() - start


def calibration_time(calibrate, seconds: float) -> float:
    """Mean time of one calibration call, over calls that together take at
    least ``seconds`` (at least one call)."""
    calls, total = 0, 0.0
    while calls == 0 or total < seconds:
        total += timed(calibrate)
        calls += 1
    return total / calls


def measure_end_to_end(runner: Runner, ops: list[Op], workload: str, seconds: float,
                       calibrate, setup_times: list[float], setup_calib: list[float]):
    """Time whole rounds for ``seconds``, each operation followed by
    calibration calls; the ratio of the two is the operation's time in
    calibration units, steady while the host's speed drifts."""
    # The tracemalloc pass also warms up; it is never timed.
    peaks = [peak_mib(lambda: runner.call(op)) for op in ops[: PEAK_GRAPHS[workload]]]
    times: dict[int, list[float]] = {op.index: [] for op in ops}
    ratios: dict[int, list[float]] = {op.index: [] for op in ops}
    calib_times: list[float] = []

    def one_round():
        for op in ops:
            t = runner.call(op)
            calib_times.append(calibration_time(calibrate, CALIB_SHARE * (t or 0.0)))
            if t is not None:
                times[op.index].append(t)
                ratios[op.index].append(t / calib_times[-1])

    rounds_within(seconds, one_round)
    setup_ratio = statistics.median(t / c for t, c in zip(setup_times, setup_calib))
    print("wall: " + json.dumps({
        "op_s": per_graph_mean(times), "calib_s": statistics.median(calib_times),
        "setup_s": statistics.median(setup_times),
        "setup_calib_s": statistics.median(setup_calib)}))
    return {"op_rel": (per_graph_mean(ratios), "x"),
            "setup_s": (setup_ratio * CALIB_REF_S, "s"),
            "peak_mib": (statistics.mean(peaks), "MiB")}


def per_graph_mean(samples: dict[int, list[float]]) -> float:
    """Median over each graph's calls, then the mean over graphs.

    The median damps a call the host slowed; the mean weighs every graph of
    the workload alike.
    """
    per_graph = [statistics.median(v) for v in samples.values() if v]
    return statistics.mean(per_graph) if per_graph else 0.0


def measure_layers(runner: Runner, ops: list[Op], workload: str, seconds: float,
                   sccd, first_graph, tracer: Tracer):
    mode = sccd.Mode.GLOBAL_ROUNDS if workload == "bench-ba-global" else sccd.Mode.PER_NODE_FREEZE
    if workload.startswith("scc-"):
        text = ops[0].graph_path.read_text()
        parse_peak = peak_mib(lambda: sccd.parse_edge_list(text))
    else:
        parse_peak = 0.0
    run_peak = peak_mib(lambda: sccd.run(first_graph, mode=mode))

    untraced: list[float] = []
    counts_by_graph: dict[int, dict[str, int]] = {}

    def one_round():
        for op in ops:
            t = runner.call(op)
            if t is not None:
                untraced.append(t)
            first_count = len(tracer.run_counts)
            with layer_spans(tracer):
                runner.call(op, tracer)
            for counts in tracer.run_counts[first_count:]:
                if counts_by_graph.setdefault(op.index, counts) != counts:
                    runner.mismatches += 1
                    runner.report(op, f"engine counts changed between calls: "
                                      f"{counts_by_graph[op.index]} then {counts}")

    rounds_within(seconds, one_round)

    op_time = {i: end - start for i, (name, _, start, end) in enumerate(tracer.spans)
               if name == "op"}
    self_time = dict(op_time)  # an op's time outside every wrapped call
    for _, parent, start, end in tracer.spans:
        if parent in self_time:
            self_time[parent] -= end - start
    metrics = {f"{name}_s": (median_or_zero(tracer.durations(name)), "s")
               for name in LAYERS}
    metrics["graphs.parse_peak_mib"] = (parse_peak, "MiB")
    metrics["engine.run_peak_mib"] = (run_peak, "MiB")
    metrics["engine.run_calls"] = (len(tracer.durations("engine.run")) / len(op_time), "count")
    for key in RUN_COUNTS:
        per_graph = [c[key] for c in counts_by_graph.values()]
        metrics[f"engine.{key}"] = (statistics.mean(per_graph) if per_graph else 0, "count")
    run_s = metrics["engine.run_s"][0]
    rounds = metrics["engine.rounds"][0]
    updates = metrics["engine.node_updates"][0]
    ops_count = metrics["engine.element_ops"][0]
    metrics["engine.useful_ratio"] = (
        metrics["engine.reach_elems"][0] / ops_count if ops_count else 0.0, "ratio")
    metrics["engine.round_s"] = (run_s / rounds if rounds else 0.0, "s")
    metrics["engine.update_us"] = (run_s / updates * 1e6 if updates else 0.0, "us")
    metrics["cli.self_s"] = (median_or_zero(list(self_time.values())), "s")
    traced_s, untraced_s = median_or_zero(list(op_time.values())), median_or_zero(untraced)
    metrics["trace.op_s"] = (traced_s, "s")
    metrics["trace.untraced_op_s"] = (untraced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s if untraced_s else 0.0, "ratio")
    return metrics


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GRAPHS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workload, seed, trace = args.workload, args.seed, bool(args.trace)
    args_line = (f"--workload {workload} --seed {seed} --seconds {args.seconds:g} "
                 f"--trace {args.trace}")
    workdir = WORK / f"{workload}-seed{seed}-trace{args.trace}"
    tracer = Tracer()
    seeds = graph_seeds(workload, seed)
    if not (ROOT / "src" / "sccd" / "__init__.py").is_file():
        print(f"error: no sccd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    calibrate = make_calibration()
    setup_times, setup_calib = [], []
    for _ in range(SETUP_REPEATS):
        # Only the last set-up's modules and graphs stay alive.
        setup_time, sccd, cli, graphs = set_up(workload, seeds, workdir, tracer)
        setup_times.append(setup_time)
        setup_calib.append(timed(calibrate))
    first_graph = graphs[0]
    del graphs
    meta = {"workload": workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
            "sccd_version": sccd.__version__, "git_commit": git_commit(),
            "python": platform.python_version(), "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)), "graph_seeds": seeds}
    print("meta: " + json.dumps(meta))

    ops = make_ops(workload, seeds, workdir)
    runner = Runner(cli, workload, seed, args_line)
    if trace:
        metrics = measure_layers(runner, ops, workload, args.seconds, sccd, first_graph, tracer)
        (WORK / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(tracer.spans))
    else:
        metrics = measure_end_to_end(runner, ops, workload, args.seconds, calibrate,
                                     setup_times, setup_calib)

    if runner.failed == 0 and runner.mismatches == 0:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": runner.mismatches == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
