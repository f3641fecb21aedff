from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import fields, replace

import pytest

from sccd import bench, engine, stats
from sccd.bench import (
    CSV_COLUMNS,
    ExperimentConfig,
    ExperimentRecord,
    TIMING_REPS,
    diameter_benchmark,
    emit_csv,
    run_experiment,
    write_manifest,
)
from sccd.engine import InternalCorrectnessError, Mode, run
from sccd.partition import SccPartition

from cost_model import EULER_MASCHERONI, expected_cost_ba, expected_cost_er, expected_cost_ws


def test_expected_cost_er_worked_values():
    est = expected_cost_er(500, 500)
    assert est.expected_avg_degree == 2.0
    assert est.expected_avg_path_length == pytest.approx(8.633038107385, rel=1e-9)
    assert est.expected_cost == pytest.approx(2 * 8.633038107385, rel=1e-9)


def test_expected_cost_er_rejects_mean_degree_at_most_one():
    with pytest.raises(ValueError):
        expected_cost_er(100, 50)
    with pytest.raises(ValueError):
        expected_cost_er(100, 40)
    with pytest.raises(ValueError):
        expected_cost_er(1, 1)


def test_expected_cost_ba_worked_values():
    est = expected_cost_ba(500, 50)
    assert est.expected_avg_degree == 100.0
    est = expected_cost_ba(100, 2)
    assert est.expected_avg_path_length == pytest.approx(3.482710134366, rel=1e-9)


def test_expected_cost_ba_flags_near_singular_denominator():
    with pytest.warns(RuntimeWarning, match="near-singular"):
        expected_cost_ba(3, 2)
    with pytest.raises(ValueError):
        expected_cost_ba(2, 1)  # denominator is negative here


def test_expected_cost_ws_limits():
    lattice, rewired = expected_cost_ws(500, 4)
    assert lattice.expected_cost == pytest.approx(250.0)
    assert rewired.expected_cost == pytest.approx(4 * math.log(500) / math.log(4), rel=1e-12)
    lattice, rewired = expected_cost_ws(5, 4)
    assert lattice.expected_cost > 0 and rewired.expected_cost > 0
    with pytest.raises(ValueError):
        expected_cost_ws(10, 1)
    with pytest.raises(ValueError):
        expected_cost_ws(4, 4)


def test_expected_costs_monotone_over_benchmark_sizes():
    sizes = range(100, 501, 50)
    # BA at fixed links per vertex, WS at fixed lattice degree, and ER at
    # fixed mean degree all grow with n.  (ER at fixed edge *count* is not
    # monotone: the falling mean degree pushes the path length back up.)
    ba = [expected_cost_ba(n, 50).expected_cost for n in sizes]
    assert ba == sorted(ba)
    ws0 = [expected_cost_ws(n, 4)[0].expected_cost for n in sizes]
    ws1 = [expected_cost_ws(n, 4)[1].expected_cost for n in sizes]
    assert ws0 == sorted(ws0) and ws1 == sorted(ws1)
    er = [expected_cost_er(n, 2 * n).expected_cost for n in sizes]
    assert er == sorted(er)


def test_euler_mascheroni_constant():
    assert EULER_MASCHERONI == pytest.approx(0.5772156649015329, abs=1e-16)


def _merges_per_node(family: str, parameter_set: int, n: int) -> float:
    """Mean modeled merges (round count × in-degree) per node of one per-node-freeze run.

    The graph is the first replicate ``sccd bench --seed 1`` builds for the
    family, set and size; node v counts as ``rounds_per_node[v]`` updates
    of ``len(in_adj[v])`` merges each, a saturated node's skipped settling
    merge included.
    """
    g, _ = bench._generate(family, parameter_set, n, bench._record_seed(1, parameter_set, n, 0))
    result = run(g)
    return sum(k * len(ins) for k, ins in zip(result.rounds_per_node, g.in_adj)) / n


SIZES = (100, 200, 300, 400, 500)


@pytest.mark.parametrize("parameter_set", [1, 2])
def test_ba_merges_follow_the_expected_cost(parameter_set):
    """The paper's cost estimate holds the engine's work on the BA bench graphs.

    Over all ten replicates of both sets at n = 100..500, merges per node
    read 0.77-1.00x the expected cost.  ER is left out: set 1 has mean
    degree below 1, where the path-length formula is undefined, and set 2
    (500 edges) read 1.2-1.7x at n <= 300 but 0.3-0.7x at n = 500, where
    each node has one out-edge on average; a bound that wide holds nothing.
    """
    for n in SIZES:
        m = bench._generator_args("BA", parameter_set, n)[1]
        ratio = _merges_per_node("BA", parameter_set, n) / expected_cost_ba(n, m).expected_cost
        assert 0.75 <= ratio <= 1.0, (n, ratio)


@pytest.mark.parametrize("parameter_set", [1, 2])
def test_ws_merges_lie_between_the_lattice_and_rewired_limits(parameter_set):
    """Merges per node on the WS bench graphs lie between the two limiting costs.

    Over all ten replicates of both sets (rewiring 0.2 and 0.8) at
    n = 100..500 they lay 0.06-0.52 of the way from the rewired limit to
    the lattice one.
    """
    for n in SIZES:
        lattice, rewired = expected_cost_ws(n, bench.WS_LATTICE_K)
        merges = _merges_per_node("WS", parameter_set, n)
        share = (merges - rewired.expected_cost) / (lattice.expected_cost - rewired.expected_cost)
        assert 0.05 <= share <= 0.55, (n, share)


def _tiny_config(family: str, **kw) -> ExperimentConfig:
    return ExperimentConfig(
        family=family,
        parameter_set=kw.pop("parameter_set", 1),
        node_sizes=kw.pop("node_sizes", (20, 30)),
        replicates=kw.pop("replicates", 2),
        seed=kw.pop("seed", 42),
    )


@pytest.mark.parametrize("family", ["ER", "BA", "WS"])
def test_run_experiment_records_are_correct_and_consistent(family):
    records = run_experiment(_tiny_config(family))
    assert len(records) == 4
    for r in records:
        assert r.correct is True
        assert r.rounds_max == r.finite_diameter + 1
        assert r.t_consensus > 0 and r.t_kosaraju > 0
        assert r.t_floyd_warshall is None
        assert r.element_ops > 0


def test_run_experiment_graph_sequence_is_deterministic():
    a = run_experiment(_tiny_config("ER"))
    b = run_experiment(_tiny_config("ER"))
    assert [
        (r.seed, r.n, r.m_edges, r.d_in_max, r.finite_diameter, r.num_sccs, r.rounds_max, r.element_ops)
        for r in a
    ] == [
        (r.seed, r.n, r.m_edges, r.d_in_max, r.finite_diameter, r.num_sccs, r.rounds_max, r.element_ops)
        for r in b
    ]


def test_run_experiment_global_mode():
    records = run_experiment(
        ExperimentConfig(
            family="WS", parameter_set=2, node_sizes=(25,), replicates=2,
            seed=7, mode=Mode.GLOBAL_ROUNDS,
        )
    )
    for r in records:
        assert r.correct is True


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(family="XX", parameter_set=1)
    with pytest.raises(ValueError):
        ExperimentConfig(family="ER", parameter_set=3)
    with pytest.raises(ValueError):
        ExperimentConfig(family="ER", parameter_set=1, replicates=0)
    # Every size the family's generator would refuse is refused up front,
    # with the generator's own message.
    for family, parameter_set, size, message in [
        ("BA", 2, 40, "need 1 <= m < n, got m=50, n=40"),
        ("BA", 1, 1, "need 1 <= m < n, got m=1, n=1"),
        ("ER", 2, 22, r"m must be in \[0, 462\] for n=22, got 500"),
        ("ER", 1, 0, "node sizes must be >= 1, got 0"),
        ("WS", 1, 4, "K must be < n, got K=4, n=4"),
    ]:
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(family=family, parameter_set=parameter_set, node_sizes=(100, size))
    ExperimentConfig(family="BA", parameter_set=2, node_sizes=(51,))
    ExperimentConfig(family="ER", parameter_set=2, node_sizes=(23,))
    ExperimentConfig(family="WS", parameter_set=1, node_sizes=(5,))


def test_diameter_benchmark_checks_floyd_warshall(tmp_path):
    records = diameter_benchmark(seed=5)
    assert len(records) == 30
    assert {r.family for r in records} == {"ER", "BA", "WS"}
    for r in records:
        assert r.n == 25
        assert r.correct is True
        assert r.t_floyd_warshall is not None
        assert r.rounds_max == r.finite_diameter + 1
    emit_csv(records, tmp_path / "diam.csv")


def test_each_record_calls_engine_and_oracles_once_per_timing(monkeypatch):
    # The warm-up call's result is the one checked: no call of run or an
    # oracle beyond the timed ones.  The rounds run once more, untimed, only
    # when a per-node-freeze record reads its element_ops from that result;
    # a global-rounds run counts in its own rounds.  graph_stats calls no
    # Kosaraju: the record's SCC count comes from the checked reference
    # partition.
    names = ("run", "scc_kosaraju", "floyd_warshall_diameter")
    calls: Counter = Counter()
    for module, name, key in [(bench, name, name) for name in names] + [
        (stats, "scc_kosaraju", "stats.scc_kosaraju"), (engine, "_run", "rounds")
    ]:
        def counted(*args, _fn=getattr(module, name), _key=key, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    cfg = _tiny_config("BA", parameter_set=2, node_sizes=(60,), replicates=1)
    records = run_experiment(cfg)
    assert len(records) == 1
    assert calls == {
        "run": 1 + TIMING_REPS, "scc_kosaraju": 1 + TIMING_REPS, "rounds": 2 + TIMING_REPS,
    }
    calls.clear()
    records = run_experiment(replace(cfg, mode=Mode.GLOBAL_ROUNDS))
    assert len(records) == 1
    assert calls == {
        "run": 1 + TIMING_REPS, "scc_kosaraju": 1 + TIMING_REPS, "rounds": 1 + TIMING_REPS,
    }
    calls.clear()
    records = diameter_benchmark(seed=1)
    assert calls == {
        **{name: len(records) * (1 + TIMING_REPS) for name in names},
        "rounds": len(records) * (2 + TIMING_REPS),
    }
    assert calls["stats.scc_kosaraju"] == 0


@pytest.mark.parametrize("mode", list(Mode))
def test_mismatch_message_names_the_mode(monkeypatch, mode):
    # Every node in one block: wrong for any graph with more than one SCC.
    monkeypatch.setattr(
        bench, "scc_kosaraju", lambda g: SccPartition.from_labels([0] * g.n)
    )
    cfg = ExperimentConfig(
        family="ER", parameter_set=1, node_sizes=(20,), replicates=1, seed=42, mode=mode
    )
    with pytest.raises(InternalCorrectnessError) as excinfo:
        run_experiment(cfg)
    message = str(excinfo.value)
    assert f"mode={mode.value}:" in message
    assert "mismatch on ER set 1, n=20, seed=" in message
    assert "oracle components=1" in message


def test_emit_csv_shape_and_formatting(tmp_path):
    records = run_experiment(_tiny_config("ER", node_sizes=(20,), replicates=1))
    path = tmp_path / "out.csv"
    emit_csv(records, path)
    rows = list(csv.reader(path.open()))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 2
    ts = rows[1][CSV_COLUMNS.index("t_consensus")]
    assert float(ts) > 0
    # six significant digits
    mantissa = ts.replace(".", "").replace("-", "").lstrip("0").rstrip("e")
    assert len(mantissa.split("e")[0]) <= 6
    assert rows[1][CSV_COLUMNS.index("t_floyd_warshall")] == ""
    assert rows[1][CSV_COLUMNS.index("correct")] == "true"


# Every non-timing cell of one family record (ER set 2, n=30, seed 42) and
# one diameter-suite record (seed 5, the fifth BA graph), as computed before
# ExperimentRecord became the CSV row; any change to them changes the output.
PINNED_ROWS = [
    {
        "family": "ER", "parameter_set": "2", "n": "30", "generator_params": "m=500",
        "seed": "131704398142", "replicate": "0", "m_edges": "500", "d_in_max": "24",
        "finite_diameter": "2", "num_sccs": "1", "rounds_max": "3", "element_ops": "25846",
        "correct": "true",
    },
    {
        "family": "BA", "parameter_set": "0", "n": "25", "generator_params": "m=3",
        "seed": "15655066265", "replicate": "4", "m_edges": "69", "d_in_max": "8",
        "finite_diameter": "6", "num_sccs": "3", "rounds_max": "7", "element_ops": "5356",
        "correct": "true",
    },
]


def test_csv_rows_are_pinned(tmp_path):
    records = run_experiment(_tiny_config("ER", parameter_set=2, node_sizes=(30,), replicates=1))
    records.append(diameter_benchmark(seed=5)[14])
    path = tmp_path / "pinned.csv"
    emit_csv(records, path)
    rows = list(csv.DictReader(path.open()))
    assert [{c: v for c, v in row.items() if not c.startswith("t_")} for row in rows] == PINNED_ROWS
    assert rows[0]["t_floyd_warshall"] == ""
    assert all(float(row[c]) > 0 for row in rows for c in ("t_consensus", "t_kosaraju"))
    assert float(rows[1]["t_floyd_warshall"]) > 0


def test_record_fields_are_the_csv_columns():
    assert tuple(f.name for f in fields(ExperimentRecord)) == CSV_COLUMNS == (
        "family", "parameter_set", "n", "generator_params", "seed", "replicate",
        "m_edges", "d_in_max", "finite_diameter", "num_sccs", "rounds_max", "element_ops",
        "t_consensus", "t_kosaraju", "t_floyd_warshall", "correct",
    )


def test_emit_csv_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_csv([], tmp_path / "nope.csv")


def test_write_manifest(tmp_path):
    p = tmp_path / "run.manifest.txt"
    write_manifest(p, "family=ER set 1", seed=9, mode=Mode.PER_NODE_FREEZE)
    text = p.read_text()
    assert "seed: 9" in text
    assert "sccd version:" in text
    assert "per-node-freeze" in text
