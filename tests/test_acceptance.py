"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 2, 4 and 5 share the seeded 540-graph corpus from corpus.py.
Wall-clock limits are asserted where the criterion states one.
"""

from __future__ import annotations

import csv
import time

import mpmath as mp
import pytest

from sccd.bench import (
    CSV_COLUMNS,
    ExperimentConfig,
    emit_csv,
    expected_cost_ba,
    expected_cost_er,
    expected_cost_ws,
    run_experiment,
)
from sccd.engine import (
    Mode,
    assemble_partition,
    finite_diameter_from_run,
    render_result,
    run,
    trace_table,
)
from sccd.oracles import (
    bfs_finite_diameter,
    floyd_warshall_diameter,
    partitions_equal,
    scc_kosaraju,
)
from sccd.partition import SccPartition

from conftest import INF, complete5, cycle_with_tail, distance_rows, pair_chain, tree9
from corpus import build_corpus
from reference_engine import reference_run, schedules
from tables import GOLDEN_COMPLETE5, GOLDEN_PAIR_CHAIN, GOLDEN_TREE9, render_golden


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


def test_criterion_1_golden_traces():
    t0 = time.perf_counter()
    for make, golden in (
        (pair_chain, GOLDEN_PAIR_CHAIN),
        (complete5, GOLDEN_COMPLETE5),
        (tree9, GOLDEN_TREE9),
    ):
        result = run(make(), mode=Mode.GLOBAL_ROUNDS, trace=True)
        assert trace_table(result, base=1) == render_golden(golden, base=1)
        for k, (snap, row) in enumerate(zip(result.history, golden)):
            for i, st in enumerate(snap.states):
                assert set(st.reach) == {v - 1 for v in row["x"][i]}
                assert st.max_size == row["y"][i]
                assert set(st.peers) == {v - 1 for v in row["z"][i]}
                assert st.stable == row["w"][i]
    # the transient false positive is present
    chain = run(pair_chain(), mode=Mode.GLOBAL_ROUNDS, trace=True)
    assert set(chain.history[3].states[5].peers) == {2, 4}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: all three worked tables reproduced exactly ({elapsed:.3f}s)")


def test_criterion_2_partition_oracle_equivalence(corpus):
    assert len(corpus) >= 500
    t0 = time.perf_counter()
    for label, g in corpus:
        reference = scc_kosaraju(g)
        for mode in Mode:
            result = run(g, mode=mode)
            parts = assemble_partition(g, result)
            assert partitions_equal(parts, reference), f"{label} in {mode}"
            if mode is Mode.GLOBAL_ROUNDS:
                for v in range(g.n):
                    assert (
                        result.final.states[v].peers
                        == frozenset(reference.components[reference.labels[v]])
                    ), f"{label}: node {v} peer set not its exact component"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"ACCEPTANCE 2 PASS: partitions match Kosaraju on {len(corpus)} graphs "
        f"in both modes ({elapsed:.1f}s)"
    )


def test_criterion_3_adversarial_cycle_with_tail():
    g = cycle_with_tail()
    expected = SccPartition.from_labels([0, 0, 0] + list(range(3, 13)))
    frozen_result = run(g, mode=Mode.PER_NODE_FREEZE)
    # node 0 stabilizes early with only itself; merging recovers the cycle
    assert frozen_result.final.states[0].peers == frozenset({0})
    assert partitions_equal(assemble_partition(g, frozen_result), expected)
    global_result = run(g, mode=Mode.GLOBAL_ROUNDS)
    for v in range(13):
        assert global_result.final.states[v].peers == frozenset(
            expected.components[expected.labels[v]]
        )
    print("ACCEPTANCE 3 PASS: tail-fed cycle partitioned exactly in both modes")


def test_criterion_4_diameter_identity(corpus):
    checked_rounds = 0
    for label, g in corpus:
        result = run(g)
        d_engine = finite_diameter_from_run(result)
        assert d_engine == floyd_warshall_diameter(g), label
        if g.m > 0:
            d_bfs = bfs_finite_diameter(g)
            assert max(result.rounds_per_node) == d_bfs + 1, label
            checked_rounds += 1
    assert checked_rounds > 0
    print(
        f"ACCEPTANCE 4 PASS: max rounds == diameter + 1 on {checked_rounds} graphs; "
        f"engine diameter == floyd-warshall on all {len(corpus)}"
    )


def test_criterion_5_invariant_suite(corpus):
    for label, g in corpus:
        result = run(g, trace=True)
        history = result.history
        reference = scc_kosaraju(g)
        rows = distance_rows(g)
        for v in range(g.n):
            k_v = result.rounds_per_node[v]
            for r, snap in enumerate(history):
                st = snap.states[v]
                assert st.max_size == len(st.reach), f"{label}: y != |x| at {r}"
                if r < len(history) - 1:
                    nxt = history[r + 1].states[v]
                    assert st.reach <= nxt.reach, f"{label}: x shrank at {r}"
                    if r + 1 <= k_v - 1:
                        assert len(nxt.reach) > len(st.reach), (
                            f"{label}: no strict growth at round {r + 1} for node {v}"
                        )
            final = result.final.states[v]
            assert history[k_v].states[v].reach == final.reach
            assert len(history[k_v].states[v].reach) == len(history[k_v - 1].states[v].reach)
            reach = {u for u in range(g.n) if rows[u][v] != INF}
            assert final.reach == reach, f"{label}: reach set wrong at freeze"
            assert final.peers <= frozenset(reference.components[reference.labels[v]]), (
                f"{label}: unsound peer at node {v}"
            )
    print(f"ACCEPTANCE 5 PASS: zero invariant violations across {len(corpus)} graphs")


def test_criterion_6_expected_cost_formulas():
    mp.mp.dps = 50
    gamma = mp.euler

    def close(value: float, reference: mp.mpf) -> bool:
        return abs(value - float(reference)) <= 1e-9 * abs(float(reference))

    er = expected_cost_er(500, 500)
    er_path = (mp.log(500) - gamma) / mp.log(2 * 500 / mp.mpf(500)) + mp.mpf(1) / 2
    assert close(er.expected_avg_degree, mp.mpf(2))
    assert close(er.expected_avg_path_length, er_path)
    assert close(er.expected_cost, 2 * er_path)

    ba = expected_cost_ba(100, 2)
    ba_path = (mp.log(100) - mp.log(1) - 1 - gamma) / (
        mp.log(mp.log(100)) + mp.log(1)
    ) + mp.mpf(3) / 2
    assert close(ba.expected_avg_degree, mp.mpf(4))
    assert close(ba.expected_avg_path_length, ba_path)
    assert close(ba.expected_cost, 4 * ba_path)

    lattice, rewired = expected_cost_ws(500, 4)
    assert close(lattice.expected_cost, mp.mpf(500) / 2)
    assert close(rewired.expected_cost, 4 * mp.log(500) / mp.log(4))
    print("ACCEPTANCE 6 PASS: cost formulas match 50-digit re-evaluations to 1e-9")


def test_criterion_7_experiment_reproduction(tmp_path):
    t0 = time.perf_counter()
    all_records = []
    for family in ("ER", "BA", "WS"):
        for parameter_set in (1, 2):
            cfg = ExperimentConfig(
                family=family, parameter_set=parameter_set, seed=2024,
            )
            all_records.extend(run_experiment(cfg))
    assert len(all_records) == 300
    assert all(r.correct for r in all_records)
    assert all(r.rounds_max == r.finite_diameter + 1 for r in all_records)
    path = tmp_path / "experiments.csv"
    emit_csv(all_records, path)
    rows = list(csv.reader(path.open()))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 301
    assert all(len(row) == len(CSV_COLUMNS) for row in rows)
    assert all(row[-1] == "true" for row in rows[1:])
    elapsed = time.perf_counter() - t0
    print(
        f"ACCEPTANCE 7 PASS: 300/300 records correct across all six configurations, "
        f"CSV well-formed ({elapsed:.0f}s; timings recorded, never asserted)"
    )


def test_criterion_8_schedule_determinism(corpus):
    graphs = [(make.__name__, make()) for make in (pair_chain, complete5, tree9)]
    graphs += corpus[::20]
    for i, (label, g) in enumerate(graphs):
        for mode in Mode:
            result = run(g, mode=mode, trace=True)
            table = trace_table(result)
            text = render_result(result, assemble_partition(g, result))
            for name, order in schedules(i).items():
                ref = reference_run(g, mode=mode, trace=True, order=order)
                assert trace_table(ref) == table, f"{label} in {mode}, {name} order"
                assert render_result(ref, assemble_partition(g, ref)) == text, (
                    f"{label} in {mode}, {name} order"
                )
    print(
        f"ACCEPTANCE 8 PASS: engine traces and results byte-identical to the reference "
        f"engine, itself run in natural, reversed and shuffled update orders, on "
        f"{len(graphs)} graphs"
    )
