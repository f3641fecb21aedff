from __future__ import annotations

import tracemalloc
from itertools import chain

import pytest

from sccd import engine
from sccd.engine import (
    MAX_MASK_BITS,
    GraphTooLargeError,
    Mode,
    NodeState,
    RoundSnapshot,
    RunResult,
    assemble_partition,
    finite_diameter_from_run,
    render_result,
    run,
    _run,
)
from sccd.generators import gen_barabasi_albert, gen_erdos_renyi, gen_watts_strogatz
from sccd.graphs import Digraph, parse_edge_list
from sccd.oracles import scc_kosaraju

from conftest import (
    INF,
    complete5,
    counting_rows,
    cycle_with_tail,
    distance_rows,
    pair_chain,
    tree9,
)
from corpus import gen_uniform_digraph
from history import streamed_table, traced_run
from reference_engine import init_state, node_round, reference_run, schedules
from tables import GOLDEN_PAIR_CHAIN


def snapshot_from_golden(row: dict, k: int) -> RoundSnapshot:
    """Build a previous-round snapshot out of hand-worked (1-based) values."""
    states = tuple(
        NodeState(
            reach=frozenset(v - 1 for v in row["x"][i]),
            max_size=row["y"][i],
            peers=frozenset(v - 1 for v in row["z"][i]),
            stable=row["w"][i],
            rounds=k,
            frozen=False,
        )
        for i in range(len(row["y"]))
    )
    return RoundSnapshot(states)


def test_init_state():
    s = init_state(1)
    assert s.reach == frozenset({1})
    assert s.max_size == 1
    assert s.peers == frozenset()
    assert s.stable is False
    assert s.rounds == 0
    assert 0 in init_state(0).reach


def test_node_round_first_step_of_worked_graph():
    g = pair_chain()
    snap = snapshot_from_golden(GOLDEN_PAIR_CHAIN[0], k=0)
    st = node_round(2, g, snap)  # displayed as v3
    assert st.reach == frozenset({1, 2, 3})
    assert st.max_size == 3
    assert st.peers == frozenset()
    assert st.stable is False
    assert st.rounds == 1


def test_node_round_transient_false_positive():
    # From round-2 state, node v6 briefly lists the unrelated v3 as a peer.
    g = pair_chain()
    snap = snapshot_from_golden(GOLDEN_PAIR_CHAIN[2], k=2)
    st = node_round(5, g, snap)
    assert st.reach == frozenset({2, 3, 4, 5})
    assert st.max_size == 4
    assert st.peers == frozenset({2, 4})
    assert st.stable is False


def test_node_round_source_node_stabilizes_immediately():
    g = tree9()
    snap = RoundSnapshot(tuple(init_state(v) for v in range(9)))
    st = node_round(0, g, snap)
    assert st.reach == frozenset({0})
    assert st.max_size == 1
    assert st.peers == frozenset({0})
    assert st.stable is True
    assert st.frozen is True


def test_node_round_rejects_frozen_and_out_of_range():
    g = pair_chain()
    frozen = tuple(
        NodeState(frozenset({v}), 1, frozenset(), True, 1, True) for v in range(6)
    )
    with pytest.raises(ValueError):
        node_round(0, g, RoundSnapshot(frozen))
    with pytest.raises(IndexError):
        node_round(9, g, RoundSnapshot(frozen))


def test_run_per_node_rounds_worked_graphs():
    assert run(pair_chain()).rounds_per_node == (2, 2, 3, 4, 5, 6)
    assert run(complete5()).rounds_per_node == (2, 2, 2, 2, 2)
    assert run(tree9()).rounds_per_node == (1, 2, 2, 3, 3, 3, 3, 4, 4)


def test_run_global_rounds_counts():
    assert run(pair_chain(), mode=Mode.GLOBAL_ROUNDS).rounds_per_node == (6,) * 6
    assert run(complete5(), mode=Mode.GLOBAL_ROUNDS).rounds_per_node == (2,) * 5
    assert run(tree9(), mode=Mode.GLOBAL_ROUNDS).rounds_per_node == (4,) * 9


def k5_and_triangle() -> Digraph:
    """The complete digraph on 0..4 and, disjoint from it, the cycle 5 -> 6 -> 7 -> 5."""
    edges = [(u, v) for u in range(5) for v in range(5) if u != v]
    return Digraph.from_edges(8, edges + [(5, 6), (6, 7), (7, 5)])


def merge_count(g: Digraph, mode: Mode) -> tuple[RunResult, int]:
    """The result of running ``g`` and the in-row merges its rounds made.

    The rows count their iterations.  The weak-component search that
    precedes the rounds iterates them too, as often on every call, so
    one search is run alone first and its count taken off twice.
    """
    rows = counting_rows(g.in_adj)
    counted = Digraph(n=g.n, in_adj=rows, out_adj=g.out_adj)
    engine._weak_components(counted)
    searched = sum(row.iterations for row in rows)
    result = run(counted, mode=mode)
    return result, sum(row.iterations for row in rows) - 2 * searched


def test_global_rounds_merges_only_grown_nodes():
    # On the path 0 -> 1 -> ... -> 59 node v grows in rounds 1..v and
    # settles in round v + 1, its per-node-freeze round count, so only
    # those rounds merge its in-row: re-merging every node in all 60
    # rounds would take 3,600 merges.  Node 59 holds every node once it
    # grows in round 59, so its settling update merges nothing.
    n = 60
    path = Digraph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
    result, merges = merge_count(path, Mode.GLOBAL_ROUNDS)
    assert result.rounds_per_node == (n,) * n
    assert merges == sum(run(path).rounds_per_node) - 1


@pytest.mark.parametrize("mode", list(Mode))
def test_saturated_nodes_skip_their_settling_merge(mode):
    # Round 1 gives every node of K5 all five nodes, so round 2, which
    # settles them, merges no row: 5 merges, not 10.
    result, merges = merge_count(complete5(), mode)
    assert result.rounds_per_node == (2,) * 5
    assert merges == 5


@pytest.mark.parametrize("mode", list(Mode))
def test_graphs_of_several_components_run_every_settling_merge(mode):
    # No reach set can hold every node of a graph of two weak components,
    # so each node merges in every round it runs, settling one included:
    # 2 rounds for each node of K5 and 3 for each node of the cycle.
    g = k5_and_triangle()
    _, merges = merge_count(g, mode)
    assert merges == sum(run(g).rounds_per_node) == 19


@pytest.mark.parametrize(
    "make", [complete5, k5_and_triangle, lambda: gen_barabasi_albert(40, 8, 3)],
    ids=["complete5", "k5_and_triangle", "ba_40_8"],
)
@pytest.mark.parametrize("mode", list(Mode))
def test_skipped_merges_change_no_result(make, mode):
    g = make()
    ref, ref_history = reference_run(g, mode=mode)
    traced, history = traced_run(g, mode=mode)
    assert history == ref_history
    for result in (traced, run(g, mode=mode)):
        assert result.final == ref.final
        assert result.rounds_per_node == ref.rounds_per_node
        assert result.element_ops == ref.element_ops


@pytest.mark.parametrize(
    "make",
    [
        *(lambda seed=seed: gen_watts_strogatz(300, 4, 0.2, seed) for seed in (1, 2, 3)),
        lambda: gen_barabasi_albert(150, 3, 4),
        lambda: gen_erdos_renyi(200, 300, 5),
    ],
    ids=["ws_300_s1", "ws_300_s2", "ws_300_s3", "ba_150_3", "er_200_300"],
)
@pytest.mark.parametrize("mode", list(Mode))
def test_settled_slots_give_the_peers_of_full_slots(make, mode):
    # RunResult.peers derives the peers of each settled node from the final
    # reach masks and round counts; the history and the trace read every
    # node's peers round by round against the previous round's sizes of all
    # nodes, in full size slots of their own.  Under per-node freezing, nodes of
    # these graphs freeze with peer sets that are strict subsets of their
    # component, which the exhaustive check on 1-4 nodes hardly reaches; in
    # global rounds every peer set is its whole component.
    g = make()
    result = run(g, mode=mode)
    _, history = traced_run(g, mode=mode)
    peers = [state.peers for state in result.final.states]
    assert peers == [state.peers for state in history[-1].states]
    z = [row for row in streamed_table(g, mode).splitlines() if row.split("\t")[1] == "z"][-1]
    assert peers == [
        frozenset(map(int, cell[1:-1].split(","))) if cell != "{}" else frozenset()
        for cell in z.split("\t")[2:]
    ]
    label = scc_kosaraju(g).labels
    members: dict = {}
    for v, c in enumerate(label):
        members.setdefault(c, set()).add(v)
    assert all(p <= members[c] for p, c in zip(peers, label))
    strict = sum(p < members[c] for p, c in zip(peers, label))
    assert (strict > 0) == (mode is Mode.PER_NODE_FREEZE)


def test_run_single_node_and_edgeless():
    r = run(Digraph.from_edges(1, []))
    assert r.rounds_per_node == (1,)
    assert finite_diameter_from_run(r) == 0
    r = run(Digraph.from_edges(4, []))
    assert r.rounds_per_node == (1, 1, 1, 1)
    assert finite_diameter_from_run(r) == 0


def test_run_requires_nonempty_graph():
    with pytest.raises(ValueError):
        run(Digraph.from_edges(0, []))


def test_run_history_starts_at_initialization():
    _, history = traced_run(pair_chain())
    assert history[0].states == tuple(init_state(v) for v in range(6))


def test_frozen_states_carried_forward_verbatim():
    _, history = traced_run(pair_chain())
    # v1 (index 0) freezes after round 2; later snapshots repeat its state
    for snap in history[2:]:
        assert snap.states[0] == history[2].states[0]


def test_finite_diameter_worked_graphs():
    assert finite_diameter_from_run(run(pair_chain())) == 5
    assert finite_diameter_from_run(run(complete5())) == 1
    assert finite_diameter_from_run(run(tree9())) == 3


def test_partition_worked_graphs_both_modes():
    for mode in Mode:
        g = pair_chain()
        parts = assemble_partition(run(g, mode=mode))
        assert set(parts.components) == {(0, 1), (2, 3), (4, 5)}
        k5 = complete5()
        assert assemble_partition(run(k5, mode=mode)).num_components == 1
        t = tree9()
        assert assemble_partition(run(t, mode=mode)).num_components == 9


def test_cycle_with_tail_needs_maximal_merge():
    g = cycle_with_tail()
    result = run(g)
    # The early-stabilizing cycle member keeps only itself ...
    assert result.final.states[0].peers == frozenset({0})
    # ... the last one holds the whole cycle, and assembly recovers it.
    assert result.final.states[2].peers == frozenset({0, 1, 2})
    parts = assemble_partition(result)
    assert parts == scc_kosaraju(g)
    assert finite_diameter_from_run(result) == 12


def test_cycle_with_tail_global_mode_peer_sets_are_exact():
    g = cycle_with_tail()
    result = run(g, mode=Mode.GLOBAL_ROUNDS)
    reference = scc_kosaraju(g)
    for v in range(g.n):
        assert result.final.states[v].peers == frozenset(
            reference.components[reference.labels[v]]
        )


def test_assembly_memory_per_node():
    # One edge among 20,000 nodes: every node is a component of its own.
    # Assembly builds no set for a one-node component, and the partition
    # keeps one label per node.
    n = 20_000
    g = parse_edge_list(f"# nodes: {n}\n0 1\n")
    result = run(g)
    tracemalloc.start()
    try:
        partition = assemble_partition(result)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert partition.num_components == n
    assert peak < 256 * n
    assert held < 64 * n


def test_assembly_memory_with_partial_peer_sets():
    # Per-node freezing on a Watts-Strogatz graph leaves many peer sets
    # that are strict subsets of their component.  Assembly groups the
    # reach masks and decodes none; one frozenset per distinct peer mask
    # would take about 700 bytes per node.
    n = 1000
    result = run(gen_watts_strogatz(n, 4, 0.2, 1))
    tracemalloc.start()
    try:
        partition = assemble_partition(result)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    multi = sum(len(c) > 1 for c in partition.components)
    assert len({p for p in result.peers if p & (p - 1)}) > multi
    assert partition == scc_kosaraju(result.graph)
    assert peak < 128 * n


@pytest.mark.parametrize(
    "g", [complete5(), gen_barabasi_albert(40, 3, 1)], ids=["complete5", "ba40"]
)
def test_weak_components_skip_the_last_frontier(g):
    # Breadth-first layers from node 0 over both edge directions.  Once
    # the last layer is found the component holds every node, so the
    # search reads the in- and out-rows of every node but the last layer's.
    layers, seen = [[0]], {0}
    while True:
        nxt = {u for v in layers[-1] for u in chain(g.in_adj[v], g.out_adj[v])} - seen
        if not nxt:
            break
        seen |= nxt
        layers.append(nxt)
    assert len(seen) == g.n and len(layers) > 1
    in_rows, out_rows = counting_rows(g.in_adj), counting_rows(g.out_adj)
    comps = engine._weak_components(Digraph(n=g.n, in_adj=in_rows, out_adj=out_rows))
    assert comps == (tuple(range(g.n)),)
    read = sum(row.iterations for row in in_rows + out_rows)
    assert read == 2 * (g.n - len(layers[-1]))


def test_reach_sets_exact_at_freeze():
    for seed in range(15):
        g = gen_uniform_digraph(20, 0.12, seed=seed)
        rows = distance_rows(g)
        result = run(g)
        for v in range(g.n):
            assert result.final.states[v].reach == {u for u in range(g.n) if rows[u][v] != INF}


def test_round_counts_equal_in_eccentricity_plus_one():
    for seed in range(15):
        g = gen_uniform_digraph(18, 0.15, seed=100 + seed)
        rows = distance_rows(g)
        result = run(g)
        for v in range(g.n):
            assert result.rounds_per_node[v] == max(r[v] for r in rows if r[v] != INF) + 1


def test_last_stabilizing_member_holds_full_component():
    for seed in range(25):
        g = gen_uniform_digraph(16, 0.2, seed=300 + seed)
        rows = distance_rows(g)
        result = run(g)
        reference = scc_kosaraju(g)
        for comp in reference.components:
            ecc = {v: max(r[v] for r in rows if r[v] != INF) for v in comp}
            top = max(ecc.values())
            for v in comp:
                if ecc[v] == top:
                    assert result.final.states[v].peers == frozenset(comp)


def test_determinism_across_modes_and_schedules():
    for seed in (1, 2, 3):
        g = gen_uniform_digraph(30, 0.1, seed=seed)
        parts = set()
        for mode in Mode:
            result, history = traced_run(g, mode=mode)
            parts.add(assemble_partition(result).components)
            for name, order in schedules(seed).items():
                ref, ref_history = reference_run(g, mode=mode, order=order)
                assert ref.rounds_per_node == result.rounds_per_node, (mode, name)
                assert ref.final == result.final, (mode, name)
                assert ref_history == history, (mode, name)
                assert ref.element_ops == result.element_ops, (mode, name)
        assert len(parts) == 1


def test_masks_are_local_to_weak_components():
    # 80,000 nodes in 2-cycles: each mask is at most two bits wide, so the
    # run needs no more than a few bits per node.
    n = 80_000
    g = Digraph.from_edges(n, [(v, v ^ 1) for v in range(n)])
    result = run(g)
    assert result.rounds_per_node == (2,) * n
    assert result.final.states[n - 1].reach == frozenset({n - 2, n - 1})
    assert result.final.states[n - 1].peers == frozenset({n - 2, n - 1})
    assert assemble_partition(result).components == tuple(
        (v, v + 1) for v in range(0, n, 2)
    )


def test_sparse_masks_in_a_wide_component():
    # Each leaf of an out-star reaches only itself and the hub, so its masks
    # are read bit by bit; the isolated node and the 2-cycle are components
    # of their own.
    edges = [(3, v) for v in range(4, 300)] + [(1, 2), (2, 1)]
    g = Digraph.from_edges(300, edges)
    for mode in Mode:
        result, history = traced_run(g, mode=mode)
        ref, ref_history = reference_run(g, mode=mode)
        assert history == ref_history
        assert result.element_ops == ref.element_ops
        assert result.final.states[299].reach == frozenset({3, 299})


def test_run_refuses_components_above_mask_limit():
    # One component of 65,537 nodes could need 65,537**2 bits of masks.
    side = 65_537
    assert side * side > MAX_MASK_BITS >= (side - 1) ** 2
    g = Digraph.from_edges(side, [(v, v + 1) for v in range(side - 1)])
    with pytest.raises(GraphTooLargeError, match="component has 65537 nodes"):
        run(g)


def test_element_ops_counted_and_bounded():
    g = pair_chain()
    result, history = traced_run(g)
    # recount from the history: live nodes read their own and their
    # in-neighbors' reach sets each round
    total = 0
    for r in range(1, len(history)):
        prev = history[r - 1].states
        for v in range(g.n):
            if prev[v].frozen:
                continue
            ops = len(prev[v].reach) + sum(len(prev[j].reach) for j in g.in_adj[v])
            assert ops <= (len(g.in_adj[v]) + 1) * g.n
            total += ops
    assert total == result.element_ops
    assert run(g, mode=Mode.GLOBAL_ROUNDS).element_ops >= result.element_ops


def test_element_ops_is_counted_once_and_only_when_read(monkeypatch):
    g = pair_chain()
    expected = {mode: reference_run(g, mode=mode)[0].element_ops for mode in Mode}
    results = {mode: run(g, mode=mode) for mode in Mode}
    counts = []

    def rounds(g, mode, observe=None):
        counts.append((mode, type(observe)))
        return _run(g, mode, observe)

    monkeypatch.setattr(engine, "_run", rounds)
    for _ in range(2):
        for mode, result in results.items():
            assert result.element_ops == expected[mode]
    # A global-rounds run counted in its rounds; the per-node-freeze result
    # replayed them once, with the counting observer alone, and kept the count.
    assert counts == [(Mode.PER_NODE_FREEZE, engine._ElementOps)]


def test_result_fields_keep_the_graph_out_of_repr_and_comparison():
    g = pair_chain()
    for mode in Mode:
        first, second = run(g, mode=mode), run(pair_chain(), mode=mode)
        assert first.graph is g and second.graph is not g
        assert first.mode is mode
        assert first == second
        assert "graph" not in repr(first) and "Digraph" not in repr(first)
        assert "mode" not in repr(first) and "counted" not in repr(first)
        assert traced_run(g, mode=mode) == traced_run(g, mode=mode)


def test_self_loop_is_harmless():
    g = Digraph.from_edges(2, [(0, 0), (0, 1)])
    result = run(g)
    assert result.rounds_per_node == (1, 2)
    assert finite_diameter_from_run(result) == 1
    parts = assemble_partition(result)
    assert parts == scc_kosaraju(g)
    assert parts.num_components == 2


def test_render_result_layout():
    g = pair_chain()
    result = run(g)
    text = render_result(result, assemble_partition(result), base=1)
    lines = text.splitlines()
    assert lines[0] == "component: 1 2"
    assert lines[3] == "rounds: 2 2 3 4 5 6"
    assert lines[4] == "diameter: 5"
