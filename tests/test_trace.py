from __future__ import annotations

import io

import pytest

from sccd.engine import GraphTooLargeError, Mode, run, trace_table
from sccd.generators import gen_barabasi_albert, gen_erdos_renyi, gen_watts_strogatz
from sccd.graphs import Digraph

from conftest import complete5, pair_chain, tree9
from history import render_history, streamed_table, traced_run
from memory import traced_peak
from reference_engine import reference_run
from tables import GOLDEN_COMPLETE5, GOLDEN_PAIR_CHAIN, GOLDEN_TREE9, render_golden

CASES = [
    (pair_chain, GOLDEN_PAIR_CHAIN),
    (complete5, GOLDEN_COMPLETE5),
    (tree9, GOLDEN_TREE9),
]


def assert_history_matches(history, golden):
    assert len(history) == len(golden)
    for k, (snap, row) in enumerate(zip(history, golden)):
        for i, st in enumerate(snap.states):
            expected_reach = {v - 1 for v in row["x"][i]}
            expected_peers = {v - 1 for v in row["z"][i]}
            assert set(st.reach) == expected_reach, f"x mismatch at k={k}, node {i}"
            assert st.max_size == row["y"][i], f"y mismatch at k={k}, node {i}"
            assert set(st.peers) == expected_peers, f"z mismatch at k={k}, node {i}"
            assert st.stable == row["w"][i], f"w mismatch at k={k}, node {i}"


@pytest.mark.parametrize("make,golden", CASES)
def test_global_rounds_history_matches_hand_worked_tables(make, golden):
    _, history = traced_run(make(), mode=Mode.GLOBAL_ROUNDS)
    assert_history_matches(history, golden)


@pytest.mark.parametrize("make,golden", CASES)
def test_trace_text_matches_independent_rendering(make, golden):
    g = make()
    assert streamed_table(g, Mode.GLOBAL_ROUNDS, base=1) == render_golden(golden, base=1)
    assert streamed_table(g, Mode.GLOBAL_ROUNDS, base=0) == render_golden(golden, base=0)


def test_trace_text_golden_literal():
    # Byte-frozen copy of the complete-graph table, guarding the format itself.
    expected = (
        "k\tP\tv1\tv2\tv3\tv4\tv5\n"
        "0\tx\t{1}\t{2}\t{3}\t{4}\t{5}\n"
        "0\ty\t1\t1\t1\t1\t1\n"
        "0\tz\t{}\t{}\t{}\t{}\t{}\n"
        "0\tw\tFalse\tFalse\tFalse\tFalse\tFalse\n"
        "1\tx\t{1,2,3,4,5}\t{1,2,3,4,5}\t{1,2,3,4,5}\t{1,2,3,4,5}\t{1,2,3,4,5}\n"
        "1\ty\t5\t5\t5\t5\t5\n"
        "1\tz\t{}\t{}\t{}\t{}\t{}\n"
        "1\tw\tFalse\tFalse\tFalse\tFalse\tFalse\n"
        "2\tx\t{1,2,3,4,5}\t{1,2,3,4,5}\t{1,2,3,4,5}\t{1,2,3,4,5}\t{1,2,3,4,5}\n"
        "2\ty\t5\t5\t5\t5\t5\n"
        "2\tz\t{1,2,3,4,5}\t{1,2,3,4,5}\t{1,2,3,4,5}\t{1,2,3,4,5}\t{1,2,3,4,5}\n"
        "2\tw\tTrue\tTrue\tTrue\tTrue\tTrue\n"
    )
    assert streamed_table(complete5(), Mode.GLOBAL_ROUNDS, base=1) == expected


def test_specific_cells():
    _, history = traced_run(pair_chain(), mode=Mode.GLOBAL_ROUNDS)
    # round 2 peer row (1-based): {1,2} {1,2} {} {3} {} {5}
    peers2 = [set(s.peers) for s in history[2].states]
    assert peers2 == [{0, 1}, {0, 1}, set(), {2}, set(), {4}]
    # the transient false positive at node v6, round 3
    assert set(history[3].states[5].peers) == {2, 4}
    _, tree = traced_run(tree9(), mode=Mode.GLOBAL_ROUNDS)
    assert set(tree[3].states[7].reach) == {0, 1, 3, 7}
    _, k5 = traced_run(complete5(), mode=Mode.GLOBAL_ROUNDS)
    assert [s.max_size for s in k5[1].states] == [5, 5, 5, 5, 5]


def test_per_node_freeze_trace_differs_only_in_frozen_peer_cells():
    # With freezing, a node that stabilized early keeps its last peer set,
    # so the v3 cell stays {3} after round 3 instead of growing to {3,4}.
    _, frozen_run = traced_run(pair_chain())
    assert set(frozen_run[4].states[2].peers) == {2}
    _, global_run = traced_run(pair_chain(), mode=Mode.GLOBAL_ROUNDS)
    assert set(global_run[4].states[2].peers) == {2, 3}
    for k in range(len(frozen_run)):
        for i in range(6):
            a = frozen_run[k].states[i]
            b = global_run[k].states[i]
            assert a.reach == b.reach
            assert a.max_size == b.max_size


@pytest.mark.parametrize("make", [
    lambda: gen_erdos_renyi(60, 90, 1),
    lambda: gen_barabasi_albert(60, 2, 1),
    lambda: gen_watts_strogatz(60, 4, 0.2, 1),
], ids=["er", "ba", "ws"])
@pytest.mark.parametrize("mode", list(Mode))
def test_streamed_table_equals_reference_rendering(make, mode):
    # These graphs run 10-18 rounds with multi-node components, so cells are
    # rendered again as their masks change over many rounds; the reference
    # history is built by node_round, never by the engine.
    g = make()
    _, history = reference_run(g, mode)
    assert len(history) > 10
    for base in (0, 1):
        assert streamed_table(g, mode, base) == render_history(history, base)


@pytest.mark.parametrize("mode", list(Mode))
def test_empty_graph_is_refused_before_anything_is_written(mode):
    # The CLI prints nothing for an empty graph before it gets here; a
    # library caller must not get a header and round 0 before the error.
    out = io.StringIO()
    with pytest.raises(ValueError, match="nonempty graph"):
        trace_table(Digraph.from_edges(0, []), mode, out, 0)
    assert out.getvalue() == ""


class Discard:
    """A text sink that keeps nothing."""

    def write(self, text: str) -> int:
        return len(text)


@pytest.mark.parametrize("k", [10, 60])
def test_global_rounds_trace_memory_does_not_grow_with_rounds(k):
    # 2,000 isolated nodes beside a path of k nodes take k + 1 rounds, each
    # writing a cell for every node.  The written rows are not kept, so the
    # peak stays near 500 bytes per node whatever k is; keeping each round's
    # states instead takes about 2.7 KiB per node for k = 10 and 14 KiB for
    # k = 60.
    g = Digraph.from_edges(2000 + k, [(v, v + 1) for v in range(2000, 2000 + k - 1)])
    _, peak = traced_peak(lambda: trace_table(g, Mode.GLOBAL_ROUNDS, Discard(), 0))
    assert peak < 1024 * g.n


@pytest.mark.parametrize("mode", list(Mode))
def test_trace_limit_counts_every_round_exactly(monkeypatch, mode):
    # A round's length is counted from its masks before it is rendered.  With
    # the limit one short of the end of each round in turn, the trace stops
    # exactly there, over 10+ rounds of cells rendered again.  The labels
    # run to 100 in base 0 and to 101 in base 1, so one and two of them
    # have three digits.
    g = gen_watts_strogatz(101, 4, 0.2, 1)
    for base in (0, 1):
        monkeypatch.undo()
        lines = streamed_table(g, mode, base).splitlines(keepends=True)
        ends = [0] + [len("".join(lines[:i])) for i in range(5, len(lines) + 1, 4)]
        assert len(ends) > 11
        for k in range(len(ends) - 1):
            monkeypatch.setattr("sccd.engine.MAX_TRACE_CHARS", ends[k + 1] - 1)
            out = io.StringIO()
            with pytest.raises(GraphTooLargeError, match=f"in round {k}$"):
                trace_table(g, mode, out, base)
            assert out.getvalue() == "".join(lines)[:ends[k]]
        monkeypatch.setattr("sccd.engine.MAX_TRACE_CHARS", ends[-1])
        assert streamed_table(g, mode, base) == "".join(lines)


@pytest.mark.parametrize("mode", list(Mode))
def test_refused_round_is_never_rendered(monkeypatch, mode):
    # Each leaf of a star whose hub links both ways reaches all 1,500 nodes
    # in round 2, so that round's x row alone would take 9.6 million
    # characters.  Its length is counted from the masks and refused before a
    # cell is rendered: the trace peaks within 512 bytes per node of the
    # untraced run, where rendering the round first took 20 KiB per node.
    n = 1500
    g = Digraph.from_edges(n, [(0, v) for v in range(1, n)] + [(v, 0) for v in range(1, n)])
    _, run_peak = traced_peak(lambda: run(g, mode))
    monkeypatch.setattr("sccd.engine.MAX_TRACE_CHARS", 1 << 20)
    out = io.StringIO()

    def refused():
        with pytest.raises(GraphTooLargeError, match="in round 2$"):
            trace_table(g, mode, out, 0)

    _, peak = traced_peak(refused)
    assert out.getvalue().count("\n") == 1 + 4 * 2
    assert peak < run_peak + 512 * n
