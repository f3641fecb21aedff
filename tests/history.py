"""Per-round states of an engine run, rebuilt through its per-round hook.

The engine keeps no history.  :func:`traced_run` passes
``sccd.engine._run`` an observer that builds each round's
:class:`RoundSnapshot` from the masks, reading each node's peers against
the previous round's sizes of every node, in size masks it keeps itself,
as ``sccd trace`` does, so its states can be compared with
:func:`reference_engine.reference_run`'s.
:func:`render_history` renders such a history as the trace table, from
the states alone, to check :func:`streamed_table`, the text
``sccd.engine.trace_table`` writes, byte for byte.
"""

from __future__ import annotations

import io

from sccd.engine import (
    Mode,
    NodeState,
    RoundSnapshot,
    RunResult,
    _run,
    trace_table,
)
from sccd.graphs import Digraph

History = tuple[RoundSnapshot, ...]


def traced_run(g: Digraph, mode: Mode = Mode.PER_NODE_FREEZE) -> tuple[RunResult, History]:
    """The engine's result and its states after each round, round 0 first.

    A node updated in a round gets a new state with one more round.  A
    stable node is frozen in per-node-freeze mode, and in global-rounds
    mode only in the last round, when every node is stable; a node not
    updated keeps its state.
    """
    per_node = mode is Mode.PER_NODE_FREEZE
    nodes_of = {}
    bits = {}
    # by_size[offset[v] + s]: the nodes of v's component whose previous-round
    # size is s, kept here so that the peers follow the paper's rule as written.
    by_size = []
    sets = {}  # (component, mask) -> its members; a round repeats many
    states = [NodeState(frozenset((v,)), 1, frozenset(), False, 0, False) for v in range(g.n)]
    history = [RoundSnapshot(tuple(states))]

    def members(v, mask):
        key = (nodes_of[v][0], mask)
        if key not in sets:
            sets[key] = frozenset(u for i, u in enumerate(nodes_of[v]) if mask >> i & 1)
        return sets[key]

    def observe(live, grown, size, reach, offset, comps):
        if not nodes_of:
            nodes_of.update((v, nodes) for nodes in comps for v in nodes)
            bits.update((v, 1 << i) for nodes in comps for i, v in enumerate(nodes))
            by_size.extend([0] * (g.n + len(comps)))
            for nodes in comps:
                by_size[offset[nodes[0]] + 1] = (1 << len(nodes)) - 1
        new = {v: (r, s) for v, r, s in grown}
        for v in live if per_node else range(g.n):
            r, s = new.get(v, (reach[v], size[v]))
            stable = v not in new
            states[v] = NodeState(
                reach=members(v, r),
                max_size=s,
                peers=members(v, r & by_size[offset[v] + s]),
                stable=stable,
                rounds=states[v].rounds + 1,
                frozen=stable and (per_node or not grown),
            )
        for v, _, s in grown:
            by_size[offset[v] + size[v]] ^= bits[v]
            by_size[offset[v] + s] |= bits[v]
        history.append(RoundSnapshot(tuple(states)))

    return _run(g, mode, observe), tuple(history)


def streamed_table(g: Digraph, mode: Mode = Mode.PER_NODE_FREEZE, base: int = 0) -> str:
    """The text ``sccd trace`` writes for ``g``."""
    out = io.StringIO()
    trace_table(g, mode, out, base)
    return out.getvalue()


def render_history(history: History, base: int = 0) -> str:
    """The trace table of ``history``: a header, then rows x, y, z and w per round."""
    n = len(history[0].states)
    lines = ["k\tP\t" + "\t".join(f"v{v + base}" for v in range(n))]
    for k, snap in enumerate(history):
        lines.append(f"{k}\tx\t" + "\t".join(_fmt_set(s.reach, base) for s in snap.states))
        lines.append(f"{k}\ty\t" + "\t".join(str(s.max_size) for s in snap.states))
        lines.append(f"{k}\tz\t" + "\t".join(_fmt_set(s.peers, base) for s in snap.states))
        lines.append(f"{k}\tw\t" + "\t".join(str(s.stable) for s in snap.states))
    return "\n".join(lines) + "\n"


def _fmt_set(ids: frozenset[int], base: int) -> str:
    return "{" + ",".join(str(v + base) for v in sorted(ids)) + "}"
