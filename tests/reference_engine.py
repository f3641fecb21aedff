"""Readable frozenset round engine, the reference the bitset engine is checked against.

:func:`node_round` states one update over immutable :class:`NodeState`
snapshots, and :func:`reference_run` drives it round by round, exactly
as the paper states the rounds.  It shares no update code with
:func:`sccd.engine.run`.  ``order`` picks the sequence in which each
round's live nodes are updated; every update reads only the previous
snapshot, so any order must give the same result.  It returns its own
history of snapshots beside a :class:`RunResult`, which holds the final
sets as masks over one component, every node ``0..n-1``, and its own
count as ``counted``; it keeps no graph, so reading its ``element_ops``
never runs the bitset engine.
:func:`reference_assemble` builds the partition from one frozenset per
peer mask; :func:`sccd.engine.assemble_partition`, which builds none, is
checked against it.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Callable, Sequence

from sccd.engine import InternalCorrectnessError, Mode, NodeState, RoundSnapshot, RunResult
from sccd.graphs import Digraph, NodeId
from sccd.partition import SccPartition

Order = Callable[[list[int]], Sequence[int]]


def init_state(v: NodeId) -> NodeState:
    """Round-0 state: the node knows only itself."""
    return NodeState(
        reach=frozenset((v,)),
        max_size=1,
        peers=frozenset(),
        stable=False,
        rounds=0,
        frozen=False,
    )


def node_round(v: NodeId, g: Digraph, snap: RoundSnapshot) -> NodeState:
    """One update of node ``v`` against the previous-round snapshot.

    The peer test consults the previous-round sizes of every node in the
    merged reach set, which is exactly the information a shared snapshot
    provides (a frozen node's entry is its last computed value).
    """
    states = snap.states
    if not 0 <= v < len(states):
        raise IndexError(f"node {v} out of range for n={len(states)}")
    prev = states[v]
    if prev.frozen:
        raise ValueError(f"node {v} is frozen and must not be updated")
    in_nbrs = g.in_adj[v]
    reach = prev.reach.union(*(states[j].reach for j in in_nbrs)) if in_nbrs else prev.reach
    nbr_max = max((len(states[j].reach) for j in in_nbrs), default=0)
    max_size = max(nbr_max, len(reach))
    peers = frozenset(j for j in reach if states[j].max_size == max_size)
    stable = max_size == prev.max_size
    return NodeState(
        reach=reach,
        max_size=max_size,
        peers=peers,
        stable=stable,
        rounds=prev.rounds + 1,
        frozen=stable,
    )


def natural(live: list[int]) -> list[int]:
    return live


def reversed_order(live: list[int]) -> list[int]:
    return live[::-1]


def shuffled(seed: int) -> Order:
    """A seeded shuffle, drawn afresh for every round."""
    rng = random.Random(seed)

    def order(live: list[int]) -> list[int]:
        out = list(live)
        rng.shuffle(out)
        return out

    return order


def schedules(seed: int) -> dict[str, Order]:
    """The update orders the engine is compared under, by name."""
    return {"natural": natural, "reversed": reversed_order, f"shuffled({seed})": shuffled(seed)}


def reference_run(
    g: Digraph, mode: Mode = Mode.PER_NODE_FREEZE, order: Order = natural
) -> tuple[RunResult, tuple[RoundSnapshot, ...]]:
    """Rounds of :func:`node_round` until every node has stabilized, and their snapshots."""
    if g.n < 1:
        raise ValueError("reference_run requires a nonempty graph")
    n = g.n
    states = tuple(init_state(v) for v in range(n))
    history = [RoundSnapshot(states)]
    element_ops = 0
    per_node = mode is Mode.PER_NODE_FREEZE
    while not all(s.frozen if per_node else s.stable for s in states):
        if len(history) > n + 2:
            raise AssertionError(f"no convergence after {len(history) - 1} rounds")
        snap = RoundSnapshot(states)
        live = [v for v in range(n) if not states[v].frozen] if per_node else list(range(n))
        new_states = list(states)
        for v in order(live):
            element_ops += len(states[v].reach) + sum(len(states[j].reach) for j in g.in_adj[v])
            new_states[v] = node_round(v, g, snap)
        if not per_node and not all(s.stable for s in new_states):
            # A stabilized node keeps updating in this mode, so the frozen
            # flag only latches on the terminal round.
            new_states = [replace(s, frozen=False) for s in new_states]
        states = tuple(new_states)
        history.append(RoundSnapshot(states))
    result = RunResult(
        rounds_per_node=tuple(s.rounds for s in states),
        components=(tuple(range(n)),),
        reach=tuple(_mask(s.reach) for s in states),
        peers=tuple(_mask(s.peers) for s in states),
        mode=mode,
        counted=element_ops,
    )
    return result, tuple(history)


def _mask(ids: frozenset[int]) -> int:
    return sum(1 << v for v in ids)


def reference_assemble(result: RunResult) -> SccPartition:
    """The partition from frozensets of the distinct multi-node peer sets.

    Sets are applied smallest first, so each node ends with the label
    of the largest set that holds it; a peer set whose members end with
    more than one label raises :class:`InternalCorrectnessError`.
    """
    n = result.n
    peer_sets = [
        frozenset(v for i, v in enumerate(nodes) if mask >> i & 1)
        for nodes in result.components
        for mask in dict.fromkeys(result.peers[v] for v in nodes)
        if mask & (mask - 1)
    ]
    label = list(range(n))
    for i, p in sorted(enumerate(peer_sets, n), key=lambda ip: len(ip[1])):
        for v in p:
            label[v] = i
    for p in peer_sets:
        if len({label[v] for v in p}) > 1:
            raise InternalCorrectnessError(
                f"peer set {sorted(p)} overlaps more than one chosen set"
            )
    return SccPartition.from_labels(label)
