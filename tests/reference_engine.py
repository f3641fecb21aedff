"""Readable frozenset round engine, the reference the bitset engine is checked against.

It drives the public one-update rule :func:`sccd.engine.node_round`
round by round over immutable :class:`RoundSnapshot` objects, exactly as
the paper states the rounds.  ``order`` picks the sequence in which each
round's live nodes are updated; every update reads only the previous
snapshot, so any order must give the same result.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Callable, Sequence

from sccd.engine import Mode, RoundSnapshot, RunResult, init_state, node_round
from sccd.graphs import Digraph

Order = Callable[[list[int]], Sequence[int]]


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
    g: Digraph,
    mode: Mode = Mode.PER_NODE_FREEZE,
    trace: bool = False,
    order: Order = natural,
) -> RunResult:
    """Rounds of :func:`node_round` until every node has stabilized."""
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
    return RunResult(
        mode=mode,
        final=RoundSnapshot(states),
        rounds_per_node=tuple(s.rounds for s in states),
        element_ops=element_ops,
        history=tuple(history) if trace else None,
    )
