"""A fixed task that measures how fast the host runs this process right now.

On a shared host the same ``sccd`` call can take 25% longer for minutes at
a time, and a memory-heavy call slows more than pure arithmetic does.
Timing this task next to each operation gives the host's current speed,
and an operation's time divided by it stays put while the host drifts.

The task uses only the standard library, with inputs fixed by a constant
seed, so no change to ``sccd`` can change its time.  It does the kinds of
work the program's hot loops do: merging 250-element frozensets along
in-neighbour lists, as the engine merges reach sets, and breadth-first
search over list adjacency, as the oracles do.
"""

from __future__ import annotations

import random
from collections import deque

SEED = 20210521
SETS, SET_SIZE, PREDS = 500, 250, 20
BFS_N, BFS_DEGREE, BFS_SOURCES = 2000, 4, 20


def make_calibration():
    """Build the task's inputs once; return the task as a function."""
    rng = random.Random(SEED)
    sets = [frozenset(rng.sample(range(SETS), SET_SIZE)) for _ in range(SETS)]
    preds = [rng.sample(range(SETS), PREDS) for _ in range(SETS)]
    adj = [rng.sample(range(BFS_N), BFS_DEGREE) for _ in range(BFS_N)]

    def calibrate() -> int:
        total = 0
        for v in range(SETS):
            merged = sets[v]
            for u in preds[v]:
                merged = merged | sets[u]
            total += len(merged)
        for source in range(0, BFS_N, BFS_N // BFS_SOURCES):
            dist = {source: 0}
            queue = deque([source])
            while queue:
                v = queue.popleft()
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        queue.append(w)
            total += max(dist.values())
        return total

    return calibrate
