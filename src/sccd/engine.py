"""Synchronous round engine that grows per-node reach sets until they stabilize.

Every node starts knowing only itself.  Each round it merges the reach
sets of its in-neighbors into its own, records the largest set size it
has seen, and marks as peers the nodes whose previous-round size matches
its new size and that already appear in its merged set.  A node's size
stops changing exactly when its reach set is complete, which happens
after (longest finite distance into the node) + 1 rounds; the largest
round count over all nodes is therefore the graph's finite diameter
plus one, and the stabilized peer sets assemble into the strongly
connected components.

Two scheduling variants are provided:

* ``PER_NODE_FREEZE`` -- a node stops updating the moment it stabilizes;
  its last state is carried forward verbatim and stays readable by
  others.  Early-stabilizing members of a component may freeze with a
  strict subset of it, so partition assembly merges by inclusion-maximal
  peer sets.
* ``GLOBAL_ROUNDS`` -- every node keeps updating until all stabilize in
  the same round; each node's final peer set is then individually its
  exact component.

Within a round every update is a pure function of the previous-round
state, so the order in which a round's updates run cannot change the
result.  :func:`run` computes the updates on int bitsets, and its
:class:`RunResult` keeps those masks; :class:`NodeState` views are
built from them only when ``final`` is read or a trace is recorded.

An update in :func:`run` is its merge and one popcount.  A node whose
size repeated has a complete reach set: it records its peers and round
count in that update and, in both modes, runs no more; a global-rounds
result still reports every node as running every round.  In a graph of
one weakly connected component, a node whose reach set holds every node
cannot grow, so its settling update merges nothing and only takes the
popcount of its own set.  The element-operation count is the modeled
count, unchanged by the merges skipped.  Summed once per round over the
previous-round sizes before the updates run, it is made only where it
is read.  A
global-rounds run counts in its rounds, an O(n) sum per round.  A
per-node-freeze run skips the count, which would walk the live nodes'
in-lists a second time, and runs its rounds once more, counting, the
first time its ``element_ops`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain, compress
from operator import mul
from typing import Iterable, Sequence

from .graphs import Digraph, NodeId
from .partition import SccPartition


class InternalCorrectnessError(RuntimeError):
    """An internal invariant was violated; indicates an engine bug."""


class GraphTooLargeError(ValueError):
    """The run would pass :data:`MAX_MASK_BITS` or its trace :data:`MAX_TRACE_ENTRIES`."""


class Mode(Enum):
    PER_NODE_FREEZE = "per-node-freeze"
    GLOBAL_ROUNDS = "global-rounds"


@dataclass(frozen=True)
class NodeState:
    """One node's view after some number of rounds.

    reach     -- ids with a known directed path to this node (always
                 contains the node itself)
    max_size  -- largest reach-set size seen among the node and its
                 in-neighbors
    peers     -- nodes currently believed to share this node's component
    stable    -- max_size did not change in the last update
    rounds    -- number of updates this node has executed
    frozen    -- the node will not be updated again; from then on its
                 state never changes
    """

    reach: frozenset[int]
    max_size: int
    peers: frozenset[int]
    stable: bool
    rounds: int
    frozen: bool


@dataclass(frozen=True)
class RoundSnapshot:
    """All node states at one common round; read-only while updates run."""

    states: tuple[NodeState, ...]


@dataclass(frozen=True)
class RunResult:
    """Final masks, round counts and the optional full history.

    Bit ``i`` of a node's masks is the ``i``-th node of its weakly connected component.
    ``graph`` and ``mode`` are the run's input, kept so that ``element_ops`` can
    replay the rounds; ``counted`` is the count made in the rounds, or None when
    they ran without it.  None of the three takes part in comparison or repr.
    """

    rounds_per_node: tuple[int, ...]
    components: tuple[tuple[NodeId, ...], ...]
    reach: tuple[int, ...]
    peers: tuple[int, ...]
    history: tuple[RoundSnapshot, ...] | None = None
    graph: Digraph | None = field(default=None, compare=False, repr=False)
    mode: Mode = field(default=Mode.PER_NODE_FREEZE, compare=False, repr=False)
    counted: int | None = field(default=None, compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.rounds_per_node)

    @cached_property
    def element_ops(self) -> int:
        """Previous-round sizes read by the updates, summed over the rounds (see :func:`run`).

        It is the modeled count: a settling update that merged nothing,
        because its reach set already held every node, counts the sizes
        of its in-neighbours all the same.  A run that did not count
        replays its rounds, counting, on first read.
        """
        if self.counted is not None:
            return self.counted
        return _run(self.graph, self.mode, False, True).counted

    @cached_property
    def final(self) -> RoundSnapshot:
        """Every node's last state; each is stable and frozen."""
        return _snapshot(
            self.components, self.reach, self.peers, (True,) * self.n, self.rounds_per_node,
            True, {},
        )


# Bit ids are local to a weakly connected component, so a component of c
# nodes needs reach masks of up to c*c bits in all; the components
# together may need at most this many (512 MiB).
MAX_MASK_BITS = 1 << 32

# Entries a trace may keep: 3 per NodeState, one per node per round (~150 B),
# and 1 per member of each new reach set (~60 B with its peer set).  A round
# shares the states of the nodes that did not run, so the count is an upper
# bound.  Worst refusal measured: a 1,000-node cycle at 601 MiB RSS (x86_64,
# Python 3.11).
MAX_TRACE_ENTRIES = 1 << 23


def run(g: Digraph, mode: Mode = Mode.PER_NODE_FREEZE, trace: bool = False) -> RunResult:
    """Execute rounds until every node has stabilized.

    The state lives in flat per-node lists: reach and peer sets are int
    bitsets, merged with ``|`` and sized with ``int.bit_count``.  No path
    crosses between weakly connected components, so bit ``i`` of a mask
    stands for the ``i``-th smallest node of the owner's component, and a
    mask is never wider than that component.  The result keeps the final
    masks; ``trace`` adds one :class:`NodeState` snapshot per round
    (round 0 is the initial state).

    Only the nodes whose reach set grew run in the next round.  A node
    whose size repeats settles, and its update writes its peers, read
    against the previous round's sizes, and its round count.  When the
    graph is one weakly connected component, a node whose reach set
    became every node settles in its next update without a merge: after
    each round's write-back, the nodes that newly reached size n get an
    empty source list in a per-run copy of ``in_adj``, made the first
    time one does.  A graph of more than one component runs every
    settling merge.  In
    global-rounds mode every node's peers are read again after the last
    round, which grew nothing, and every node gets that round's count.
    A trace also records, each round, the grown nodes (every node in
    global-rounds mode) before the write-back.  ``element_ops`` adds,
    per round, the previous-round sizes each update reads: its own and
    its in-neighbours', over the live nodes in per-node-freeze mode, and
    each node's size times one plus its out-degree in global-rounds mode,
    which is that variant's modeled work, not the merges run.  In both
    modes a skipped settling merge is counted as if it ran.  Only a
    global-rounds run counts in its rounds; a per-node-freeze result
    runs them again, counting and untraced, when ``element_ops`` is
    first read.  Raises :class:`GraphTooLargeError` before allocating
    masks that could pass :data:`MAX_MASK_BITS` bits, and before a
    snapshot past :data:`MAX_TRACE_ENTRIES`.
    """
    return _run(g, mode, trace, mode is Mode.GLOBAL_ROUNDS)


def _run(g: Digraph, mode: Mode, trace: bool, count: bool) -> RunResult:
    """The rounds of :func:`run`; ``count`` sums ``element_ops`` into ``counted``."""
    if g.n < 1:
        raise ValueError("run requires a nonempty graph")
    n = g.n
    in_adj = g.in_adj
    per_node = mode is Mode.PER_NODE_FREEZE
    comps = _weak_components(g)
    mask_bits = sum(len(c) * len(c) for c in comps)
    if mask_bits > MAX_MASK_BITS:
        raise GraphTooLargeError(
            f"the reach masks of this graph's components could take {mask_bits} bits, "
            f"more than the limit of {MAX_MASK_BITS}; its largest weakly connected "
            f"component has {max(map(len, comps))} nodes"
        )
    own = [0] * n  # the node's own bit
    # by_size[base[v] + s] is the mask of the nodes in v's component whose
    # previous-round max size is s.
    base = [0] * n
    by_size = [0] * (n + len(comps))
    offset = 0
    for nodes in comps:
        for i, v in enumerate(nodes):
            own[v] = 1 << i
            base[v] = offset
        by_size[offset + 1] = (1 << len(nodes)) - 1
        offset += len(nodes) + 1
    reach = own[:]
    size = [1] * n  # max_size, which always equals the size of the reach set
    get_size = size.__getitem__
    # A global round counts every node as updating, so node j's size is
    # read once for itself and once per out-neighbour.
    weight = None if per_node else [1 + len(heads) for heads in g.out_adj]
    peers = [0] * n
    rounds = [0] * n
    # In a one-component graph by_size[n] is the mask of the nodes whose
    # reach set is every node, so no merge can grow them: each newly
    # saturated node gets an empty source list in a per-run copy of
    # in_adj, and its settling update merges nothing.  Its r and s, and so
    # its peers and round count, are those the merge would give.
    rows = in_adj
    saturated = 0 if len(comps) == 1 else None
    views: dict[tuple[int, int], frozenset[int]] = {}
    if trace:
        history = [_snapshot(comps, reach, peers, [False] * n, rounds, False, views)]
        entries = 4 * n
    else:
        history = None
    element_ops = 0
    cap = n + 2  # a reach set grows every round it is incomplete, so n+2 is unreachable
    round_no = 0
    live = list(range(n))
    while live:
        round_no += 1
        if round_no > cap:
            raise InternalCorrectnessError(
                f"no convergence after {round_no - 1} rounds on {n} nodes"
            )
        # Each update reads its own and its in-neighbours' previous-round sizes.
        if count:
            if per_node:
                element_ops += sum(map(get_size, live)) + sum(
                    map(get_size, chain.from_iterable(map(in_adj.__getitem__, live)))
                )
            else:
                element_ops += sum(map(mul, size, weight))
        # A node whose size repeats settles and records its peers against
        # the previous round's sizes; only the grown ones are written back,
        # after every node has read the previous round.
        grown = []
        for v in live:
            r = reach[v]
            for j in rows[v]:
                r |= reach[j]
            s = r.bit_count()
            if s == size[v]:
                peers[v] = r & by_size[base[v] + s]
                rounds[v] = round_no
            else:
                grown.append((v, r, s))
        if history is not None:
            entries += 3 * n + sum(s for _, _, s in grown)
            if entries > MAX_TRACE_ENTRIES:
                raise GraphTooLargeError(
                    f"the trace of this graph passes the limit of {MAX_TRACE_ENTRIES} "
                    f"entries in round {round_no}"
                )
            # The grown nodes, or every node in global-rounds mode, are
            # recorded against by_size before the write-back.
            if not per_node:
                for v in range(n):
                    peers[v] = reach[v] & by_size[base[v] + size[v]]
                    rounds[v] = round_no
            stable = [True] * n
            for v, r, s in grown:
                peers[v] = r & by_size[base[v] + s]
                rounds[v] = round_no
                stable[v] = False
        for v, r, s in grown:
            b = base[v]
            by_size[b + size[v]] ^= own[v]
            by_size[b + s] |= own[v]
            reach[v] = r
            size[v] = s
        if saturated is not None and by_size[n] != saturated:
            new = by_size[n] ^ saturated
            saturated = by_size[n]
            if rows is in_adj:
                rows = list(in_adj)
            while new:
                v = new.bit_length() - 1
                rows[v] = ()
                new ^= 1 << v
        if history is not None:
            # In global-rounds mode the frozen flag latches only on the last round.
            history.append(_snapshot(
                comps, reach, peers, stable, rounds, per_node or not grown, views,
                history[-1].states,
            ))
        live = [v for v, _, _ in grown]
    if not per_node:
        # Every node counts as executing every round; its last round read
        # the final sizes, because nothing grew in it.
        peers = [r & by_size[b + s] for r, b, s in zip(reach, base, size)]
        rounds = [round_no] * n
    return RunResult(
        rounds_per_node=tuple(rounds),
        components=comps,
        reach=tuple(reach),
        peers=tuple(peers),
        history=tuple(history) if history is not None else None,
        graph=g,
        mode=mode,
        counted=element_ops if count else None,
    )


def _weak_components(g: Digraph) -> tuple[tuple[NodeId, ...], ...]:
    """Weakly connected components, each sorted, in order of smallest node.

    The search from a node stops once its component holds every node
    that no earlier component took, so a one-component graph expands
    every frontier but the last.
    """
    in_adj, out_adj = g.in_adj, g.out_adj
    seen = bytearray(g.n)
    comps = []
    left = g.n  # nodes in no component yet
    for v in range(g.n):
        if seen[v]:
            continue
        comp = {v}
        frontier = [v]
        while frontier and len(comp) < left:
            nxt = set(chain.from_iterable(map(in_adj.__getitem__, frontier)))
            nxt.update(chain.from_iterable(map(out_adj.__getitem__, frontier)))
            nxt -= comp
            comp |= nxt
            frontier = list(nxt)
        nodes = tuple(sorted(comp))
        for u in nodes:
            seen[u] = 1
        comps.append(nodes)
        left -= len(nodes)
    return tuple(comps)


def _snapshot(
    comps: Sequence[Sequence[NodeId]], reach: Sequence[int], peers: Sequence[int],
    stable: Sequence[bool], rounds: Sequence[int], latched: bool, views: dict,
    prev: Sequence[NodeState] = (),
) -> RoundSnapshot:
    """:class:`NodeState` views of per-node masks, one frozenset per distinct mask.

    A stable node is frozen in per-node-freeze mode, and in global-rounds
    mode only once every node is stable (``latched``).  A node's max size
    is the size of its reach set.  A node whose round count is the one it
    has in ``prev``, the previous round's states, did not run, so its
    state there is shared.
    """
    states = list(prev) or [None] * len(reach)
    for nodes in comps:
        for v in nodes:
            if prev and prev[v].rounds == rounds[v]:
                continue
            states[v] = NodeState(
                reach=_members(reach[v], nodes, views),
                max_size=reach[v].bit_count(),
                peers=_members(peers[v], nodes, views),
                stable=stable[v],
                rounds=rounds[v],
                frozen=stable[v] and latched,
            )
    return RoundSnapshot(tuple(states))


_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _members(mask: int, nodes: Sequence[NodeId], views: dict) -> frozenset[int]:
    """The nodes ``nodes[i]`` for the set bits ``i`` of ``mask``, shared through ``views``."""
    key = (nodes[0], mask)
    members = views.get(key)
    if members is None:
        members = views[key] = frozenset(_ids(mask, nodes))
    return members


def _ids(mask: int, nodes: Sequence[NodeId]) -> Iterable[NodeId]:
    """The nodes ``nodes[i]`` for the set bits ``i`` of ``mask``, in no fixed order.

    A mask with few set bits for its width is read bit by bit from the
    top, so the cost follows the set size; a denser one is read from its
    binary digits in one pass.
    """
    if mask.bit_count() * 8 < mask.bit_length():
        ids = []
        while mask:
            i = mask.bit_length() - 1
            ids.append(nodes[i])
            mask ^= 1 << i
        return ids
    bits = format(mask, "b")[::-1].encode().translate(_BIT_VALUES)
    return compress(nodes, bits)


def assemble_partition(result: RunResult) -> SccPartition:
    """Combine the final peer masks into the component partition.

    Each node takes the label of the largest peer set it appears in, or
    keeps a label of its own.  Under per-node freezing a node may have
    stopped with a subset of its component, but the component member
    that stabilized last holds the complete set, so the largest
    candidate is the true component.

    Within each weak component the distinct peer masks with two or more
    bits set are taken largest first.  A mask disjoint from the ones
    chosen so far is chosen: it gets the next label, and only its
    members are decoded.  A correct run leaves every other mask inside
    the chosen set that its lowest bit joined, and that one check fails
    exactly when a peer set is not nested in a chosen set or two chosen
    sets would overlap.  No set is built per peer mask, and a one-node
    component, which has no such mask, costs nothing but its label.
    """
    n = result.n
    peers = result.peers
    # Node v's own label is v; the i-th chosen mask, chosen[i], has label n + i.
    label = list(range(n))
    chosen = []
    for nodes in result.components:
        if len(nodes) < 2:
            continue
        masks = [p for p in dict.fromkeys(peers[v] for v in nodes) if p & (p - 1)]
        masks.sort(key=int.bit_count, reverse=True)
        covered = 0
        for p in masks:
            if not p & covered:
                i = n + len(chosen)
                for v in _ids(p, nodes):
                    label[v] = i
                chosen.append(p)
                covered |= p
                continue
            i = label[nodes[(p & -p).bit_length() - 1]]
            if i < n or p & chosen[i - n] != p:
                raise InternalCorrectnessError(
                    f"peer set {sorted(_ids(p, nodes))} overlaps more than one chosen set"
                )
    return SccPartition.from_labels(label)


def finite_diameter_from_run(result: RunResult) -> int:
    """Longest finite shortest path, read off the round counts.

    A node stabilizes one round after the longest finite distance into
    it, so the maximum round count over all nodes is that distance plus
    one; single nodes and edgeless graphs yield 0.
    """
    return max(result.rounds_per_node) - 1


def trace_table(result: RunResult, base: int = 0) -> str:
    """Render the recorded history as a tab-separated table.

    One block of four rows per round, labeled with the compact
    parameter names x (reach), y (max_size), z (peers) and w (stable);
    one column per node; sets in ascending id order.  ``base`` shifts
    displayed ids for graphs that were read from 1-based input.
    """
    if result.history is None:
        raise ValueError("run was executed without trace recording")
    n = result.n
    header = "k\tP\t" + "\t".join(f"v{v + base}" for v in range(n))
    lines = [header]
    for k, snap in enumerate(result.history):
        lines.append(f"{k}\tx\t" + "\t".join(_fmt_set(s.reach, base) for s in snap.states))
        lines.append(f"{k}\ty\t" + "\t".join(str(s.max_size) for s in snap.states))
        lines.append(f"{k}\tz\t" + "\t".join(_fmt_set(s.peers, base) for s in snap.states))
        lines.append(f"{k}\tw\t" + "\t".join(str(s.stable) for s in snap.states))
    return "\n".join(lines) + "\n"


def _fmt_set(ids: frozenset[int], base: int) -> str:
    return "{" + ",".join(str(v + base) for v in sorted(ids)) + "}"


def render_result(result: RunResult, partition: SccPartition, base: int = 0) -> str:
    """Structured text: components, per-node round counts, diameter."""
    lines = []
    for comp in partition.components:
        lines.append("component: " + " ".join(str(v + base) for v in comp))
    lines.append("rounds: " + " ".join(str(r) for r in result.rounds_per_node))
    lines.append(f"diameter: {finite_diameter_from_run(result)}")
    return "\n".join(lines) + "\n"
