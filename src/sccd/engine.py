"""Synchronous round engine that grows per-node reach sets until they stabilize.

Every node starts knowing only itself.  Each round it merges the reach
sets of its in-neighbors into its own and records the largest set size
it has seen; in the paper its peers are the nodes whose previous-round
size matches its new size and that already appear in its merged set.  A
node's size stops changing exactly when its reach set is complete, which
happens after (longest finite distance into the node) + 1 rounds; the
largest round count over all nodes is therefore the graph's finite
diameter plus one, and the stabilized peer sets assemble into the
strongly connected components.

:func:`run` computes only the reach sets and round counts; the peers
follow from them.  When ``v`` settles with the complete set ``r`` in
round ``t``, each ``u`` in ``r`` reaches ``v``, so ``reach(u)`` is a
subset of ``r``.  A size of ``|r|`` in round ``t - 1`` then means
``reach(u) = r`` and that ``u`` settled no later than ``t``: the peers
are the members of ``v``'s component with its final reach set and no
more rounds (:attr:`RunResult.peers`).  Two nodes' complete reach sets
are equal exactly when they reach each other, so the components are the
groups of equal final reach sets (:func:`assemble_partition`).

Two scheduling variants are provided:

* ``PER_NODE_FREEZE`` -- a node stops updating the moment it stabilizes;
  its last state is carried forward verbatim and stays readable by
  others.  Early-stabilizing members of a component may freeze with a
  strict subset of it as their peers.
* ``GLOBAL_ROUNDS`` -- every node keeps updating until all stabilize in
  the same round; each node's final peer set is then individually its
  exact component.

Within a round every update is a pure function of the previous-round
state, so the order in which a round's updates run cannot change the
result.  :func:`run` computes the updates on int bitsets, and its
:class:`RunResult` keeps those masks; :class:`NodeState` views are
built from them only when ``final`` is read.

The rounds call one optional observer per round, after the updates and
before their write-back: :class:`_ElementOps` sums the element-operation
count, and :func:`trace_table` writes each round's rows as the round ends.
The trace keeps a size slot for every node, so its peer rows apply the
rule as written, round by round.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from itertools import chain, compress
from operator import itemgetter, mul
from typing import Callable, Iterable, Sequence, TextIO

from .graphs import Digraph, NodeId
from .partition import SccPartition


class InternalCorrectnessError(RuntimeError):
    """An internal invariant was violated; indicates an engine bug."""


class GraphTooLargeError(ValueError):
    """The run would pass :data:`MAX_MASK_BITS`, or its trace :data:`MAX_TRACE_CHARS`."""


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
    """Final reach masks and round counts; the peer masks follow from them.

    Bit ``i`` of a node's masks is the ``i``-th node of its weakly connected component.
    ``graph`` and ``mode`` are the run's input, kept so that ``element_ops`` can
    replay the rounds; ``counted`` is the count made in the rounds, or None when
    they ran without it.  None of the three takes part in comparison or repr.
    """

    rounds_per_node: tuple[int, ...]
    components: tuple[tuple[NodeId, ...], ...]
    reach: tuple[int, ...]
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
        count = _ElementOps(self.graph, self.mode)
        _run(self.graph, self.mode, count)
        return count.total

    @cached_property
    def peers(self) -> tuple[int, ...]:
        """Each node's peer mask: its component's members with its reach mask and no more rounds.

        That is the paper's rule read at the node's last update (see the
        module docstring).  In global rounds every count is equal, so each
        node's peers are every node with its reach mask, its component.
        Members that settled in the same round see each other.
        """
        peers = [0] * self.n
        for nodes in self.components:
            # (reach mask, round count) -> the nodes with both, and then the
            # nodes with that mask and that many rounds or fewer.
            bits: dict[tuple[int, int], int] = {}
            for i, v in enumerate(nodes):
                key = self.reach[v], self.rounds_per_node[v]
                bits[key] = bits.get(key, 0) | 1 << i
            settled: dict[int, int] = {}
            for key in sorted(bits, key=itemgetter(1)):
                bits[key] = settled[key[0]] = settled.get(key[0], 0) | bits[key]
            for v in nodes:
                peers[v] = bits[self.reach[v], self.rounds_per_node[v]]
        return tuple(peers)

    @cached_property
    def final(self) -> RoundSnapshot:
        """Every node's last state, stable and frozen; equal masks share one frozenset."""
        states: list = [None] * self.n
        views: dict = {}
        for nodes in self.components:
            for v in nodes:
                states[v] = NodeState(
                    reach=_members(self.reach[v], nodes, views),
                    max_size=self.reach[v].bit_count(),
                    peers=_members(self.peers[v], nodes, views),
                    stable=True,
                    rounds=self.rounds_per_node[v],
                    frozen=True,
                )
        return RoundSnapshot(tuple(states))


# Bit ids are local to a weakly connected component, so a component of c
# nodes needs reach masks of up to c*c bits in all; the components
# together may need at most this many (512 MiB).
MAX_MASK_BITS = 1 << 32

# Characters a trace may write.  The table grows with nodes times rounds: a
# 300-node cycle's (51 MB) is written, a 1,000-node cycle's (2 GB) refused.
MAX_TRACE_CHARS = 1 << 27


def run(g: Digraph, mode: Mode = Mode.PER_NODE_FREEZE) -> RunResult:
    """Execute rounds until every node has stabilized.

    The state lives in flat per-node lists: reach sets are int bitsets,
    merged with ``|`` and sized with ``int.bit_count``.  No path crosses
    between weakly connected components, so bit ``i`` of a mask stands
    for the ``i``-th smallest node of the owner's component, and a mask
    is never wider than that component.

    Only the nodes whose reach set grew run in the next round.  A node
    whose size repeats has its complete reach set: it settles and gets
    its round count.  In a graph of one weakly connected component, a
    node whose reach set grows to every node gets an empty source list
    and settles without a merge.  In global-rounds mode every node gets
    the count of the last round, which grew nothing, and the rounds also
    count ``element_ops`` (:class:`_ElementOps`).  The peers are read
    from the result (:attr:`RunResult.peers`).  Raises
    :class:`GraphTooLargeError` before allocating masks that could pass
    :data:`MAX_MASK_BITS` bits.
    """
    if mode is Mode.PER_NODE_FREEZE:
        return _run(g, mode)
    count = _ElementOps(g, mode)
    return replace(_run(g, mode, count), counted=count.total)


def _run(g: Digraph, mode: Mode, observe: Callable[..., None] | None = None) -> RunResult:
    """The rounds of :func:`run`, calling ``observe`` once per round.

    ``observe(live, grown, size, reach, comps)`` runs after the round's
    updates and before their write-back: ``live`` are the nodes updated,
    ``grown`` the ``(v, r, s)`` of those whose reach set grew to ``r`` of
    size ``s``, and ``size`` and ``reach`` still hold the previous round.
    Bit ``i`` of ``v``'s masks is its component's ``i``-th node in
    ``comps``.  The observer must not change them.
    """
    if g.n < 1:
        raise ValueError("run requires a nonempty graph")
    n = g.n
    in_adj = g.in_adj
    comps = _weak_components(g)
    mask_bits = sum(len(c) * len(c) for c in comps)
    if mask_bits > MAX_MASK_BITS:
        raise GraphTooLargeError(
            f"the reach masks of this graph's components could take {mask_bits} bits, "
            f"more than the limit of {MAX_MASK_BITS}; its largest weakly connected "
            f"component has {max(map(len, comps))} nodes"
        )
    reach = [0] * n
    for nodes in comps:
        for i, v in enumerate(nodes):
            reach[v] = 1 << i
    size = [1] * n  # max_size, which always equals the size of the reach set
    rounds = [0] * n
    # Only a graph of one weak component has reach sets of n nodes, and no
    # merge can grow them: a node that grows to size n gets an empty source
    # list in a per-run copy of in_adj, and its settling update merges
    # nothing.  Its r and s, and so its round count, are those the merge
    # would give.
    rows = in_adj
    cap = n + 2  # a reach set grows every round it is incomplete, so n+2 is unreachable
    round_no = 0
    live = list(range(n))
    while live:
        round_no += 1
        if round_no > cap:
            raise InternalCorrectnessError(
                f"no convergence after {round_no - 1} rounds on {n} nodes"
            )
        # Only the grown nodes are written back, after every node has read
        # the previous round.
        grown = []
        for v in live:
            r = reach[v]
            for j in rows[v]:
                r |= reach[j]
            s = r.bit_count()
            if s == size[v]:
                rounds[v] = round_no
            else:
                grown.append((v, r, s))
        if observe is not None:
            observe(live, grown, size, reach, comps)
        for v, r, s in grown:
            reach[v] = r
            size[v] = s
            if s == n:
                if rows is in_adj:
                    rows = list(in_adj)
                rows[v] = ()
        live = [v for v, _, _ in grown]
    if mode is Mode.GLOBAL_ROUNDS:
        # Every node counts as executing every round.
        rounds = [round_no] * n
    return RunResult(
        rounds_per_node=tuple(rounds),
        components=comps,
        reach=tuple(reach),
        graph=g,
        mode=mode,
    )


class _ElementOps:
    """Observer of :func:`_run` that sums ``element_ops`` into ``total``.

    Per round it adds the previous-round sizes each update reads: its own
    and its in-neighbours', over the live nodes in per-node-freeze mode,
    and each node's size times one plus its out-degree in global-rounds
    mode, which is that variant's modeled work, not the merges run.  A
    skipped settling merge is counted as if it ran.
    """

    def __init__(self, g: Digraph, mode: Mode) -> None:
        self.in_adj = g.in_adj
        self.weight = None if mode is Mode.PER_NODE_FREEZE else [1 + len(h) for h in g.out_adj]
        self.total = 0

    def __call__(self, live: list, grown: list, size: list, *_: list) -> None:
        if self.weight is None:
            get_size = size.__getitem__
            self.total += sum(map(get_size, live)) + sum(
                map(get_size, chain.from_iterable(map(self.in_adj.__getitem__, live)))
            )
        else:
            self.total += sum(map(mul, size, self.weight))


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
    """Group the nodes by their final reach masks into the component partition.

    Complete reach sets are equal exactly when two nodes reach each
    other, so within each weak component the nodes with one reach mask
    are one strongly connected component, labeled by its smallest
    member.  No mask is decoded, and a one-node component costs nothing
    but its label.
    """
    reach = result.reach
    label = list(range(result.n))
    for nodes in result.components:
        if len(nodes) > 1:
            first: dict[int, NodeId] = {}
            for v in nodes:
                label[v] = first.setdefault(reach[v], v)
    return SccPartition.from_labels(label)


def finite_diameter_from_run(result: RunResult) -> int:
    """Longest finite shortest path, read off the round counts.

    A node stabilizes one round after the longest finite distance into
    it, so the maximum round count over all nodes is that distance plus
    one; single nodes and edgeless graphs yield 0.
    """
    return max(result.rounds_per_node) - 1


def trace_table(g: Digraph, mode: Mode, out: TextIO, base: int) -> None:
    """Write the round-by-round table of ``g``'s run to ``out`` as each round ends.

    One block of four rows per round, labeled x (reach), y (max_size),
    z (peers) and w (stable); one column per node; sets in ascending id
    order, shifted by ``base`` for 1-based input.  A cell is rendered
    again only when it changed: x and y when the node grew, z when its
    peers, read against the previous round's sizes, changed.  A round's
    length is counted from its masks, round 0's from ``g.n``, before any
    cell of it is rendered: :class:`GraphTooLargeError` refuses a round
    that would take the text past :data:`MAX_TRACE_CHARS` characters.
    """
    n = g.n
    per_node = mode is Mode.PER_NODE_FREEZE
    tens = [10**j for j in range(1, len(str(n - 1 + base)))]
    cells = n + sum(min(n, n + base - t) for t in tens)  # the labels' digits
    room = MAX_TRACE_CHARS - (4 + 2 * n + cells)  # less the header
    cells += 5 * n  # the characters in the x, y and z cells
    k = 0

    def admit(w: int) -> None:  # round k, whose w cells take w characters
        nonlocal room
        room -= 4 * (len(str(k)) + 3 + n) + cells + w
        if room < 0:
            raise GraphTooLargeError(
                f"the trace of this graph passes the limit of {MAX_TRACE_CHARS} "
                f"characters in round {k}"
            )

    def length(v: NodeId, mask: int) -> int:  # of cell(v, mask): braces, commas, digits
        s = mask.bit_count()
        cuts = (bisect_left(nodes_of[v], t - base) for t in tens)
        return max(2 * s + 1, 2) + sum((mask >> i).bit_count() for i in cuts)

    admit(5 * n)
    labels = [str(v + base) for v in range(n)]
    nodes_of: list = [()] * n
    own = [0] * n  # the node's own bit
    # by_size[offset[v] + s] is the mask of the nodes in v's component whose
    # previous-round size is s, one slot per size 0..c of a c-node component:
    # the trace reads the peers by the paper's rule.
    offset = [0] * n
    by_size: list[int] = []
    x = ["{" + label + "}" for label in labels]
    y = ["1"] * n
    z = ["{}"] * n
    z_mask = [0] * n
    entered: dict[int, tuple[NodeId, ...]] = {}  # by_size slots a node grew into last round

    def cell(v: NodeId, mask: int) -> str:
        return "{" + ",".join(map(labels.__getitem__, sorted(_ids(mask, nodes_of[v])))) + "}"

    def write(w: list[str], head: str = "") -> None:
        out.write(head + "".join(
            f"{k}\t{name}\t" + "\t".join(row) + "\n"
            for name, row in (("x", x), ("y", y), ("z", z), ("w", w))
        ))

    def observe(live, grown, size, reach, comps) -> None:
        nonlocal k, cells
        if not k:  # bit i of v's masks is nodes_of[v][i]
            for nodes in comps:
                for i, v in enumerate(nodes):
                    nodes_of[v] = nodes
                    own[v] = 1 << i
                    offset[v] = len(by_size)
                by_size.extend([0, (1 << len(nodes)) - 1] + [0] * (len(nodes) - 1))
        k += 1
        w = ["True"] * n
        for v, r, s in grown:
            cells += length(v, r) + len(str(s)) - len(x[v]) - len(y[v])
            w[v] = "False"
        # The grown nodes' peers are read with their new sets, the others' with their own.
        # In global rounds a node that did not grow has its whole reach set.  A member
        # of that set with the same size has the same set and cannot grow, so the
        # node's peers change only when another node grows into its size slot.
        if per_node:
            readers: Iterable[NodeId] = live
        elif k == 1:
            readers = range(n)
        else:
            readers = chain.from_iterable(_ids(by_size[b], nodes) for b, nodes in entered.items())
        kept = ((v, reach[v], size[v]) for v in readers if w[v] == "True")
        changed = []
        for v, r, s in chain(grown, kept):
            p = r & by_size[offset[v] + s]
            if p != z_mask[v]:
                cells += length(v, p) - len(z[v])
                z_mask[v] = p
                changed.append(v)
        for v, _, s in grown:
            b = offset[v]
            by_size[b + size[v]] ^= own[v]
            by_size[b + s] |= own[v]
        if not per_node:
            entered.clear()
            for v, _, s in grown:
                entered[offset[v] + s] = nodes_of[v]
        admit(4 * n + len(grown))
        for v, r, s in grown:
            x[v] = cell(v, r)
            y[v] = str(s)
        for v in changed:
            z[v] = cell(v, z_mask[v])
        write(w)

    write(["False"] * n, "k\tP\t" + "\t".join("v" + label for label in labels) + "\n")
    _run(g, mode, observe)


def render_result(result: RunResult, partition: SccPartition, base: int = 0) -> str:
    """Structured text: components, per-node round counts, diameter."""
    lines = []
    for comp in partition.components:
        lines.append("component: " + " ".join(str(v + base) for v in comp))
    lines.append("rounds: " + " ".join(str(r) for r in result.rounds_per_node))
    lines.append(f"diameter: {finite_diameter_from_run(result)}")
    return "\n".join(lines) + "\n"
