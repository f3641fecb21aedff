"""Directed-graph data model and edge-list text format.

A :class:`Digraph` is immutable after construction: node ids are dense
integers ``0..n-1`` and the edges are stored only as sorted in- and
out-adjacency, because the round engine consumes in-neighbors while the
classical baselines walk out-neighbors.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator

NodeId = int

_NODES_DIRECTIVE = re.compile(r"#[ \t]*nodes[ \t]*:[ \t]*([0-9]+)[ \t]*", re.ASCII)
_ID = re.compile(r"[+-]?[0-9]+", re.ASCII)

# Larger node counts, declared or implied by an id, are refused before
# anything is allocated for them: a graph and an untraced run on it take
# about 0.25 KiB per node (4 GiB at this size), `sccd scc` about 0.40 KiB
# (6.3 GiB), measured as peak RSS on one-edge files of 100,000 and 200,000 nodes.
MAX_NODES = 1 << 24


class EdgeListError(ValueError):
    """Malformed edge-list text; carries the offending 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass(frozen=True)
class Digraph:
    """Directed graph over nodes ``0..n-1`` with set-semantics edges.

    ``in_adj[v]`` / ``out_adj[v]`` are sorted tuples without repeats.
    Instances are safe to share across threads.
    """

    n: int
    in_adj: tuple[tuple[int, ...], ...] = field(repr=False)
    out_adj: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Digraph:
        pairs = [(int(u), int(v)) for u, v in edges]
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        return cls._build(n, pairs)

    @classmethod
    def _build(cls, n: int, pairs: Iterable[tuple[int, int]]) -> Digraph:
        # The one adjacency builder, and the one check of the node count.
        # Every pair must be an int pair in range: from_edges and the
        # parsers check them first, and the generators build them in range
        # for any n >= 0.  Any other caller goes through from_edges.
        if n < 0:
            raise ValueError(f"node count must be >= 0, got {n}")
        # The pairs are read once, so they may be a one-pass stream that no
        # list keeps.  A list of fewer than two heads is already sorted and
        # repeat-free; skipping the set there keeps large sparse graphs
        # cheap.  The out-lists are freed before any in-list exists, and
        # walking out_adj in tail order appends each in-list already sorted.
        outs: list[list[int]] = [[] for _ in range(n)]
        for u, v in pairs:
            outs[u].append(v)
        out_adj = tuple(tuple(sorted(set(a))) if len(a) > 1 else tuple(a) for a in outs)
        del outs
        ins: list[list[int]] = [[] for _ in range(n)]
        for u, heads in enumerate(out_adj):
            for v in heads:
                ins[v].append(u)
        return cls(n=n, in_adj=tuple(map(tuple, ins)), out_adj=out_adj)

    @property
    def m(self) -> int:
        """Number of directed edges."""
        return sum(map(len, self.out_adj))


def max_in_degree(g: Digraph) -> int:
    """Largest in-degree over all nodes; undefined on an empty graph."""
    if g.n < 1:
        raise ValueError("max_in_degree is undefined for an empty graph")
    return max(len(a) for a in g.in_adj)


def parse_edge_list(text: str, base: int = 0) -> Digraph:
    """Parse whitespace-separated "u v" lines into a :class:`Digraph`.

    Ids and the optional directive line ``# nodes: N`` are ASCII; ids may
    carry a sign.  Lines may carry ``#`` comments; blank lines are
    skipped; duplicate edges collapse.  ``base`` declares whether ids
    start at 0 or 1 (they are rebased to 0).  The directive pins the
    node count, the only way to keep isolated trailing nodes; without
    it ``n`` is one more than the largest id seen.  It must exceed every
    id on the lines before it.  A node count above :data:`MAX_NODES`,
    declared or implied by an id, is rejected before any allocation.

    Text in the form :func:`serialize_edge_list` writes (a ``# nodes: N``
    first line, which may be left out, then lines of ASCII digits, one
    space and ASCII digits, each ending in a newline, every id in range)
    is read in bulk, a chunk of whole lines at a time.  With the
    directive each chunk goes to the builder as soon as it is decoded;
    without it the chunks are held until the largest id is known, and
    each is freed as the builder reads it.  Every other text, and every
    error, goes through a loop over the lines that names the offending
    line, from the first line, even when a chunk fails after earlier
    ones reached the builder.
    """
    if base not in (0, 1):
        raise ValueError(f"base must be 0 or 1, got {base}")
    g = _parse_clean(text, base)
    return g if g is not None else _parse_lines(text, base)


_DROP_DIGITS = str.maketrans("", "", "0123456789")
_TO_COMMAS = str.maketrans(" \n", ",,")
# Characters of clean text decoded at a time; a chunk runs on to the end of its last line.
_CHUNK = 1 << 16


class _NotClean(Exception):
    """Raised inside the bulk parse's pair stream to abort the build."""


def _parse_clean(text: str, base: int) -> Digraph | None:
    """The graph of text in :func:`serialize_edge_list`'s form, or ``None``.

    ``None`` means only that the text is not in that form or an id is out
    of range; :func:`_parse_lines` then reads it and reports any error.
    The body is read in chunks of whole lines, each checked before any of
    its pairs reaches the builder, and a chunk that fails aborts the
    build.  Once the digits are deleted, each line must read exactly
    " \\n", so every line holds at most two ids; one ``json.loads`` per
    chunk decodes them and fails on an empty id or a leading zero.
    """
    declared_n: int | None = None
    start = 0
    if text.startswith("#"):
        end = text.find("\n")
        if end < 0:
            end = len(text)
        m = _NODES_DIRECTIVE.fullmatch(text, 0, end)
        if m is None:
            return None
        declared_n = int(m.group(1))
        if declared_n > MAX_NODES:
            return None
        start = end + 1
    if start < len(text) and not text.endswith("\n"):
        return None
    limit = MAX_NODES if declared_n is None else declared_n
    top = base - 1

    def chunks() -> Iterator[list[int]]:
        nonlocal top
        i = start
        while i < len(text):
            j = text.find("\n", i + _CHUNK - 1) + 1 or len(text)
            chunk = text[i:j]
            i = j
            lines = chunk.count("\n")
            if chunk.translate(_DROP_DIGITS) != " \n" * lines:
                raise _NotClean
            try:
                ids = json.loads("[" + chunk[:-1].translate(_TO_COMMAS) + "]")
            except ValueError:
                raise _NotClean from None
            if len(ids) != 2 * lines:
                raise _NotClean
            top = max(top, max(ids))  # every id is >= 0: it is made of digits
            if top - base >= limit or (base and min(ids) < 1):
                raise _NotClean
            yield [v - 1 for v in ids] if base else ids

    try:
        if declared_n is not None:
            return Digraph._build(declared_n, chain.from_iterable(map(_pairs, chunks())))
        # The largest id sets n, so every chunk is decoded first; each
        # chunk's ids are freed once the builder has read them.
        held = deque(chunks())
        drained = (held.popleft() for _ in range(len(held)))
        return Digraph._build(top + 1 - base, chain.from_iterable(map(_pairs, drained)))
    except _NotClean:
        return None


def _pairs(ids: list[int]) -> Iterator[tuple[int, int]]:
    """Consecutive ids as pairs; only the pairs' iterator keeps the list."""
    it = iter(ids)
    return zip(it, it)


def _parse_lines(text: str, base: int) -> Digraph:
    """Read ``text`` line by line, checking each line once as it is read.

    This reads the text :func:`_parse_clean` does not take: comments,
    blank lines, tabs, CRLF, signs or leading zeros, and every error,
    which names the offending line.
    """
    declared_n: int | None = None
    tails: list[int] = []
    heads: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith("#"):
            m = _NODES_DIRECTIVE.fullmatch(stripped)
            if m:
                if declared_n is not None:
                    raise EdgeListError("duplicate 'nodes:' directive", line_no)
                declared_n = int(m.group(1))
                if declared_n > MAX_NODES:
                    raise EdgeListError(
                        f"declared node count {declared_n} exceeds the limit of {MAX_NODES}",
                        line_no,
                    )
                top = max(max(tails, default=-1), max(heads, default=-1))
                if top >= declared_n:
                    raise EdgeListError(
                        f"declared node count {declared_n} is too small for "
                        f"id {top + base} on an earlier line",
                        line_no,
                    )
            continue
        if "#" in stripped:
            stripped = stripped[: stripped.index("#")].strip()
        if not stripped:
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise EdgeListError(f"expected 'u v', got {stripped!r}", line_no)
        if not (_ID.fullmatch(tokens[0]) and _ID.fullmatch(tokens[1])):
            raise EdgeListError(f"non-integer id in {stripped!r}", line_no)
        u, v = int(tokens[0]) - base, int(tokens[1]) - base
        if u < 0 or v < 0:
            raise EdgeListError(f"id below base {base} in {stripped!r}", line_no)
        if declared_n is not None and (u >= declared_n or v >= declared_n):
            raise EdgeListError(
                f"id {max(u, v) + base} exceeds declared node count {declared_n}", line_no
            )
        if u >= MAX_NODES or v >= MAX_NODES:
            raise EdgeListError(
                f"id {max(u, v) + base} implies more than the limit of {MAX_NODES} nodes",
                line_no,
            )
        tails.append(u)
        heads.append(v)
    n = declared_n
    if n is None:
        n = max(max(tails, default=-1), max(heads, default=-1)) + 1
    return Digraph._build(n, zip(tails, heads))


def serialize_edge_list(g: Digraph) -> str:
    """Canonical edge-list text: one "u v" per line, pair-lexicographic order.

    A ``# nodes: N`` directive comes first, so the round-trip preserves
    isolated nodes.
    """
    edges = (f"{u} {v}\n" for u, heads in enumerate(g.out_adj) for v in heads)
    return f"# nodes: {g.n}\n" + "".join(edges)
