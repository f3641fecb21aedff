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
from itertools import chain, islice
from typing import Iterable, Iterator, TextIO

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


def parse_edge_list(source: str | TextIO, base: int = 0) -> Digraph:
    """Parse whitespace-separated "u v" lines into a :class:`Digraph`.

    ``source`` is the text, or an open text file that is read a chunk at
    a time.  Ids and the optional directive line ``# nodes: N`` are
    ASCII; ids may carry a sign.  Lines may carry ``#`` comments; blank
    lines are skipped; duplicate edges collapse.  ``base`` declares
    whether ids start at 0 or 1 (they are rebased to 0).  The directive
    pins the node count, the only way to keep isolated trailing nodes;
    without it ``n`` is one more than the largest id seen.  It must
    exceed every id on the lines before it.  A node count above
    :data:`MAX_NODES`, declared or implied by an id, is rejected before
    any allocation.

    The text is read in chunks of whole lines, each decoded in bulk when
    it is in the form :func:`serialize_edge_list` writes, or that form
    with a tab for the space, and otherwise by a loop over its lines that
    names any offending line.  A first line that starts with ``#`` is
    read by that loop on its own.  When the first chunk declares the node
    count, each chunk goes to the builder as soon as it is decoded;
    otherwise the chunks are held until the largest id is known, and each
    is freed as the builder reads it.
    """
    if base not in (0, 1):
        raise ValueError(f"base must be 0 or 1, got {base}")
    reader = _Reader(base)
    decoded = map(reader.decode, _line_chunks(source))
    held = deque(islice(decoded, 1))
    if reader.declared is None:
        held.extend(decoded)
    n = reader.top + 1 if reader.declared is None else reader.declared
    drained = (held.popleft() for _ in range(len(held)))
    return Digraph._build(n, chain.from_iterable(map(_pairs, chain(drained, decoded))))


_DROP_DIGITS = str.maketrans("\t", " ", "0123456789")
_TO_COMMAS = str.maketrans(" \t\n", ",,,")
# Characters read at a time; a chunk runs on to the end of its last line.
# The line loop holds one chunk's lines at once, about 0.1 MiB at this size.
_CHUNK = 1 << 14


def _line_chunks(source: str | TextIO) -> Iterator[str]:
    """``source`` in chunks of whole lines, each cut just after a newline."""
    if isinstance(source, str):
        i = 0
        while i < len(source):
            j = source.find("\n", i + _CHUNK - 1) + 1 or len(source)
            yield source[i:j]
            i = j
    else:
        while chunk := source.read(_CHUNK):
            if not chunk.endswith("\n"):
                chunk += source.readline()
            yield chunk


def _clean_ids(chunk: str) -> list[int] | None:
    """The ids of a chunk of lines in :func:`serialize_edge_list`'s form, or ``None``.

    The two ids of a line may be parted by a space or a tab.  With the
    digits deleted and a tab read as a space, each line must read exactly
    " \\n"; one ``json.loads`` then fails on an empty id or a leading
    zero, so a chunk it decodes holds two ids per line.
    """
    if not chunk.endswith("\n") or chunk.translate(_DROP_DIGITS) != " \n" * chunk.count("\n"):
        return None
    try:
        return json.loads("[" + chunk[:-1].translate(_TO_COMMAS) + "]")
    except ValueError:
        return None


def _pairs(ids: list[int]) -> Iterator[tuple[int, int]]:
    """Consecutive ids as pairs; only the pairs' iterator keeps the list."""
    it = iter(ids)
    return zip(it, it)


@dataclass
class _Reader:
    """Decodes chunks of lines in order, carrying what the checks need from earlier chunks.

    ``line_no`` counts the lines read, ``declared`` is the directive's
    node count once read, and ``top`` the largest rebased id so far.
    """

    base: int
    line_no: int = 0
    declared: int | None = None
    top: int = -1

    def decode(self, chunk: str) -> list[int]:
        """The rebased ids of ``chunk``'s edges, in order."""
        if not self.line_no and chunk.startswith("#"):
            end = chunk.find("\n") + 1 or len(chunk)
            head = self.read_lines(chunk[:end])
            return head + self.decode(chunk[end:]) if end < len(chunk) else head
        ids = _clean_ids(chunk)
        # Every id is >= 0, since it is made of digits; text that is not
        # clean counts as past the limit, so the loop reads it.
        top = max(ids) - self.base if ids else MAX_NODES
        limit = MAX_NODES if self.declared is None else self.declared
        if top >= limit or (self.base and min(ids) < 1):
            return self.read_lines(chunk)
        self.line_no += len(ids) // 2
        self.top = max(self.top, top)
        return [v - 1 for v in ids] if self.base else ids

    def read_lines(self, chunk: str) -> list[int]:
        """Read ``chunk`` line by line, checking each line once as it is read.

        This takes what the bulk decode does not (comments, blank lines, runs
        of spaces, CRLF, signs, leading zeros) and every error, naming its line."""
        base, declared, top = self.base, self.declared, self.top
        ids: list[int] = []
        lines = chunk.splitlines()
        for line_no, raw in enumerate(lines, start=self.line_no + 1):
            stripped = raw.strip()
            if stripped.startswith("#"):
                m = _NODES_DIRECTIVE.fullmatch(stripped)
                if m:
                    if declared is not None:
                        raise EdgeListError("duplicate 'nodes:' directive", line_no)
                    declared = int(m.group(1))
                    if declared > MAX_NODES:
                        raise EdgeListError(
                            f"declared node count {declared} exceeds the limit of {MAX_NODES}",
                            line_no,
                        )
                    top = max(top, max(ids, default=-1))
                    if top >= declared:
                        raise EdgeListError(
                            f"declared node count {declared} is too small for "
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
            if declared is not None and (u >= declared or v >= declared):
                raise EdgeListError(
                    f"id {max(u, v) + base} exceeds declared node count {declared}", line_no
                )
            if u >= MAX_NODES or v >= MAX_NODES:
                raise EdgeListError(
                    f"id {max(u, v) + base} implies more than the limit of {MAX_NODES} nodes",
                    line_no,
                )
            ids += u, v
        self.line_no += len(lines)
        self.declared, self.top = declared, max(top, max(ids, default=-1))
        return ids


def serialize_edge_list(g: Digraph) -> str:
    """Canonical edge-list text: one "u v" per line, pair-lexicographic order.

    A ``# nodes: N`` directive comes first, so the round-trip preserves
    isolated nodes.
    """
    edges = (f"{u} {v}\n" for u, heads in enumerate(g.out_adj) for v in heads)
    return f"# nodes: {g.n}\n" + "".join(edges)
