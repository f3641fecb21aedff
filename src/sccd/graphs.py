"""Directed-graph data model and edge-list text format.

A :class:`Digraph` is immutable after construction: node ids are dense
integers ``0..n-1`` and the edges are stored only as sorted in- and
out-adjacency, because the round engine consumes in-neighbors while the
classical baselines walk out-neighbors.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Iterable

NodeId = int

_NODES_DIRECTIVE = re.compile(r"^#\s*nodes\s*:\s*(\d+)\s*$")

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
        if n < 0:
            raise ValueError(f"node count must be >= 0, got {n}")
        pairs = [(int(u), int(v)) for u, v in edges]
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        return cls._build(n, pairs)

    @classmethod
    def _build(cls, n: int, pairs: Iterable[tuple[int, int]]) -> Digraph:
        # The one adjacency builder.  Every pair must be an int pair in
        # range: from_edges and the parsers check them first, and the
        # generators build them in range.  Any other caller goes through
        # from_edges.
        # A list of fewer than two heads is already sorted and repeat-free;
        # skipping the set there keeps large sparse graphs cheap.  Walking
        # out_adj in tail order appends each in-list already sorted.
        outs: list[list[int]] = [[] for _ in range(n)]
        for u, v in pairs:
            outs[u].append(v)
        out_adj = tuple(tuple(sorted(set(a))) if len(a) > 1 else tuple(a) for a in outs)
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

    Lines may carry ``#`` comments; blank lines are skipped; duplicate
    edges collapse.  ``base`` declares whether ids in the text start at
    0 or 1 (they are rebased to 0).  An optional directive line
    ``# nodes: N`` pins the node count, which is the only way to keep
    isolated trailing nodes; without it ``n`` is one more than the
    largest id seen.  A directive must exceed every id on the lines
    before it.  A node count above :data:`MAX_NODES`, declared or
    implied by an id, is rejected before anything is allocated for it.

    Text in the exact form :func:`serialize_edge_list` writes (an
    optional ``# nodes: N`` first line, then lines of ASCII digits, one
    space and ASCII digits, each ending in a newline, every id in range)
    is read in bulk.  Every other text, and every error, goes through a
    loop over the lines that names the offending line.
    """
    if base not in (0, 1):
        raise ValueError(f"base must be 0 or 1, got {base}")
    g = _parse_clean(text, base)
    return g if g is not None else _parse_lines(text, base)


_DROP_DIGITS = str.maketrans("", "", "0123456789")
_TO_COMMAS = str.maketrans(" \n", ",,")


def _parse_clean(text: str, base: int) -> Digraph | None:
    """The graph of text in :func:`serialize_edge_list`'s form, or ``None``.

    ``None`` means only that the text is not in that form or an id is out
    of range; :func:`_parse_lines` then reads it and reports any error.
    Once the digits are deleted, each line must read exactly " \\n", so
    every line holds at most two ids; one ``json.loads`` decodes them all
    and fails on an empty id or a leading zero.
    """
    declared_n: int | None = None
    body = text
    if text.startswith("#"):
        first, _, body = text.partition("\n")
        m = _NODES_DIRECTIVE.match(first)
        # isprintable() rules out the other characters splitlines() breaks at.
        if m is None or not first.isprintable():
            return None
        declared_n = int(m.group(1))
        if declared_n > MAX_NODES:
            return None
    if body and not body.endswith("\n"):
        return None
    lines = body.count("\n")
    if body.translate(_DROP_DIGITS) != " \n" * lines:
        return None
    try:
        ids = json.loads("[" + body[:-1].translate(_TO_COMMAS) + "]")
    except ValueError:
        return None
    if len(ids) != 2 * lines:
        return None
    limit = MAX_NODES if declared_n is None else declared_n
    top = max(ids, default=base - 1) - base  # ids are >= 0: they are made of digits
    if top >= limit or (base and min(ids, default=1) < 1):
        return None
    if base:
        ids = [i - 1 for i in ids]
    n = top + 1 if declared_n is None else declared_n
    it = iter(ids)
    return Digraph._build(n, zip(it, it))


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
            m = _NODES_DIRECTIVE.match(stripped)
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
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListError(f"non-integer id in {stripped!r}", line_no) from None
        u -= base
        v -= base
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


def serialize_edge_list(g: Digraph, base: int = 0, header: bool = True) -> str:
    """Canonical edge-list text: one "u v" per line, pair-lexicographic order.

    With ``header`` a ``# nodes: N`` directive is emitted first so the
    round-trip preserves isolated nodes.
    """
    if base not in (0, 1):
        raise ValueError(f"base must be 0 or 1, got {base}")
    lines: list[str] = []
    if header:
        lines.append(f"# nodes: {g.n}")
    lines.extend(
        f"{u + base} {v + base}" for u, heads in enumerate(g.out_adj) for v in heads
    )
    return "\n".join(lines) + ("\n" if lines else "")
