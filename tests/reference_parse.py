"""The whole-text line loop that ``sccd.graphs`` read edge lists with before it read them in chunks.

It splits the whole text into lines and checks each line once, keeping
every id in two lists until the builder reads them.  The parse property
holds the chunked reader to it: the same graph, or the same error
message and line number, on every text.
"""

from __future__ import annotations

from sccd.graphs import _ID, _NODES_DIRECTIVE, MAX_NODES, Digraph, EdgeListError


def parse_lines(text: str, base: int) -> Digraph:
    """Read ``text`` line by line, checking each line once as it is read."""
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
