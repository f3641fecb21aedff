"""Partition of a graph's nodes into disjoint components."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class SccPartition:
    """Disjoint nonempty node sets covering ``0..n-1``.

    ``components`` is canonical (sorted by smallest member), so two
    partitions over the same universe are equal iff they contain the
    same sets.
    """

    n: int
    components: tuple[frozenset[int], ...]

    @classmethod
    def from_components(cls, n: int, components: Iterable[Iterable[int]]) -> SccPartition:
        comps = sorted((frozenset(c) for c in components), key=min)
        seen: set[int] = set()
        for comp in comps:
            if not comp:
                raise ValueError("empty component")
            if seen & comp:
                raise ValueError("components overlap")
            seen |= comp
        if seen != set(range(n)):
            raise ValueError(f"components do not cover 0..{n - 1}")
        return cls(n=n, components=tuple(comps))

    @property
    def num_components(self) -> int:
        return len(self.components)

    def component_containing(self, v: int) -> frozenset[int]:
        """The component holding ``v``; ``KeyError`` if ``v`` is not in ``0..n-1``."""
        for comp in self.components:
            if v in comp:
                return comp
        raise KeyError(v)
