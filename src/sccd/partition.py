"""Partition of a graph's nodes into disjoint components."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence


@dataclass(frozen=True)
class SccPartition:
    """Node ``v`` of ``0..n-1`` lies in component ``labels[v]``.

    Components are numbered ``0..num_components-1`` in order of their
    smallest member.  That form is canonical, so two partitions over the
    same universe are equal iff they have equal labels, and no node can
    lie in two components or in none.
    """

    labels: tuple[int, ...]
    num_components: int

    @classmethod
    def from_labels(cls, labels: Sequence[Hashable]) -> SccPartition:
        """The partition whose components are the nodes sharing a label.

        Any hashable labels are accepted; they are renumbered in order of
        first appearance, which is the order of smallest member.
        """
        index: dict = {}
        canonical = tuple([index.setdefault(x, len(index)) for x in labels])
        return cls(labels=canonical, num_components=len(index))

    @property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Each component's members, ascending, in label order."""
        members: list[list[int]] = [[] for _ in range(self.num_components)]
        for v, c in enumerate(self.labels):
            members[c].append(v)
        return tuple(map(tuple, members))
