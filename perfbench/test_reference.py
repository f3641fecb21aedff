"""Hand-checked cases for the benchmark's reference (run with pytest)."""

from __future__ import annotations

from reference import read_edge_list, reference


def test_chain_of_two_cycles():
    # 0<->1 -> 2<->3 -> 4<->5
    ref = reference(6, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4), (4, 5), (5, 4)])
    assert ref.components == ((0, 1), (2, 3), (4, 5))
    assert ref.in_ecc == (1, 1, 2, 3, 4, 5)
    assert ref.diameter == 5
    assert ref.max_in_degree == 2


def test_tail_fed_cycle():
    # 3 -> 4 -> ... -> 12 -> 0, and the cycle 0 -> 1 -> 2 -> 0
    edges = [(0, 1), (1, 2), (2, 0)] + [(i, i + 1) for i in range(3, 12)] + [(12, 0)]
    ref = reference(13, edges)
    assert ref.components == ((0, 1, 2),) + tuple((v,) for v in range(3, 13))
    assert ref.in_ecc == (10, 11, 12, 0) + tuple(range(1, 10))
    assert ref.diameter == 12
    assert ref.max_in_degree == 2


def test_dag_with_isolated_node():
    # diamond 0 -> {1, 2} -> 3 -> 4, node 5 has no edges
    ref = reference(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
    assert ref.components == tuple((v,) for v in range(6))
    assert ref.in_ecc == (0, 1, 1, 2, 3, 0)
    assert ref.diameter == 3
    assert ref.max_in_degree == 2


def test_read_edge_list():
    text = "# nodes: 4\n# a comment\n0 1\n\n1 2\n0 1\n"
    assert read_edge_list(text) == (4, [(0, 1), (1, 2)])
