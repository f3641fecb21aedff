from __future__ import annotations

import pytest

from sccd import oracles
from sccd.graphs import Digraph
from sccd.oracles import (
    bfs_finite_diameter,
    floyd_warshall_diameter,
    partitions_equal,
    scc_kosaraju,
)
from sccd.partition import SccPartition

from conftest import (
    INF,
    brute_force_sccs,
    complete5,
    condensation_is_acyclic,
    cycle_with_tail,
    distance_rows,
    pair_chain,
    tree9,
)
from corpus import gen_uniform_digraph


def test_kosaraju_worked_graphs():
    parts = scc_kosaraju(pair_chain())
    assert set(parts.components) == {(0, 1), (2, 3), (4, 5)}
    assert scc_kosaraju(complete5()).num_components == 1
    assert scc_kosaraju(tree9()).num_components == 9


def test_kosaraju_cycle_with_tail():
    parts = scc_kosaraju(cycle_with_tail())
    assert (0, 1, 2) in parts.components
    assert parts.num_components == 11


def test_kosaraju_matches_brute_force_on_random_sweep():
    checked = 0
    for n in range(2, 13):
        for p_milli in (50, 150, 300, 600):
            for i in range(23):
                g = gen_uniform_digraph(n, p_milli / 1000, seed=n * 10_000 + p_milli + i)
                assert partitions_equal(scc_kosaraju(g), brute_force_sccs(g))
                checked += 1
    assert checked >= 1000


def test_kosaraju_deep_path_no_recursion_limit():
    n = 100_000
    g = Digraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    assert scc_kosaraju(g).num_components == n


def test_condensation_is_acyclic_on_randoms():
    for seed in range(30):
        g = gen_uniform_digraph(25, 0.15, seed=seed)
        assert condensation_is_acyclic(g, scc_kosaraju(g))


def test_reach_set_worked_examples():
    # The reach set of v, the nodes with a path into v, is column v of the rows.
    for g, v, reach in ((pair_chain(), 4, {0, 1, 2, 3, 4, 5}), (tree9(), 0, {0}),
                        (Digraph.from_edges(3, []), 1, {1})):
        assert {u for u, row in enumerate(distance_rows(g)) if row[v] != INF} == reach


def test_all_pairs_bfs_worked_examples():
    rows = distance_rows(pair_chain())
    assert rows[0][5] == 5
    assert all(rows[v][v] == 0 for v in range(6))
    assert max(d for row in rows for d in row if d != INF) == 5
    tree_rows = distance_rows(tree9())
    assert tree_rows[0][7] == 3
    assert tree_rows[7][0] == INF


# Dense inputs up to the complete digraph; at 70 and 130 nodes the masks
# span several 30-bit int digits.
DENSE_CASES = ((12, (0, 250, 500, 750, 1000)), (70, (30, 200, 600, 1000)),
               (130, (15, 100, 1000)))


def test_bfs_finite_diameter_matches_matrix():
    for seed in range(20):
        g = gen_uniform_digraph(20, 0.1, seed=seed)
        assert bfs_finite_diameter(g) == max(d for row in distance_rows(g) for d in row if d != INF)
    for n, p_millis in DENSE_CASES:
        for p_milli in p_millis:
            for i in range(3):
                g = gen_uniform_digraph(n, p_milli / 1000, seed=n * 1009 + p_milli + i)
                expected = max(d for row in distance_rows(g) for d in row if d != INF)
                assert bfs_finite_diameter(g) == expected, (n, p_milli, i)


def _spy_on_reads(monkeypatch) -> dict[str, int]:
    calls = {"_bits_one_by_one": 0, "_bits_from_digits": 0}
    for name in calls:
        read = getattr(oracles, name)

        def counted(mask, read=read, name=name):
            calls[name] += 1
            return read(mask)

        monkeypatch.setattr(oracles, name, counted)
    return calls


def test_bfs_finite_diameter_pinned_cases(monkeypatch):
    assert bfs_finite_diameter(Digraph.from_edges(1, [])) == 0
    assert bfs_finite_diameter(Digraph.from_edges(50, [])) == 0
    with pytest.raises(ValueError):
        bfs_finite_diameter(Digraph.from_edges(0, []))
    calls = _spy_on_reads(monkeypatch)
    # Every frontier of a path is one node, so the reads are bit by bit,
    # except for the frontiers {1} .. {7}: masks narrower than 8 bits are
    # read from their digits.  Node w is a frontier once for each source
    # below it, 1 + 2 + ... + 299 = 299 * 300 // 2 frontiers in all, 28 of
    # them in {1} .. {7}.  Only the walk from 0 sees every node, so its
    # last frontier, {299}, is not read: one bit-by-bit read fewer.
    path = Digraph.from_edges(300, [(i, i + 1) for i in range(299)] + [(150, 150)])
    assert bfs_finite_diameter(path) == 299
    assert calls == {"_bits_one_by_one": 299 * 300 // 2 - 28 - 1, "_bits_from_digits": 28}
    # From each source, the one frontier holds every other node, so every
    # walk has seen all nodes after one step and reads no frontier.
    calls.update(dict.fromkeys(calls, 0))
    complete = Digraph.from_edges(40, [(u, v) for u in range(40) for v in range(40) if u != v])
    assert bfs_finite_diameter(complete) == 1
    assert calls == {"_bits_one_by_one": 0, "_bits_from_digits": 0}


def test_floyd_warshall_worked_examples():
    assert floyd_warshall_diameter(pair_chain()) == 5
    assert floyd_warshall_diameter(complete5()) == 1
    assert floyd_warshall_diameter(Digraph.from_edges(4, [])) == 0


def test_floyd_warshall_agrees_with_bfs_on_randoms():
    for n, p_milli, seeds in ((12, 100, 40), (25, 60, 20), (40, 40, 10)):
        for i in range(seeds):
            g = gen_uniform_digraph(n, p_milli / 1000, seed=n * 777 + i)
            assert floyd_warshall_diameter(g) == bfs_finite_diameter(g)
    for n, p_millis in DENSE_CASES:
        for p_milli in p_millis:
            g = gen_uniform_digraph(n, p_milli / 1000, seed=n * 331 + p_milli)
            assert floyd_warshall_diameter(g) == bfs_finite_diameter(g), (n, p_milli)


def test_partitions_equal_is_order_insensitive():
    a = SccPartition.from_labels([0, 0, 2])
    b = SccPartition.from_labels([5, 5, 1])
    c = SccPartition.from_labels([0, 1, 1])
    assert partitions_equal(a, b)
    assert not partitions_equal(a, c)


def test_partitions_equal_rejects_universe_mismatch():
    a = SccPartition.from_labels([0, 0])
    b = SccPartition.from_labels([0, 0, 0])
    with pytest.raises(ValueError):
        partitions_equal(a, b)


@pytest.mark.parametrize("make", [pair_chain, complete5, tree9, cycle_with_tail])
def test_component_containing_every_node(make):
    g = make()
    partition = scc_kosaraju(g)
    rows = distance_rows(g)
    for v in range(g.n):
        mutual = {u for u in range(g.n) if rows[u][v] != INF and rows[v][u] != INF}
        comp = frozenset(partition.components[partition.labels[v]])
        assert comp == mutual
        assert tuple(sorted(comp)) in partition.components
