from __future__ import annotations

import hashlib

import pytest

from sccd.bench import _generate
from sccd.generators import (
    check_barabasi_albert,
    check_erdos_renyi,
    check_watts_strogatz,
    gen_barabasi_albert,
    gen_erdos_renyi,
    gen_watts_strogatz,
)
from sccd.graphs import MAX_NODES, serialize_edge_list

from conftest import edge_set
from corpus import gen_uniform_digraph


def test_er_exact_edge_count():
    g = gen_erdos_renyi(100, round(100 ** (2 / 3)), seed=5)
    assert g.n == 100
    assert g.m == 22
    assert gen_erdos_renyi(5, 0, seed=0).m == 0
    assert gen_erdos_renyi(500, 500, seed=1).m == 500


def test_er_no_self_loops_and_range():
    g = gen_erdos_renyi(30, 200, seed=3)
    assert all(u != v for u, v in edge_set(g))
    assert all(0 <= u < 30 and 0 <= v < 30 for u, v in edge_set(g))


def test_er_full_capacity_is_complete():
    g = gen_erdos_renyi(5, 20, seed=9)
    assert g.m == 20


def test_er_rejects_overflow():
    with pytest.raises(ValueError):
        gen_erdos_renyi(5, 21, seed=0)
    with pytest.raises(ValueError):
        gen_erdos_renyi(5, -1, seed=0)


def test_ba_minimal_growth():
    g = gen_barabasi_albert(2, 1, seed=0)
    assert g.n == 2
    assert g.m == 1


def test_ba_edge_count_formula():
    # clique(m) plus m attachments per later vertex
    n, m = 100, 20
    g = gen_barabasi_albert(n, m, seed=4)
    assert g.m == m * (m - 1) // 2 + (n - m) * m


def test_ba_rejects_bad_m():
    with pytest.raises(ValueError):
        gen_barabasi_albert(5, 5, seed=0)
    with pytest.raises(ValueError):
        gen_barabasi_albert(5, 0, seed=0)


def test_ws_lattice_orientation_preserves_incidence():
    g = gen_watts_strogatz(10, 4, 0.0, seed=1)
    assert g.m == 10 * 4 // 2
    for v in range(10):
        assert len(g.in_adj[v]) + len(g.out_adj[v]) == 4


def test_ws_pure_ring():
    g = gen_watts_strogatz(10, 2, 0.0, seed=0)
    assert g.m == 10
    undirected = {frozenset(e) for e in edge_set(g)}
    assert undirected == {frozenset({i, (i + 1) % 10}) for i in range(10)}


def test_ws_rewired_keeps_edge_count():
    for p in (0.2, 0.8, 1.0):
        g = gen_watts_strogatz(24, 4, p, seed=7)
        assert g.m == 24 * 4 // 2
        assert all(u != v for u, v in edge_set(g))


def test_ws_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gen_watts_strogatz(10, 3, 0.2, seed=0)  # odd K
    with pytest.raises(ValueError):
        gen_watts_strogatz(4, 4, 0.2, seed=0)  # K >= n
    with pytest.raises(ValueError):
        gen_watts_strogatz(10, 4, 1.5, seed=0)


@pytest.mark.parametrize(
    "check, args",
    [(check_erdos_renyi, (0,)), (check_barabasi_albert, (3,)), (check_watts_strogatz, (4, 0.2))],
)
def test_generator_checks_refuse_node_counts_above_the_limit(check, args):
    check(MAX_NODES, *args)  # the check alone; nothing is generated at the limit
    with pytest.raises(ValueError, match=f"limit of {MAX_NODES} nodes, got {MAX_NODES + 1}"):
        check(MAX_NODES + 1, *args)


@pytest.mark.parametrize(
    "make",
    [
        lambda s: gen_erdos_renyi(40, 80, s),
        lambda s: gen_barabasi_albert(40, 4, s),
        lambda s: gen_watts_strogatz(40, 4, 0.3, s),
        lambda s: gen_uniform_digraph(40, 0.1, s),
    ],
)
def test_generators_deterministic_and_seed_sensitive(make):
    assert edge_set(make(123)) == edge_set(make(123))
    differing = sum(1 for s in range(10) if edge_set(make(s)) != edge_set(make(s + 1000)))
    assert differing == 10


def test_uniform_digraph_density():
    g = gen_uniform_digraph(50, 0.0, seed=0)
    assert g.m == 0
    g = gen_uniform_digraph(50, 1.0, seed=0)
    assert g.m == 50 * 49


# sha256 of serialize_edge_list of one graph per family at the bench's n=500
# parameters, taken while the generators still built through from_edges.
PINNED_GRAPH_DIGESTS = [
    ("ER", 2, 11, 500, "a425e7b1f2788539bde3d5e8eb0ba2914404901c0bd7a3bc45565a58a595ae5d"),
    ("BA", 2, 12, 23725, "f176eca9c27ea1eeca232cfdd98a1bf00b8e9c06ae54b57f3dada59c4a2547db"),
    ("WS", 1, 13, 1000, "c4e01a68e7cdb947140e694eb8376295b360f4cf54c1ec941a22dffe52829893"),
]


@pytest.mark.parametrize("family, parameter_set, seed, m, digest", PINNED_GRAPH_DIGESTS)
def test_bench_graphs_are_pinned(family, parameter_set, seed, m, digest):
    g, _ = _generate(family, parameter_set, 500, seed)
    assert g.m == m
    assert hashlib.sha256(serialize_edge_list(g).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_erdos_renyi(-1, 0, 0),
        lambda: gen_erdos_renyi(-2, 3, 0),
        lambda: gen_watts_strogatz(-1, -2, 0.5, 0),
        lambda: gen_uniform_digraph(-1, 0.5, 0),
    ],
)
def test_negative_node_counts_that_pass_the_checks_are_refused(make):
    with pytest.raises(ValueError, match="node count must be >= 0, got -"):
        make()
