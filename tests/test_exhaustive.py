"""Exhaustive small inputs: every labelled digraph on up to four nodes.

Both engine modes are checked against Kosaraju, BFS, Floyd-Warshall and the
reference engine's trace (see ``exhaustive.py``).  Self-loops are legal
input (``v v``) that no generator makes, so graphs with them are enumerated
up to three nodes.
"""

from __future__ import annotations

from exhaustive import check_all_digraphs


def test_every_loop_free_digraph_on_up_to_four_nodes():
    counts = [check_all_digraphs(k, against_reference=True) for k in (1, 2, 3, 4)]
    assert counts == [1, 4, 64, 4096]


def test_every_digraph_with_self_loops_on_up_to_three_nodes():
    counts = [check_all_digraphs(k, loops=True, against_reference=True) for k in (1, 2, 3)]
    assert counts == [2, 16, 512]
