import math
import re

import numpy as np
import pytest

from pentapack.theta import (
    FiniteGraph,
    brute_force_alpha,
    complete_graph,
    cycle_graph,
    empty_graph,
    parse_graph,
    petersen_graph,
    theta_prime_bound,
)


def random_graph(rng, n, p=0.4):
    a = rng.random((n, n)) < p
    a = np.triu(a, 1)
    return FiniteGraph(a | a.T)


def test_alpha_examples():
    assert brute_force_alpha(cycle_graph(5)) == 2
    assert brute_force_alpha(complete_graph(7)) == 1
    assert brute_force_alpha(petersen_graph()) == 4


def test_alpha_size_limit():
    with pytest.raises(ValueError):
        brute_force_alpha(empty_graph(31))


def test_theta_complete_graphs():
    for m in (2, 4, 6):
        assert theta_prime_bound(complete_graph(m)) == pytest.approx(1.0, abs=1e-5)


def test_theta_edgeless():
    for m in (3, 7):
        assert theta_prime_bound(empty_graph(m)) == pytest.approx(m, abs=1e-5)


def test_theta_c5_is_sqrt5():
    v = theta_prime_bound(cycle_graph(5))
    assert 2.0 <= v <= math.sqrt(5) + 1e-6
    assert v == pytest.approx(math.sqrt(5), abs=1e-6)


def test_theta_bipartite_and_clique_unions():
    # complete bipartite K_{3,4}: alpha = 4
    edges = [(i, 3 + j) for i in range(3) for j in range(4)]
    g = FiniteGraph.from_edges(7, edges)
    assert theta_prime_bound(g) == pytest.approx(brute_force_alpha(g), abs=1e-5)
    # disjoint union of cliques: alpha = number of cliques
    blocks = [complete_graph(3).adjacency, complete_graph(4).adjacency, complete_graph(2).adjacency]
    n = sum(len(b) for b in blocks)
    a = np.zeros((n, n), dtype=bool)
    off = 0
    for b in blocks:
        a[off: off + len(b), off: off + len(b)] = b
        off += len(b)
    g = FiniteGraph(a)
    assert theta_prime_bound(g) == pytest.approx(3.0, abs=1e-5)


def test_duplicating_doubles_the_bound():
    g = cycle_graph(5)
    n = g.n
    a = np.zeros((2 * n, 2 * n), dtype=bool)
    a[:n, :n] = g.adjacency
    a[n:, n:] = g.adjacency
    double = FiniteGraph(a)
    assert theta_prime_bound(double) == pytest.approx(2 * theta_prime_bound(g), abs=1e-5)


def test_soundness_on_random_graphs():
    rng = np.random.default_rng(70)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        g = random_graph(rng, n, p=float(rng.uniform(0.15, 0.7)))
        assert theta_prime_bound(g) >= brute_force_alpha(g) - 1e-6


def test_graph_validation():
    with pytest.raises(ValueError):
        FiniteGraph(np.array([[True]]))  # loop
    with pytest.raises(ValueError):
        FiniteGraph(np.array([[False, True], [False, False]]))  # asymmetric
    for edge in ((0, -1), (1, 3)):
        with pytest.raises(ValueError, match=re.escape(str(edge))):
            FiniteGraph.from_edges(3, [edge])


def test_parse_dimacs_and_adjacency_list():
    g1 = parse_graph("c a five cycle\np edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n")
    assert brute_force_alpha(g1) == 2
    g2 = parse_graph("5\n0: 1 4\n1: 2\n2: 3\n3: 4\n")
    assert brute_force_alpha(g2) == 2
    with pytest.raises(ValueError):
        parse_graph("")
    for text, line in (
        ("p edge 3 1\ne 0 2\n", "e 0 2"),  # vertex 0 once wrapped round to vertex 3
        ("p edge 3 1\ne 1 4\n", "e 1 4"),
        ("p edge\ne 1 2\n", "p edge"),
        ("3\n0: -1\n", "0: -1"),  # once wrapped round to vertex 2
        ("3\n3: 1\n", "3: 1"),
        ("p edge 3 1\ne 1 x\n", "e 1 x"),  # these once failed without naming the line
        ("p edge 3 1\ne 1 2 3\n", "e 1 2 3"),
        ("p edge 3 1\ne 1\n", "e 1"),
        ("3\n0 1\n", "0 1"),
        ("p edge x 1\n", "p edge x 1"),
        ("x\n", "x"),
    ):
        with pytest.raises(ValueError, match=re.escape(repr(line))):
            parse_graph(text)
