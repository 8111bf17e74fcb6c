import random

import pytest

from cubicham import (
    GraphError,
    enumerate_hamilton_cycles,
    random_cubic_graph,
    random_cubic_hamiltonian,
    random_odd_degree_graph,
)


def test_random_cubic_graph_shape():
    rng = random.Random(1)
    for n in (4, 8, 12):
        G = random_cubic_graph(n, rng)
        assert G.n == n and G.is_cubic() and G.is_simple() and G.is_connected()


def test_random_cubic_hamiltonian_contains_cycle():
    rng = random.Random(2)
    for n in (6, 10, 14):
        G = random_cubic_hamiltonian(n, rng)
        assert G.is_cubic() and G.is_simple() and G.is_connected()
        # the first n edges are the embedded spanning cycle
        embedded = frozenset(range(n))
        assert embedded in enumerate_hamilton_cycles(G)


def test_random_odd_degree_graph():
    rng = random.Random(3)
    for n in (6, 10, 14):
        G = random_odd_degree_graph(n, rng)
        assert G.is_simple() and G.is_connected()
        assert all(G.degree(v) % 2 == 1 for v in G.vertices)


def test_random_odd_degree_graph_needs_no_parity_recheck():
    # the toggles pair off every even-degree vertex, so the sampler keeps
    # no degree re-count; every draw must still be all-odd
    rng = random.Random(5)
    for draw in range(200):
        G = random_odd_degree_graph(2 * (1 + draw % 8), rng)
        assert all(G.degree(v) % 2 == 1 for v in G.vertices), draw


def test_samplers_reject_odd_sizes():
    rng = random.Random(4)
    with pytest.raises(GraphError):
        random_cubic_graph(5, rng)
    with pytest.raises(GraphError):
        random_cubic_hamiltonian(7, rng)
    with pytest.raises(GraphError):
        random_odd_degree_graph(9, rng)


def test_samplers_deterministic_per_seed():
    g1 = random_cubic_graph(10, random.Random(42))
    g2 = random_cubic_graph(10, random.Random(42))
    assert [(e.u, e.v) for e in g1.edges] == [(e.u, e.v) for e in g2.edges]
