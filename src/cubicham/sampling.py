"""Seeded random graph samplers used by the audit commands and tests.

A seed fixes every draw: the golden files, the benchmark's reference
counts and the generated test chains depend on them, and a test pins the
cubic sampler against a frozen copy of its first version (`tests/util.py`).
"""

from __future__ import annotations

import random
from itertools import combinations
from operator import eq

from .multigraph import GraphError, MultiGraph

MAX_TRIES = 10000  # draws before a sampler gives up
EDGE_PROBABILITY = 0.4  # of each pair in `random_odd_degree_graph`'s binomial draw


def random_cubic_graph(n: int, rng: random.Random) -> MultiGraph:
    """Connected simple cubic graph on n vertices via the pairing model.

    Draws a uniform pairing of 3n half-edges (one shuffle of the points,
    paired off in order) and rejects loops, parallel edges and disconnected
    outcomes.
    """
    if n < 4 or n % 2:
        raise GraphError("cubic graphs need an even vertex count >= 4")
    labels = [f"v{i}" for i in range(n)]
    points = [i for i in range(n) for _ in range(3)]
    for _ in range(MAX_TRIES):
        stubs = points.copy()
        rng.shuffle(stubs)
        us, vs = stubs[0::2], stubs[1::2]
        if any(map(eq, us, vs)):
            continue
        if len(set(zip(map(min, us, vs), map(max, us, vs)))) != len(us):
            continue
        G = MultiGraph(labels, [(None, labels[u], labels[v]) for u, v in zip(us, vs)])
        if G.is_connected():
            return G
    raise GraphError("sampler failed to produce a simple connected cubic graph")


def random_cubic_hamiltonian(n: int, rng: random.Random) -> MultiGraph:
    """Hamiltonian connected simple cubic graph: a spanning cycle plus a
    random perfect matching avoiding cycle chords of length 1."""
    if n < 4 or n % 2:
        raise GraphError("cubic graphs need an even vertex count >= 4")
    labels = [f"v{i}" for i in range(n)]
    cycle = [(f"c{i}", labels[i], labels[(i + 1) % n]) for i in range(n)]
    for _ in range(MAX_TRIES):
        perm = list(range(n))
        rng.shuffle(perm)
        matching = [(perm[2 * i], perm[2 * i + 1]) for i in range(n // 2)]
        if any((a - b) % n in (1, n - 1) for a, b in matching):
            continue
        return MultiGraph(labels, cycle + [(None, labels[a], labels[b]) for a, b in matching])
    raise GraphError("sampler failed to produce a Hamiltonian cubic graph")


def random_odd_degree_graph(n: int, rng: random.Random) -> MultiGraph:
    """Connected simple graph with every degree odd (n must be even).

    Samples a binomial random graph, then pairs up the even-degree vertices
    and toggles the edge inside each pair, which flips both parities.  The
    degree sum is even and n is even, so the number of even-degree
    vertices is even: the toggles pair every one of them off and leave
    every degree odd, and only a disconnected draw is rejected.
    """
    if n < 2 or n % 2:
        raise GraphError("all-odd degree sequences need an even vertex count")
    labels = [f"v{i}" for i in range(n)]
    for _ in range(MAX_TRIES):
        present = {
            frozenset((i, j))
            for i, j in combinations(range(n), 2)
            if rng.random() < EDGE_PROBABILITY
        }
        degrees = [0] * n
        for pair in present:
            for i in pair:
                degrees[i] += 1
        evens = [i for i in range(n) if degrees[i] % 2 == 0]
        rng.shuffle(evens)
        for a, b in zip(evens[0::2], evens[1::2]):
            present ^= {frozenset((a, b))}
        G = MultiGraph(labels, [(None, labels[min(pr)], labels[max(pr)]) for pr in present])
        if G.is_connected():
            return G
    raise GraphError("sampler failed to produce a connected all-odd graph")
