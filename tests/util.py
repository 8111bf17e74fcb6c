"""Shared test helpers: independent brute-force Hamilton oracles (simple
graphs, multigraphs), a networkx bridge for isomorphism checks and a
seeded generator of random cut chains."""

import random
from itertools import combinations, permutations, product

import networkx as nx

from cubicham import (
    ChainPiece,
    MultiGraph,
    OneEndedChain,
    Tail,
    TwoEndedChain,
    random_cubic_graph,
)


def naive_hamilton_cycles(G: MultiGraph) -> list[tuple[int, ...]]:
    """Permutation-based Hamilton cycle enumeration for small simple graphs."""
    assert G.is_simple()
    n = G.n
    if n < 3:
        return []
    eid = {}
    for e in G.edges:
        eid[(e.u, e.v)] = e.id
        eid[(e.v, e.u)] = e.id
    verts = list(G.vertices)
    found = set()
    for perm in permutations(verts[1:]):
        seq = [verts[0], *perm]
        ids = []
        for i in range(n):
            pair = (seq[i], seq[(i + 1) % n])
            if pair not in eid:
                break
            ids.append(eid[pair])
        else:
            found.add(tuple(sorted(ids)))
    return sorted(found)


def naive_multigraph_hamilton_cycles(G: MultiGraph) -> list[tuple[int, ...]]:
    """Permutation-based enumeration for small multigraphs: every cyclic
    vertex order, with each choice among parallel edges; loops never count."""
    between: dict = {}
    for e in G.edges:
        if not e.is_loop():
            between.setdefault((e.u, e.v), []).append(e.id)
            between.setdefault((e.v, e.u), []).append(e.id)
    verts = list(G.vertices)
    if G.n == 2:
        return sorted(combinations(between.get((verts[0], verts[1]), []), 2))
    if G.n < 3:
        return []
    found = set()
    for perm in permutations(verts[1:]):
        seq = [verts[0], *perm, verts[0]]
        steps = [between.get(pair, []) for pair in zip(seq, seq[1:])]
        for ids in product(*steps):
            found.add(tuple(sorted(ids)))
    return sorted(found)


def to_nx(G: MultiGraph) -> nx.MultiGraph:
    g = nx.MultiGraph()
    g.add_nodes_from(G.vertices)
    for e in G.edges:
        g.add_edge(e.u, e.v)
    return g


def isomorphic(G1: MultiGraph, G2: MultiGraph) -> bool:
    return nx.is_isomorphic(to_nx(G1), to_nx(G2))


def random_piece(rng: random.Random, left: int, right: int) -> ChainPiece:
    """A chain piece cut out of a random cubic graph on 6 to 12 vertices.

    Removing an edge frees a stub at each of its ends, so removed edges are
    pairwise disjoint and every stub sits on its own vertex (the segment
    minor stays simple). A piece with an odd number of stubs loses a vertex
    instead and puts a stub on each of its three neighbours.
    """
    while True:
        G = random_cubic_graph(rng.choice((6, 8, 10, 12)), rng)
        vertices = list(G.vertices)
        edges = [(e.u, e.v) for e in G.edges]
        if (left + right) % 2:
            gone = rng.choice(vertices)
            vertices.remove(gone)
            freed = [u if v == gone else v for u, v in edges if gone in (u, v)]
            edges = [(u, v) for u, v in edges if gone not in (u, v)]
        else:
            cut = rng.sample(range(len(edges)), (left + right) // 2)
            freed = [x for i in cut for x in edges[i]]
            if len(set(freed)) < len(freed):
                continue
            edges = [e for i, e in enumerate(edges) if i not in cut]
        rng.shuffle(freed)
        return ChainPiece(
            MultiGraph(vertices, [(None, u, v) for u, v in edges]),
            tuple((f"L{i}", v) for i, v in enumerate(freed[:left])),
            tuple((f"R{i}", v) for i, v in enumerate(freed[left:])),
        )


def _random_matching(rng: random.Random, c: int) -> tuple:
    targets = list(range(c))
    rng.shuffle(targets)
    return tuple((f"R{i}", f"L{j}") for i, j in enumerate(targets))


def _random_tail(rng: random.Random, c: int) -> Tail:
    pre, plen = rng.randint(0, 2), rng.randint(1, 3)
    return Tail(
        tuple(random_piece(rng, c, c) for _ in range(pre)),
        tuple(random_piece(rng, c, c) for _ in range(plen)),
        tuple(_random_matching(rng, c) for _ in range(pre)),
        tuple(_random_matching(rng, c) for _ in range(plen)),
    )


def random_chain(rng: random.Random, one_ended: bool, c: int):
    """A random chain with c-edge interfaces (c = 2 or 3) and, on each
    tail, a pre-period of 0-2 pieces and a period of 1-3 pieces."""
    if one_ended:
        initial = random_piece(rng, 0, c)
        return OneEndedChain(initial, _random_matching(rng, c), _random_tail(rng, c))
    return TwoEndedChain(_random_tail(rng, c), _random_matching(rng, c), _random_tail(rng, c))
