"""Shared test helpers: independent brute-force Hamilton oracles (simple
graphs, multigraphs) and a networkx bridge for isomorphism checks."""

from itertools import combinations, permutations, product

import networkx as nx

from cubicham import MultiGraph


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
