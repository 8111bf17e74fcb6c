import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from cubicham import (
    MultiGraph,
    chain_G,
    chain_H,
    chain_ladder,
    count_by_trace,
    count_through,
    edge_parity_report,
    enumerate_hamilton_cycles,
    first_hamilton_cycle,
    from_json,
    is_hamilton_cycle,
    prefix_counts,
    quotient,
    random_cubic_graph,
    random_cubic_hamiltonian,
    random_odd_degree_graph,
)
from cubicham.hamilton import _least_cycles
from util import memo_count_by_trace, naive_hamilton_cycles, naive_multigraph_hamilton_cycles


def _random_simple_graph(seed: int, n: int) -> MultiGraph:
    rng = random.Random(seed)
    labels = [f"v{i}" for i in range(n)]
    edges = [
        (None, u, v)
        for i, u in enumerate(labels)
        for v in labels[i + 1 :]
        if rng.random() < 0.5
    ]
    return MultiGraph(labels, edges)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 7))
def test_enumerator_matches_naive_oracle(seed, n):
    G = _random_simple_graph(seed, n)
    got = sorted(tuple(sorted(c)) for c in enumerate_hamilton_cycles(G))
    assert got == naive_hamilton_cycles(G)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.sets(st.integers(0, 9), min_size=1, max_size=9))
def test_cycles_cross_every_cut_evenly(seed, side_idx):
    G = random_cubic_hamiltonian(10, random.Random(seed))
    side = [f"v{i}" for i in sorted(side_idx)]
    cut = {e.id for e in G.edges if (e.u in side) != (e.v in side)}
    for cycle in enumerate_hamilton_cycles(G):
        crossings = len(cycle & cut)
        assert crossings % 2 == 0
        assert crossings > 0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_all_odd_graphs_have_even_membership_counts(seed):
    G = random_odd_degree_graph(10, random.Random(seed))
    report = edge_parity_report(G)
    assert report.all_degrees_odd and report.all_even
    if report.total:
        assert report.total >= 3  # Hamiltonian all-odd graphs have >= 3 cycles


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_returned_cycles_are_valid(seed):
    G = random_cubic_hamiltonian(12, random.Random(seed))
    for cycle in enumerate_hamilton_cycles(G):
        assert is_hamilton_cycle(G, cycle)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 8))
def test_json_roundtrip_preserves_structure(seed, n):
    G = _random_simple_graph(seed, n)
    G2 = from_json(G.to_json())
    assert G2.vertices == G.vertices
    assert [(e.label, e.u, e.v) for e in G2.edges] == [
        (e.label, e.u, e.v) for e in G.edges
    ]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(5, 8))
def test_quotient_reduces_vertex_count_by_one(seed, n):
    G = _random_simple_graph(seed, n)
    a, b = G.vertices[0], G.vertices[-1]
    Q = quotient(G, [(a, b)])
    assert Q.n == G.n - 1
    assert Q.m == G.m


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_require_forbid_filtering(seed):
    G = random_cubic_hamiltonian(10, random.Random(seed))
    rng = random.Random(seed + 1)
    req = frozenset(rng.sample(range(G.m), 2))
    forb = frozenset(rng.sample(sorted(set(range(G.m)) - req), 2))
    filtered = enumerate_hamilton_cycles(G, req, forb)
    full = enumerate_hamilton_cycles(G)
    assert filtered == [c for c in full if req <= c and not (forb & c)]


def _random_multigraph(seed: int, n: int) -> MultiGraph:
    rng = random.Random(seed)
    labels = [f"v{i}" for i in range(n)]
    edges = []
    for _ in range(rng.randint(n, 3 * n)):
        u = rng.choice(labels)
        v = u if rng.random() < 0.1 else rng.choice([w for w in labels if w != u] or [u])
        edges.append((None, u, v))
    return MultiGraph(labels, edges)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 7))
def test_streaming_helpers_match_enumeration(seed, n):
    G = _random_multigraph(seed, n)
    rng = random.Random(seed + 1)
    ids = list(range(G.m))
    rng.shuffle(ids)
    req = frozenset(ids[: rng.randint(0, 2)])
    forb = frozenset(ids[2 : 2 + rng.randint(0, 2)])
    full = enumerate_hamilton_cycles(G)
    assert [tuple(sorted(c)) for c in full] == naive_multigraph_hamilton_cycles(G)
    listed = enumerate_hamilton_cycles(G, req, forb)
    assert listed == [c for c in full if req <= c and not forb & c]

    assert count_through(G, req, forb) == len(listed)
    through = enumerate_hamilton_cycles(G, req)
    assert first_hamilton_cycle(G, req) == (through[0] if through else None)
    report = edge_parity_report(G)
    assert report.total == len(full)
    assert report.counts == {i: sum(i in c for c in full) for i in range(G.m)}
    groups = [G.edges_at(v) for v in rng.sample(G.vertices, min(2, n))] + [ids[:3], ids[:1]]
    by_trace = Counter(tuple(c & frozenset(g) for g in groups) for c in full)
    assert count_by_trace(G, groups) == dict(by_trace)
    # one edge alone: `_trace_counts` reads it beside the IN-edge count s[-1]
    alone = Counter((c & {ids[0]},) for c in full)
    assert count_by_trace(G, [ids[:1]]) == dict(alone)
    # the memoized counter, on loops, parallel edges and overlapping groups
    assert memo_count_by_trace(G, groups) == dict(by_trace)


def _assert_least_cycles(G: MultiGraph, req: frozenset) -> None:
    through = [tuple(sorted(c)) for c in enumerate_hamilton_cycles(G, req)]
    for k in (1, 2, 3):
        assert _least_cycles(G, req, k) == through[:k]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 7))
def test_least_cycles_on_random_multigraphs(seed, n):
    G = _random_multigraph(seed, n)
    rng = random.Random(seed + 2)
    _assert_least_cycles(G, frozenset(rng.sample(range(G.m), min(G.m, rng.randint(0, 2)))))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(5, 10))
def test_least_cycles_on_random_cubic_graphs(seed, half):
    rng = random.Random(seed)
    G = random_cubic_graph(2 * half, rng)
    _assert_least_cycles(G, frozenset({rng.randrange(G.m)}))


def test_prefix_counts_monotone_on_builtins():
    for make in (chain_G, chain_H, chain_ladder):
        counts = prefix_counts(make(), 10)
        assert all(a <= b for a, b in zip(counts, counts[1:]))
