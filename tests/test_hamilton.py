import random

import pytest

from cubicham import hamilton
from cubicham import (
    GraphError,
    MultiGraph,
    count_by_trace,
    count_through,
    cube,
    cycle_labels,
    edge_parity_report,
    enumerate_hamilton_cycles,
    first_hamilton_cycle,
    is_hamilton_cycle,
    k4,
    petersen,
    random_cubic_graph,
    random_cubic_hamiltonian,
    random_odd_degree_graph,
    second_cycle_lollipop,
    second_cycle_nearly_cubic,
    tutte_quotient,
)
from util import frontier_count_by_trace, naive_hamilton_cycles, naive_multigraph_hamilton_cycles


def test_k4_has_three_cycles():
    cycles = enumerate_hamilton_cycles(k4())
    assert len(cycles) == 3
    for c in cycles:
        assert is_hamilton_cycle(k4(), c)


def test_petersen_not_hamiltonian():
    assert enumerate_hamilton_cycles(petersen()) == []


def test_cube_six_cycles_each_edge_on_four():
    G = cube()
    report = edge_parity_report(G)
    assert report.total == 6
    assert all(c == 4 for c in report.counts.values())


def test_matches_naive_oracle_on_classics():
    for G in (k4(), cube(), petersen()):
        got = sorted(tuple(sorted(c)) for c in enumerate_hamilton_cycles(G))
        assert got == naive_hamilton_cycles(G)


def test_matches_naive_oracle_on_random_graphs():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(4, 7)
        labels = [f"v{i}" for i in range(n)]
        edges = [
            (None, u, v)
            for i, u in enumerate(labels)
            for v in labels[i + 1 :]
            if rng.random() < 0.5
        ]
        G = MultiGraph(labels, edges)
        got = sorted(tuple(sorted(c)) for c in enumerate_hamilton_cycles(G))
        assert got == naive_hamilton_cycles(G)


def test_multigraph_cases():
    two = MultiGraph(["a", "b"], [("p1", "a", "b"), ("p2", "a", "b"), ("p3", "a", "b")])
    assert len(enumerate_hamilton_cycles(two)) == 3  # any two parallels close up
    doubled = MultiGraph(
        ["a", "b", "c"],
        [("ab1", "a", "b"), ("ab2", "a", "b"), ("bc", "b", "c"), ("ca", "c", "a")],
    )
    assert len(enumerate_hamilton_cycles(doubled)) == 2
    looped = MultiGraph(
        ["a", "b", "c"],
        [("ab", "a", "b"), ("bc", "b", "c"), ("ca", "c", "a"), ("loop", "a", "a")],
    )
    cycles = enumerate_hamilton_cycles(looped)
    assert len(cycles) == 1
    assert looped.edge_by_label("loop").id not in cycles[0]
    for degenerate in (
        MultiGraph([], []),
        MultiGraph(["a"], []),
        MultiGraph(["a"], [("loop", "a", "a")]),
        MultiGraph(["a", "b", "c", "d"], [("ab", "a", "b"), ("bc", "b", "c"), ("ca", "c", "a")]),
    ):
        assert enumerate_hamilton_cycles(degenerate) == []
        assert count_through(degenerate) == 0


def test_require_and_forbid():
    Q = tutte_quotient()
    ex, ey, ez = (Q.edge_by_label(lab).id for lab in ("e_x", "e_y", "e_z"))
    assert count_through(Q, {ex, ey}) == 0
    assert count_through(Q, {ey, ez}) == 4
    assert count_through(Q, {ex, ez}) == 2
    assert count_through(Q, forbid={ez}) == 0  # every cycle leaves w twice
    with pytest.raises(GraphError):
        count_through(Q, {ex}, {ex})
    with pytest.raises(GraphError):
        count_through(Q, {999})


def test_deterministic_order():
    Q = tutte_quotient()
    assert enumerate_hamilton_cycles(Q) == enumerate_hamilton_cycles(Q)


def test_is_hamilton_cycle_rejects_bad_sets():
    G = k4()
    full = frozenset(range(G.m))
    assert not is_hamilton_cycle(G, full)  # degree 3 everywhere
    cycles = enumerate_hamilton_cycles(G)
    short = set(next(iter(cycles)))
    short.pop()
    assert not is_hamilton_cycle(G, short)


def test_lollipop_on_k4():
    G = k4()
    ids = {e.label: e.id for e in G.edges}
    C = frozenset({ids["12"], ids["23"], ids["34"], ids["14"]})
    assert is_hamilton_cycle(G, C)
    C2 = second_cycle_lollipop(G, C, ids["12"])
    assert C2 == frozenset({ids["12"], ids["24"], ids["34"], ids["13"]})


def test_lollipop_on_quotient_fragment():
    Q = tutte_quotient()
    ez = Q.edge_by_label("e_z").id
    through = enumerate_hamilton_cycles(Q, {ez})
    assert len(through) == 6
    for C in through:
        C2 = second_cycle_lollipop(Q, C, ez)
        assert C2 != C and ez in C2 and is_hamilton_cycle(Q, C2)


def test_lollipop_on_cube_everywhere():
    G = cube()
    for C in enumerate_hamilton_cycles(G):
        for e in C:
            C2 = second_cycle_lollipop(G, C, e)
            assert C2 != C and e in C2 and is_hamilton_cycle(G, C2)


def test_lollipop_pairs_cycles_through_edge():
    # sampled instances: the result is always one of the enumerated cycles
    rng = random.Random(11)
    for _ in range(10):
        G = random_cubic_hamiltonian(10, rng)
        cycles = enumerate_hamilton_cycles(G)
        C = cycles[0]
        e = min(C)
        C2 = second_cycle_lollipop(G, C, e)
        assert C2 in cycles and C2 != C


def test_second_cycle_nearly_cubic():
    G = MultiGraph(
        ["o", "m", "u", "l", "d"],
        [
            ("e1", "o", "u"),
            ("e2", "o", "l"),
            ("om", "o", "m"),
            ("f1", "m", "u"),
            ("f2", "m", "l"),
            ("ru", "u", "d"),
            ("rl", "l", "d"),
        ],
    )
    a, b = second_cycle_nearly_cubic(G)
    assert a != b
    assert is_hamilton_cycle(G, a) and is_hamilton_cycle(G, b)
    with pytest.raises(GraphError):
        second_cycle_nearly_cubic(k4())


def _subdivided(G: MultiGraph, edge_id: int) -> MultiGraph:
    """G with edge `edge_id` replaced by a path through a new vertex."""
    e = G.edges[edge_id]
    edges = [(None, f.u, f.v) for f in G.edges if f.id != edge_id]
    return MultiGraph(list(G.vertices) + ["mid"], edges + [(None, e.u, "mid"), (None, "mid", e.v)])


def test_second_cycle_nearly_cubic_is_the_two_least_cycles():
    rng = random.Random(5)
    for n in (8, 10, 12, 14):
        G = random_cubic_hamiltonian(n, rng)
        H = _subdivided(G, min(enumerate_hamilton_cycles(G)[0]))
        assert H.is_nearly_cubic()
        assert list(second_cycle_nearly_cubic(H)) == enumerate_hamilton_cycles(H)[:2]


def test_first_hamilton_cycle_none_without_a_cycle_through_the_edge():
    square = MultiGraph(
        ["a", "b", "c", "d"],
        [("ab", "a", "b"), ("bc", "b", "c"), ("cd", "c", "d"), ("da", "d", "a"), ("ac", "a", "c")],
    )
    assert first_hamilton_cycle(square) == enumerate_hamilton_cycles(square)[0]
    assert first_hamilton_cycle(square, {square.edge_by_label("ac").id}) is None
    P = petersen()
    assert all(first_hamilton_cycle(P, {e.id}) is None for e in P.edges)


def test_least_cycles_visit_at_most_k_cycles(monkeypatch):
    visits = []
    search = hamilton._search

    def counting(G, require, forbid, visit, **kwargs):
        def counted(s):
            visits.append(1)
            return visit(s)

        return search(G, require, forbid, counted, **kwargs)

    monkeypatch.setattr(hamilton, "_search", counting)
    G = tutte_quotient()
    assert len(enumerate_hamilton_cycles(G)) > 3
    for k in (1, 2, 3):
        visits.clear()
        assert len(hamilton._least_cycles(G, (), k)) == k
        assert len(visits) == k


def test_defect_message_names_graph_and_counts(monkeypatch):
    G = _subdivided(k4(), 0)
    only = hamilton._least_cycles(G, (), 1)
    monkeypatch.setattr(hamilton, "_least_cycles", lambda G, require, k: only)
    with pytest.raises(RuntimeError) as exc:
        second_cycle_nearly_cubic(G)
    message = str(exc.value)
    assert "n=5, m=7" in message and "1 Hamilton cycle" in message and "at least 2" in message
    assert " ".join(cycle_labels(G, only[0])) in message


def test_parity_report_on_quotient_fragment():
    Q = tutte_quotient()
    report = edge_parity_report(Q)
    by_label = {Q.edges[i].label: c for i, c in report.counts.items()}
    assert by_label["e_x"] == 2 and by_label["e_y"] == 4 and by_label["e_z"] == 6
    assert report.all_degrees_odd and report.all_even
    assert sum(report.counts.values()) == Q.n * report.total
    assert report.to_csv(Q).splitlines()[0] == "edge,count"


def test_cycle_labels_sorted():
    G = k4()
    C = enumerate_hamilton_cycles(G)[0]
    labels = cycle_labels(G, C)
    assert labels == sorted(labels) and len(labels) == 4


# Mid-size graphs: long chains of forced moves, and on the all-odd graphs
# vertices of degree 5 and 7, which the n <= 7 property tests barely reach.
MID_CUBIC = [(12 + 2 * (seed % 5), seed) for seed in range(10)]
MID_ODD = [(n, seed) for n in (8, 10, 12) for seed in range(10)]


def _sorted_cycles(G, require=()):
    return [tuple(sorted(c)) for c in enumerate_hamilton_cycles(G, require)]


@pytest.mark.parametrize("kind, n, seed", [("cubic", *c) for c in MID_CUBIC] + [("odd", *c) for c in MID_ODD])
def test_count_by_trace_matches_frontier_oracle_on_mid_size_graphs(kind, n, seed):
    sample = random_cubic_graph if kind == "cubic" else random_odd_degree_graph
    G = sample(n, random.Random(seed))
    anchors = random.Random(seed).sample(G.vertices, 2)
    expected = frontier_count_by_trace(G, anchors)
    assert count_by_trace(G, [G.edges_at(v) for v in anchors]) == expected
    assert count_through(G) == sum(expected.values())


@pytest.mark.parametrize("n, seed", MID_ODD)
def test_least_cycles_match_sorted_enumeration_on_all_odd_graphs(n, seed):
    G = random_odd_degree_graph(n, random.Random(seed))
    v = G.vertices[seed % n]
    requires = [(), G.edges_at(v)[:1], G.edges_at(v)[:2]]
    for require in requires:
        cycles = _sorted_cycles(G, require)
        for k in (1, 2, 3):
            assert hamilton._least_cycles(G, require, k) == cycles[:k]


def _closing_edge_cases():
    """Two multigraphs with two parallel a-b edges, each with the path
    whose join is checked.  In the first, joining a and b through x (a-x
    and x-b IN) leaves them path ends with 2 of 5 edges IN and both a-b
    edges undecided: both must go OUT.  In the second, the path a-x-y-b
    joins them with 3 of 4 edges IN, so each a-b edge closes a cycle."""
    early = MultiGraph(
        ["a", "x", "b", "y", "z"],
        [
            ("ax", "a", "x"), ("xb", "x", "b"), ("ab1", "a", "b"), ("ab2", "a", "b"),
            ("bz", "b", "z"), ("zy", "z", "y"), ("ya", "y", "a"), ("by", "b", "y"),
            ("za", "z", "a"), ("xy", "x", "y"),
        ],
    )
    last = MultiGraph(
        ["a", "x", "y", "b"],
        [
            ("ax", "a", "x"), ("xy", "x", "y"), ("yb", "y", "b"), ("ab1", "a", "b"),
            ("ab2", "a", "b"), ("ay", "a", "y"), ("xb", "x", "b"),
        ],
    )
    return [(early, ("ax", "xb")), (last, ("ax", "xy", "yb"))]


@pytest.mark.parametrize("case", [0, 1], ids=["join-before-last-edge", "join-at-last-edge"])
def test_closing_edge_rule_on_parallel_edges(case):
    G, path = _closing_edge_cases()[case]
    path = tuple(G.edge_by_label(lab).id for lab in path)
    ab = {G.edge_by_label(lab).id for lab in ("ab1", "ab2")}
    naive = naive_multigraph_hamilton_cycles(G)
    for require in ((), path):
        expected = [c for c in naive if set(require) <= set(c)]
        assert _sorted_cycles(G, require) == expected
        assert count_through(G, require) == len(expected)
        for k in (1, 2, 3):
            assert hamilton._least_cycles(G, require, k) == expected[:k]
    ab_used = [set(c) & ab for c in naive if set(path) <= set(c)]
    if case == 0:
        assert ab_used and not any(ab_used)  # both a-b edges OUT
    else:
        assert sorted(map(sorted, ab_used)) == [[i] for i in sorted(ab)]  # each closes one
