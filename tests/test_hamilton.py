import gc
import hashlib
import random
from itertools import compress

import pytest

from cubicham import chains, hamilton
from cubicham import (
    GraphError,
    MultiGraph,
    chain_G,
    chain_H,
    chain_Hprime,
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
from util import (
    frontier_count_by_trace,
    memo_count_by_trace,
    naive_hamilton_cycles,
    naive_multigraph_hamilton_cycles,
)


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


def _complete_graph(n: int) -> MultiGraph:
    labels = [f"v{i}" for i in range(n)]
    return MultiGraph(labels, [(None, u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]])


def _third_odd_draw(rng: random.Random) -> MultiGraph:
    return [random_odd_degree_graph(n, rng) for n in (12, 14, 16)][-1]


@pytest.mark.parametrize(
    "make, total",
    [
        # 2520 cycles, 720 on each edge: the packed tally is unpacked 9 times
        # during the search, the last time at the 2295th cycle
        (lambda: _complete_graph(8), 2520),
        # the bench's dense all-odd graph: n = 16, m = 48, the third draw
        # of one Random(2)
        (lambda: _third_odd_draw(random.Random(2)), 22145),
    ],
)
def test_packed_parity_tally_matches_per_cycle_tallies(make, total):
    G = make()
    cycles = enumerate_hamilton_cycles(G)
    report = edge_parity_report(G)
    assert report.total == len(cycles) == total
    assert report.counts == {i: sum(i in c for c in cycles) for i in range(G.m)}
    assert report.all_degrees_odd
    assert report.odd_count_edges == tuple(i for i in range(G.m) if report.counts[i] % 2)


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
    # adjacent anchors: the edges between them lie in both groups
    a = anchors[0]
    adjacent = [a, G.edges[G.edges_at(a)[0]].other_end(a)]
    for pair in (anchors, adjacent):
        groups = [G.edges_at(v) for v in pair]
        expected = frontier_count_by_trace(G, pair)
        assert count_by_trace(G, groups) == expected
        memo = hamilton._memo_trace_counts(G.ints, groups)
        # the memo searches in another order: the tables agree as dicts
        assert memo == hamilton._trace_counts(G.ints, groups)
        assert memo_count_by_trace(G, groups) == expected
    assert count_through(G) == sum(expected.values())


# Two search nodes whose residual problems differ only in what the memo key
# must keep.  The counting search branches on the lowest undecided edge, so
# its first branch on K5 is edge 0-1.  With the key reduced to the
# undecided edges, that branch's IN child and OUT child share a key: both
# leave 0-1 decided and the same edges open, but with 0 and 1 path ends in
# one and untouched in the other, and only the IN-degrees (which the
# path-end mates carry) tell them apart.  Traced on the edges at vertex 0,
# the OUT child is handed the IN child's table: one edge more at vertex 0
# instead of two.  The total stays 12.
K5 = MultiGraph(
    [f"v{i}" for i in range(5)],
    [(None, f"v{i}", f"v{j}") for i in range(5) for j in range(i + 1, 5)],
)

# A cubic graph on ten vertices where the counting search meets two nodes
# with the same decided edges and the same four path ends v0, v2, v3 and
# v9, paired differently: IN paths v9-v4-v6-v2 and v0-v1-v7-v3 in one,
# v0-v1-v4-v9 and v2-v6-v7-v3 in the other.  A key with the IN-degrees
# but without the mates of the path ends counts 6 Hamilton cycles here
# instead of 7.
PAIRED_ENDS = MultiGraph(
    [f"v{i}" for i in range(10)],
    [
        (None, f"v{u}", f"v{v}")
        for u, v in [
            (4, 6), (0, 1), (6, 2), (3, 9), (2, 5), (5, 9), (5, 8), (7, 6),
            (8, 0), (7, 1), (8, 3), (7, 3), (1, 4), (2, 0), (9, 4),
        ]
    ],
)


@pytest.mark.parametrize("G", [K5, PAIRED_ENDS], ids=["in-degrees", "path-end-mates"])
def test_memo_key_keeps_the_residual_problem(G):
    groups = [G.edges_at("v0")]
    expected = frontier_count_by_trace(G, ["v0"])
    assert count_by_trace(G, groups) == expected
    assert memo_count_by_trace(G, groups) == expected
    assert memo_count_by_trace(G, []) == {(): sum(expected.values())}


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


# -- the search tree, pinned -------------------------------------------------
#
# sha256 digests of what the search emits, in the order it emits it, so that
# a change to the core that keeps the counts but moves the search tree (its
# branch edge, its forced moves, the order of its children or its memo keys)
# fails here.  Each digest hashes repr(item) + "\n" per item.


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode() + b"\n")
    return h.hexdigest()


def _visit_order(G: MultiGraph) -> list[tuple[int, ...]]:
    """The IN edges of each cycle, in the order the visiting search meets them."""
    out = []
    ids = range(G.m)
    hamilton._search(G.ints, (), (), lambda s: out.append(tuple(compress(ids, map(hamilton._is_in, s)))))
    return out


def _window_tables(chain, levels) -> list:
    """The items of each memoized window count of `chain` at `levels`, as
    `chains._window_counts` makes them, on the chain's one shared memo."""
    tables = []
    real = chains._memo_trace_counts

    def record(*args, **kwargs):
        table = real(*args, **kwargs)
        tables.append(list(table.items()))
        return table

    chains._memo_trace_counts = record
    try:
        for k in levels:
            chains._window_counts(chain, k)
    finally:
        chains._memo_trace_counts = real
    return tables


def _pin_graphs() -> dict:
    return {
        "dense": _third_odd_draw(random.Random(2)),  # n = 16, 22 145 cycles
        "cubic40": random_cubic_graph(40, random.Random(40)),  # 192 cycles
        "odd14": random_odd_degree_graph(14, random.Random(14)),  # 5018 cycles
    }


def _anchor_groups(G: MultiGraph) -> list:
    return [G.edges_at(G.vertices[0]), G.edges_at(G.vertices[-1])]


SEARCH_PINS = {
    "visits-dense": (
        lambda g: _visit_order(g["dense"]),
        "94774b5246978cd64dc9efcf43b48a654b778e144e4b20f200d9accad31b6b42",
    ),
    "visits-cubic40": (
        lambda g: _visit_order(g["cubic40"]),
        "b3672658ec9ad37067eb60aa3bd61a25c8160c543837509c76f09084c5bb1291",
    ),
    "visits-odd14": (
        lambda g: _visit_order(g["odd14"]),
        "a1320e102c7d53605a6f2602485de3d3a2740b97a0277a40d5b867696157f862",
    ),
    "traces-cubic40": (
        lambda g: hamilton._trace_counts(g["cubic40"].ints, _anchor_groups(g["cubic40"])).items(),
        "4ecd32a645d27436affbe0a705d9e76d4f3aa9564e985336dd180a0369a3678b",
    ),
    "traces-odd14": (
        lambda g: hamilton._trace_counts(g["odd14"].ints, _anchor_groups(g["odd14"])).items(),
        "88dfd61305b38a32ef7f02cb637980a7e6e307ffabe26d3da2050136bf78b6c5",
    ),
    "least-cubic40": (
        lambda g: hamilton._least_cycles(g["cubic40"], (), 3),
        "e638a02818bc6e914fa010da4817ff6655b71fc14dc79fd826c81e2d26aecbb2",
    ),
    "least-odd14": (
        lambda g: hamilton._least_cycles(g["odd14"], (), 3),
        "a2cf8200302738918cd4b76282ddf2654a6c3534a85e883be4a60ba693053924",
    ),
    "windows-chain-H": (
        lambda g: _window_tables(chain_H(), range(6)),
        "809a63922e395fb9c032e1c9e759d8451b49174921b5b47fa74fd6492aa3e12a",
    ),
    "windows-chain-G": (
        lambda g: _window_tables(chain_G(), range(6)),
        "213b5f18787f36257d585c284c9bbd20ce0ff4aceb16832382fc00106c7666f6",
    ),
    "windows-chain-Hprime": (
        lambda g: _window_tables(chain_Hprime(), range(1, 6)),
        "f2d8de0e3a207e45c17cba4f5f5c3e7609099e269d56da29c496ff740c33ba72",
    ),
}


@pytest.fixture(scope="module")
def pin_graphs():
    return _pin_graphs()


@pytest.mark.parametrize("pin", list(SEARCH_PINS))
def test_search_tree_is_pinned(pin, pin_graphs):
    items, expected = SEARCH_PINS[pin]
    assert _digest(items(pin_graphs)) == expected


# -- vertex codes of high degree and reference cycles -------------------------


def _wheel(k: int) -> MultiGraph:
    """A hub joined by spokes s0..s(k-1) to a rim of k vertices, then the
    rim edges w0..w(k-1), wi joining rim vertices i and i + 1: k Hamilton
    cycles, the one without wi using spokes si and s(i+1)."""
    rim = [f"r{i}" for i in range(k)]
    spokes = [(f"s{i}", "hub", r) for i, r in enumerate(rim)]
    return MultiGraph(["hub", *rim], spokes + [(f"w{i}", rim[i], rim[(i + 1) % k]) for i in range(k)])


# the search's tables take K = hub degree + 1 (`hamilton._tables`): at
# 60 and 80 every vertex code fits in a byte, and at 150 they no longer do
@pytest.mark.parametrize("k", [60, 80, 150])
def test_wheel_with_a_hub_of_high_degree(k):
    G = _wheel(k)
    assert count_through(G) == k
    report = edge_parity_report(G)
    assert report.total == k
    assert report.counts == {i: 2 if i < k else k - 1 for i in range(G.m)}
    table = hamilton._memo_trace_counts(G.ints, [G.edges_at("hub")])
    assert table == {(tuple(sorted((i, (i + 1) % k))),): 1 for i in range(k)}


@pytest.mark.parametrize("G", [random_cubic_graph(20, random.Random(1)), _wheel(100)], ids=["cubic", "wheel"])
def test_searches_leave_no_reference_cycles(G):
    graph = G.ints
    groups = [G.edges_at(G.vertices[0])]
    searches = [
        lambda: count_through(G),
        lambda: hamilton._least_cycles(G, (), 3),
        lambda: hamilton._memo_trace_counts(graph, groups),
        lambda: hamilton._memo_trace_counts(graph, groups, {}),
    ]
    gc.collect()
    gc.disable()
    try:
        for search in searches:
            search()
            # everything the search made was freed by reference counting
            assert gc.collect() == 0
    finally:
        gc.enable()
