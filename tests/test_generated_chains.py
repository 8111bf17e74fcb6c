"""The chain engine on seeded random chains.

The built-in chains all have an empty pre-period and a period of one
piece, so they never exercise the pre-period fold. These chains have a
pre-period of 0-2 pieces and a period of 1-3 on each tail, with 2- or
3-edge interfaces, in both modes.
"""

import math
import random
from dataclasses import replace
from itertools import combinations

import pytest

from cubicham import (
    BUILTIN_CHAINS,
    ChainError,
    ChainPiece,
    MultiGraph,
    OneEndedChain,
    Tail,
    TwoEndedChain,
    chain_ladder,
    chain_to_json,
    chains,
    cli,
    count_by_trace,
    count_limit_hamilton_cycles,
    end_degree,
    hamilton,
    initial_vector,
    materialize,
    max_vertex_disjoint_paths,
    min_edge_cut,
    prefix_counts,
    transfer_layer,
    truncation_consistency,
    truncation_minor,
    validate_certificate,
    witness_two_cycles,
)
from util import (
    dummy_cycles,
    frontier_count_by_trace,
    generated_chains,
    memo_count_by_trace,
    random_chain,
    renamed_stubs,
)

CHAINS = generated_chains()
# the generated chains, then the built-ins
EVERY_CHAIN = CHAINS + [make() for make in BUILTIN_CHAINS.values()]
# the generated chains, then one whose recurrent states return every piece
# while their support returns every other one, then two whose certificate
# rays repeat a (slot, state) pair before their support recurs
PERIOD_CHAINS = CHAINS + [
    random_chain(random.Random(1121), True, 3),
    random_chain(random.Random(577), True, 3),
    random_chain(random.Random(1235), False, 3),
]


def _right_tail(chain):
    return chain.tail if isinstance(chain, OneEndedChain) else chain.right


# generated chains whose right tail has a pre-period, with every piece's
# stubs renamed apart, so a pre-period layer prints names of its own
PRE_PERIOD_CHAINS = [renamed_stubs(c) for c in CHAINS if _right_tail(c).pre]


def _tails(chain) -> list:
    return [("right", chain.tail)] if isinstance(chain, OneEndedChain) else [
        ("left", chain.left),
        ("right", chain.right),
    ]


def _unrolled(chain, tail, levels: int) -> tuple[list, list]:
    """Pieces 1..levels of a tail and the matchings at its junctions
    0..levels, spelled out without folding any index."""
    reps = levels // tail.plen + 1
    pieces = [None] + list(tail.pre) + list(tail.period) * reps
    first = chain.entry_iface if isinstance(chain, OneEndedChain) else chain.central
    ifaces = [first] + list(tail.entry_ifaces) + list(tail.period_ifaces) * reps
    return pieces[: levels + 1], ifaces[: levels + 1]


def _matrix(piece, left_iface, right_iface, frontier: bool = False) -> list[list[int]]:
    """Rightward transfer matrix of one piece, counted from scratch by the
    search core or, with `frontier`, by the frontier sweep."""
    seg = materialize([piece], [], [None], left_dummy="alpha", right_dummy="beta")
    lpos = {stub: i for i, (_, stub) in enumerate(left_iface)}
    rpos = {stub: i for i, (stub, _) in enumerate(right_iface)}
    traces = (
        frontier_count_by_trace(seg, ("alpha", "beta"))
        if frontier
        else count_by_trace(seg, [seg.edges_at("alpha"), seg.edges_at("beta")])
    )
    counts: dict = {}
    for (a, b), n in traces.items():
        p = frozenset(lpos[seg.edges[i].label] for i in a)
        q = frozenset(rpos[seg.edges[i].label] for i in b)
        counts[p, q] = n
    states = [frozenset(s) for s in combinations(range(len(left_iface)), 2)]
    return [[counts.get((p, q), 0) for q in states] for p in states]


def test_sample_covers_every_class():
    classes = {count_limit_hamilton_cycles(c).tag for c in CHAINS}
    assert classes == {"zero", "finite", "infinite"}


@pytest.mark.parametrize("index", range(len(CHAINS)))
def test_generated_chain(index):
    chain = CHAINS[index]
    result = count_limit_hamilton_cycles(chain)
    for side, tail in _tails(chain):
        J = len(tail.pre) + 1
        levels = J + 2 * tail.plen
        pieces, ifaces = _unrolled(chain, tail, levels)
        for j in range(1, levels + 1):
            # piece j of the tail sits between cuts j-1 and j of its side
            if side == "right":
                n = j - 1
                expected = _matrix(pieces[j], ifaces[j - 1], ifaces[j])
            else:
                n = -j
                expected = _matrix(pieces[j], ifaces[j], ifaces[j - 1])
            assert transfer_layer(chain, n).matrix() == expected, (side, j)
            if j >= J + 1:
                shifted = n + tail.plen if side == "right" else n - tail.plen
                assert transfer_layer(chain, shifted).matrix() == expected, (side, j)

    if isinstance(chain, OneEndedChain):
        # past the first recurrence of the supports the surviving prefix
        # total is constant for Finite and grows each recurrence for Infinite
        span = chain.tail.plen * (2 ** math.comb(chain.cut_size, 2) + 8)
        k1 = len(chain.tail.pre) + 1 + span + 1
        totals = prefix_counts(chain, k1 + span)
        first, last = totals[k1], totals[-1]
        if result.tag == "zero":
            assert last == 0
        elif result.tag == "infinite":
            assert last > first
        else:
            assert first == last == result.count

    depth = max(len(t.pre) + 2 * t.plen for _, t in _tails(chain))
    assert len(result.certificates) == (result.count or 0)
    for cert in result.certificates:
        assert validate_certificate(chain, cert, depth)

    # windows are counted by the memoized search in chain order, so twelve
    # levels are cheap
    lo = 0 if isinstance(chain, OneEndedChain) else 1
    for k in range(lo, 13):
        assert truncation_consistency(chain, k).ok, k


def test_deep_truncations_of_a_one_ended_chain_with_2_edge_cuts():
    # util seed 16 is one-ended with 2-edge cuts, where branching on the most
    # constrained edge took 1.4 million memo nodes to depth 14; the
    # lowest-edge branching of the memoized count sweeps each window along
    # the chain and takes 809.  The windows of one chain share their
    # tables, so each level adds a few nodes instead of a whole window's:
    # depth 60 takes about 0.07 s, where counting each window afresh took
    # ten times as long
    chain = random_chain(random.Random(16), True, 2)
    for k in range(61):
        assert truncation_consistency(chain, k).ok, k


def _outer_first_renumbering(pieces: list, ifaces: list) -> tuple[list, list]:
    """For a one-ended window, the chain-order id of each vertex and of
    each edge of the window glued outer end first: the dummy, then pieces
    k..0; its stub edges, then piece k, junction k-1, piece k-1, ..., piece 0."""
    sizes = [piece._flow[0] for piece in pieces]
    vertex_at = [sum(sizes)]  # the dummy, last in chain order
    for j in reversed(range(len(pieces))):
        vertex_at += range(sum(sizes[:j]), sum(sizes[: j + 1]))
    own = [len(piece._flow[1]) for piece in pieces]
    junction = [len(matching) for matching in ifaces]
    glued_from = sum(own)
    stubs_from = glued_from + sum(junction)  # the stub edges, last in chain order
    edge_at = list(range(stubs_from, stubs_from + len(pieces[-1].right_ports)))
    for j in reversed(range(len(pieces))):
        if j < len(ifaces):
            start = glued_from + sum(junction[:j])
            edge_at += range(start, start + junction[j])
        edge_at += range(sum(own[:j]), sum(own[: j + 1]))
    return vertex_at, edge_at


@pytest.mark.parametrize("index", range(len(EVERY_CHAIN)))
def test_integer_window_is_the_labeled_window(index):
    # the brute force counts each window in integer form; it must be the
    # labeled window's graph, with each dummy's edges in port order.  A
    # one-ended window is counted glued outer end first, which must be the
    # same graph, renumbered
    chain = EVERY_CHAIN[index]
    one_ended = isinstance(chain, OneEndedChain)
    for k in range(0 if one_ended else 1, 5):
        pieces, ifaces, tags, (left, right) = chains._window(chain, k)
        graph, groups = chains._glue(pieces, ifaces, not one_ended, True)
        window = truncation_minor(chain, k)
        assert graph == window.ints, k
        bounds = [] if one_ended else [(left, pieces[0].left_ports, tags[0])]
        bounds.append((right, pieces[-1].right_ports, tags[-1]))
        assert len(groups) == len(bounds), k
        for group, (dummy, ports, tag) in zip(groups, bounds):
            assert list(group) == list(window.edges_at(dummy)), k
            assert [window.edges[i].label for i in group] == [f"{s}@{tag}" for s, _ in ports], k
        if not one_ended:
            continue
        (n, edges), [outer_group] = chains._glue(pieces, ifaces, False, True, outer_first=True)
        vertex_at, edge_at = _outer_first_renumbering(pieces, ifaces)
        assert n == window.n and sorted(vertex_at) == list(range(n)), k
        assert sorted(edge_at) == list(range(window.m)), k
        renumbered = [(vertex_at[u], vertex_at[v]) for u, v in edges]
        assert renumbered == [window.ints[1][i] for i in edge_at], k
        assert [edge_at[i] for i in outer_group] == list(groups[0]), k


ONE_ENDED_CHAINS = [chain for chain in EVERY_CHAIN if isinstance(chain, OneEndedChain)]
SHARED_DEPTH = 12


def _labeled_window_counts(chain, k: int, count) -> dict:
    """The level-k window of a one-ended chain counted by `count`
    (`hamilton._trace_counts` or `_memo_trace_counts`) on the labeled window
    (`truncation_minor`), in chain order and with no shared memo, keyed as
    `_window_counts` keys it: by the pair state each cycle uses at cut k."""
    window = truncation_minor(chain, k)
    position = {f"{a}@{k}": r for r, (a, _) in enumerate(chain._directions["right"].links(k))}
    counts: dict = {}
    for (trace,), n in count(window.ints, [window.edges_at(chains.DUMMY)]).items():
        state = (frozenset(position[window.edges[i].label] for i in trace),)
        counts[state] = counts.get(state, 0) + n
    return counts


# windows up to this many cycles are also listed by the visitor search,
# whose cost grows with their number (up to three times per level here)
VISITED_CYCLES = 4096


@pytest.mark.parametrize("index", range(len(ONE_ENDED_CHAINS)))
def test_windows_of_a_chain_share_one_memo_soundly(index):
    # every window of a one-ended chain is counted on one memo that the
    # chain keeps; in whatever order its windows come, each count must be
    # that window's alone, with no shared tables, and the labeled window's
    # in chain order, by the memoized search and, where it is cheap, by the
    # visitor search
    chain = ONE_ENDED_CHAINS[index]
    depths = list(range(SHARED_DEPTH + 1))
    expected = {}
    for k in depths:
        alone = chains._window_counts(replace(chain), k)  # a fresh memo
        assert alone == _labeled_window_counts(chain, k, hamilton._memo_trace_counts), k
        if sum(alone.values()) <= VISITED_CYCLES:
            assert alone == _labeled_window_counts(chain, k, hamilton._trace_counts), k
        expected[k] = alone
    shuffled = depths[:]
    random.Random(index).shuffle(shuffled)
    for order in (depths, depths[::-1], shuffled):
        shared = replace(chain)
        for k in order:
            assert chains._window_counts(shared, k) == expected[k], (order, k)


def test_two_chains_never_mix_their_tables():
    # two chains' windows counted in turn: each chain's memo must end as it
    # does when that chain is counted alone
    a, b = (replace(chain) for chain in ONE_ENDED_CHAINS[:2])
    for k in range(SHARED_DEPTH + 1):
        for chain in (a, b):
            assert chains._window_counts(chain, k) == chains._window_counts(replace(chain), k), k
    assert a._window_memo is not b._window_memo
    for chain in (a, b):
        alone = replace(chain)
        for k in range(SHARED_DEPTH + 1):
            chains._window_counts(alone, k)
        assert chain._window_memo == alone._window_memo


@pytest.mark.parametrize("make", [BUILTIN_CHAINS["chain-G"], BUILTIN_CHAINS["chain-H"]])
def test_each_deeper_window_adds_a_fixed_number_of_memo_entries(make):
    # once windows 0..k are counted, window k+1 meets only the problems
    # about its outer piece: 14 new entries on chain-G and chain-H, where
    # each window counted afresh keeps 9 more entries than the one below it
    chain = make()
    memo = chain._window_memo
    chains._window_counts(chain, 0)
    for k in range(1, 41):
        before = len(memo)
        chains._window_counts(chain, k)
        assert 0 < len(memo) - before <= 14, k


@pytest.mark.parametrize("index", range(len(CHAINS)))
def test_layer_counts_match_cycle_buckets(index):
    # layers count without listing; the cycles, listed only on demand, must
    # come in the same numbers, on both sides and in every slot
    chain = CHAINS[index]
    for side, tail in _tails(chain):
        for j in range(len(tail.pre) + 1 + tail.plen):
            layer = transfer_layer(chain, j if side == "right" else -j - 1)
            assert layer.counts == {key: len(c) for key, c in layer.buckets.items()}, (side, j)
    if isinstance(chain, OneEndedChain):
        assert initial_vector(chain) == {s: len(c) for s, c in chain._initial_cycles.items()}


def _pieces(chain) -> list:
    """Every piece of a chain: the initial one, then each tail's."""
    first = [chain.initial] if isinstance(chain, OneEndedChain) else []
    return first + [piece for _, tail in _tails(chain) for piece in tail.pre + tail.period]


def _labeled_tables(piece) -> tuple[list, list]:
    """A piece's counts and cycles from its labeled segment minor, searched
    through its labels, as item lists so the key order counts too.  The
    counts come from the visitor search (`_trace_counts`), whose order the
    integer tabulation keeps."""
    seg, dummies = piece._segment, ("alpha", "beta")[not piece.left_ports :]
    traces = hamilton._trace_counts(seg.ints, [seg.edges_at(d) for d in dummies])
    counts = {
        tuple(frozenset(seg.edges[i].label for i in trace) for trace in key): n
        for key, n in traces.items()
    }
    return list(counts.items()), list(dummy_cycles(seg, dummies).items())


@pytest.mark.parametrize("index", range(len(EVERY_CHAIN)))
def test_integer_tabulation_matches_labeled_minor(index):
    # pieces are tabulated from their integer form; keys, counts, cycles and
    # their order must be those of the labeled minor
    for piece in _pieces(EVERY_CHAIN[index]):
        assert (list(piece._counts.items()), list(piece._cycles.items())) == _labeled_tables(piece)


def test_integer_tabulation_of_nonsimple_minors():
    # an initial piece's minor need not be simple: a digon, which has
    # cycles, and a vertex with a loop, which has none
    ports = chain_ladder().initial.right_ports
    digon_graph = MultiGraph(("u1", "l1"), [("d_1", "u1", "l1"), ("d_2", "u1", "l1")])
    digon = ChainPiece(digon_graph, (), ports)
    looped = ChainPiece(
        MultiGraph(("a", "b", "c"), [("aa", "a", "a"), ("ab", "a", "b"), ("bc", "b", "c")]),
        (),
        (("r1", "b"), ("r2", "c"), ("r3", "c")),
    )
    for piece in (digon, looped):
        assert (list(piece._counts.items()), list(piece._cycles.items())) == _labeled_tables(piece)
    assert (len(digon._counts), len(looped._counts)) == (1, 0)
    # with left stubs it must be: two left stubs on one vertex, and a loop
    parallel = ChainPiece(
        MultiGraph(("x", "y"), [("xy", "x", "y")]),
        (("l1", "x"), ("l2", "x")),
        (("r1", "y"), ("r2", "y")),
    )
    loop = ChainPiece(
        MultiGraph(
            ("x", "y", "z", "w"),
            [("xx", "x", "x"), ("yz", "y", "z"), ("yw", "y", "w"), ("zw", "z", "w")],
        ),
        (("l1", "x"), ("l2", "y")),
        (("r1", "z"), ("r2", "w")),
    )
    for piece in (parallel, loop):
        for table in ("_counts", "_cycles", "_segment"):
            with pytest.raises(ChainError, match="segment minor is not simple"):
                getattr(piece, table)


def _window_cut(chain, end: str, k: int, flow=min_edge_cut) -> int:
    """The max flow between the core and the chosen end's dummy on the
    truncation window of level k, by `min_edge_cut` or another oracle."""
    if isinstance(chain, OneEndedChain):
        core, sink = chain.initial, chains.DUMMY
    else:
        core = chain.left.piece(1)
        sink = chains.DUMMY_RIGHT if end == "right" else chains.DUMMY_LEFT
    return flow(truncation_minor(chain, k), [f"{v}@0" for v in core.graph.vertices], sink)


@pytest.mark.parametrize("index", range(len(EVERY_CHAIN)))
def test_end_degree_equals_window_min_cuts(index):
    # a level's max flow glues piece edge lists into one network; the
    # definition it replaces reads the min cut off the labelled window.
    # The end degree is the min cut of a window far past any level
    # end_degree looks at, by both oracles: on cubic windows edge- and
    # vertex-disjoint paths agree.
    chain = EVERY_CHAIN[index]
    for end, tail in _tails(chain):
        for k in range(1, len(tail.pre) + 2 + 6 * tail.plen):
            assert chains._level_cut(chain, end, k) == _window_cut(chain, end, k), (end, k)
        k = len(tail.pre) + 8 * tail.plen + 4
        oracles = {_window_cut(chain, end, k, f) for f in (min_edge_cut, max_vertex_disjoint_paths)}
        assert oracles == {end_degree(chain, end)}, end


@pytest.mark.parametrize("index", range(len(EVERY_CHAIN)))
def test_frontier_sweep_equals_layer_counts(index):
    # an oracle that shares no code with the search core behind the layers
    chain = EVERY_CHAIN[index]
    for side, tail in _tails(chain):
        pieces, ifaces = _unrolled(chain, tail, len(tail.pre) + 1 + tail.plen)
        for j in range(1, len(pieces)):  # one level per direction slot
            if side == "right":
                layer = transfer_layer(chain, j - 1)
                expected = _matrix(pieces[j], ifaces[j - 1], ifaces[j], frontier=True)
            else:
                layer = transfer_layer(chain, -j)
                expected = _matrix(pieces[j], ifaces[j], ifaces[j - 1], frontier=True)
            assert layer.matrix() == expected, (side, j)
    if isinstance(chain, OneEndedChain):
        window = truncation_minor(chain, 0)
        pos = {f"{stub}@0": i for i, (stub, _) in enumerate(chain.entry_iface)}
        vector = dict.fromkeys(initial_vector(chain), 0)
        for (trace,), n in frontier_count_by_trace(window, (chains.DUMMY,)).items():
            vector[frozenset(pos[window.edges[i].label] for i in trace)] = n
        assert vector == initial_vector(chain)


@pytest.mark.parametrize("index", range(len(EVERY_CHAIN)))
def test_memoized_window_counts_match_visitor_and_frontier(index):
    # the window brute force runs on the memoized counter; it must give the
    # visitor search's table and the frontier sweep's counts.  The memo
    # branches on the lowest undecided edge, the visitor on the most
    # constrained one, so their tables are compared as dicts: no output
    # depends on their order
    chain = EVERY_CHAIN[index]
    one_ended = isinstance(chain, OneEndedChain)
    dummies = (chains.DUMMY,) if one_ended else (chains.DUMMY_LEFT, chains.DUMMY_RIGHT)
    for k in range(0 if one_ended else 1, 5):
        window = truncation_minor(chain, k)
        groups = [window.edges_at(d) for d in dummies]
        memo = hamilton._memo_trace_counts(window.ints, groups)
        assert memo == hamilton._trace_counts(window.ints, groups), k
        assert memo_count_by_trace(window, groups) == frontier_count_by_trace(window, dummies), k


def _observed(chain) -> tuple:
    """What the engine reports on a chain, keyed by cut positions only."""
    result = count_limit_hamilton_cycles(chain)
    degrees = [end_degree(chain, end) for end in chain.sides]
    layers = [
        transfer_layer(chain, j if side == "right" else -j - 1).matrix()
        for side, tail in _tails(chain)
        for j in range(len(tail.pre) + 1 + tail.plen)
    ]
    summary = (str(result), result.count, result.witness, result.side, len(result.certificates))
    return summary, degrees, layers, truncation_consistency(chain, 3)


@pytest.mark.parametrize("index", range(len(CHAINS)))
def test_stub_names_do_not_matter(index):
    # every piece gets stub names of its own, so a matching read in the
    # wrong orientation names stubs of the wrong piece
    chain = CHAINS[index]
    renamed = renamed_stubs(chain)
    assert _observed(renamed) == _observed(chain)
    for cert in count_limit_hamilton_cycles(renamed).certificates:
        assert validate_certificate(renamed, cert, 2)


def _doubled(tail: Tail) -> Tail:
    """The same tail with its period written out twice."""
    return Tail(tail.pre, tail.period * 2, tail.entry_ifaces, tail.period_ifaces * 2)


def _entered(tail: Tail) -> Tail:
    """The same tail with its first period piece and the matching after it
    moved into the pre-period, and the period rotated to follow them."""
    period, ifaces = tail.period, tail.period_ifaces
    return Tail(
        tail.pre + period[:1],
        period[1:] + period[:1],
        tail.entry_ifaces + ifaces[:1],
        ifaces[1:] + ifaces[:1],
    )


def _retailed(chain, redo):
    """The chain with `redo` applied to every tail."""
    if isinstance(chain, OneEndedChain):
        return OneEndedChain(chain.initial, chain.entry_iface, redo(chain.tail), chain.name)
    return TwoEndedChain(redo(chain.left), chain.central, redo(chain.right), chain.name)


@pytest.mark.parametrize("index", range(len(CHAINS)))
def test_presentation_of_the_period_does_not_matter(index):
    # one limit graph, with its period doubled or entered one piece later:
    # the class, count, certificates and end degrees are the graph's own
    def seen(chain):
        result = count_limit_hamilton_cycles(chain)
        degrees = [end_degree(chain, end) for end in chain.sides]
        return str(result), result.count, len(result.certificates), degrees

    chain = CHAINS[index]
    expected = seen(chain)
    for redo in (_doubled, _entered):
        assert seen(_retailed(chain, redo)) == expected, redo.__name__


@pytest.mark.parametrize("index", range(len(PERIOD_CHAINS)))
def test_certificate_periods_are_shortest(index):
    # a certificate's ray closes where its (slot, state) pair first recurs,
    # so no pair repeats along its pre-period and period: both are shortest.
    # The witnesses of an Infinite chain are certificates as well.
    chain = PERIOD_CHAINS[index]
    result = count_limit_hamilton_cycles(chain)
    certs = list(result.certificates)
    if result.tag == "infinite" and isinstance(chain, OneEndedChain):
        certs += witness_two_cycles(chain)
    for cert in certs:
        depth = 0
        for side, tail in _tails(chain):
            pre, period = (
                (cert.pre, cert.period) if side == "right" else (cert.left_pre, cert.left_period)
            )
            pairs = [(tail.fold(i), left) for i, (left, _, _) in enumerate(pre + period)]
            assert len(set(pairs)) == len(pairs), side
            depth = max(depth, len(pre) + 3 * len(period))
        assert validate_certificate(chain, cert, depth)


def test_witnesses_walk_at_most_two_rays(monkeypatch):
    # the certificate stream is lazy: two witnesses of an Infinite chain
    # walk at most two rays, however many rays leave its seed states
    drawn = []
    rays = chains._Direction.rays

    def counted(self, j, s, unique=False):
        for ray in rays(self, j, s, unique):
            drawn.append(ray)
            yield ray

    monkeypatch.setattr(chains._Direction, "rays", counted)
    infinite = [
        index
        for index, chain in enumerate(CHAINS)
        if isinstance(chain, OneEndedChain) and count_limit_hamilton_cycles(chain).tag == "infinite"
    ]
    assert infinite
    for index in infinite:
        drawn.clear()
        witness_two_cycles(CHAINS[index])
        assert len(drawn) <= 2, index


@pytest.mark.parametrize("index", range(len(PRE_PERIOD_CHAINS)))
def test_analyze_prints_a_periodic_layer(tmp_path, capsys, index):
    # the layer `chain analyze` calls periodic is the one a period further out
    chain = PRE_PERIOD_CHAINS[index]
    target = tmp_path / "chain.json"
    target.write_text(chain_to_json(chain))
    assert cli.main(["chain", "analyze", str(target)]) == 0
    out = capsys.readouterr().out
    tail = _right_tail(chain)
    periodic = transfer_layer(chain, len(tail.pre) + 1 + tail.plen).to_text()
    assert f"periodic transfer layer:\n{periodic}\nclassification:" in out


def test_pre_period_chains_cover_both_modes():
    assert {c.mode for c in PRE_PERIOD_CHAINS} == {"one-ended", "two-ended"}
