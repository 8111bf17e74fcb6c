"""The chain engine on seeded random chains.

The built-in chains all have an empty pre-period and a period of one
piece, so they never exercise the pre-period fold. These chains have a
pre-period of 0-2 pieces and a period of 1-3 on each tail, with 2- or
3-edge interfaces, in both modes.
"""

import math
import random
import re
from itertools import combinations, islice

import pytest

from cubicham import (
    BUILTIN_CHAINS,
    ChainError,
    OneEndedChain,
    chain_to_json,
    chains,
    cli,
    count_by_trace,
    count_limit_hamilton_cycles,
    end_degree,
    initial_vector,
    materialize,
    min_edge_cut,
    prefix_counts,
    transfer_layer,
    truncation_consistency,
    truncation_minor,
    validate_certificate,
    witness_two_cycles,
)
from util import frontier_count_by_trace, generated_chains, random_chain, renamed_stubs

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

    lo = 0 if isinstance(chain, OneEndedChain) else 1
    for k in range(lo, 4):
        assert truncation_consistency(chain, k).ok, k


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


def _window_cuts(chain, end: str) -> list[int]:
    """Min cuts between the core and the chosen end's dummy on the
    truncation windows of levels 1 to END_DEGREE_LEVELS."""
    if isinstance(chain, OneEndedChain):
        core, sink = chain.initial, chains.DUMMY
    else:
        core = chain.left.piece(1)
        sink = chains.DUMMY_RIGHT if end == "right" else chains.DUMMY_LEFT
    sources = [f"{v}@0" for v in core.graph.vertices]
    return [
        min_edge_cut(truncation_minor(chain, k), sources, sink)
        for k in range(1, chains.END_DEGREE_LEVELS + 1)
    ]


@pytest.mark.parametrize("index", range(len(EVERY_CHAIN)))
def test_end_degree_equals_window_min_cuts(index):
    # end_degree glues piece edge lists into one flow network; the
    # definition it replaces reads min cuts off the labelled windows
    chain = EVERY_CHAIN[index]
    for end in ("right",) if isinstance(chain, OneEndedChain) else ("left", "right"):
        cuts = _window_cuts(chain, end)
        assert list(islice(chains._level_cuts(chain, end), len(cuts))) == cuts, end
        agree = [b for a, b in zip(cuts, cuts[1:]) if a == b]
        if agree:
            assert end_degree(chain, end) == agree[0], end
        else:
            with pytest.raises(ChainError, match=re.escape(str(cuts))):
                end_degree(chain, end)


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


def _observed(chain) -> tuple:
    """What the engine reports on a chain, keyed by cut positions only."""
    result = count_limit_hamilton_cycles(chain)
    degrees = []
    for end in chain.sides:
        try:
            degrees.append(end_degree(chain, end))
        except ChainError as exc:
            degrees.append(str(exc))
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


@pytest.mark.parametrize("index", range(len(PERIOD_CHAINS)))
def test_certificate_periods_are_shortest(index):
    # a certificate's ray closes where its (slot, state) pair first recurs,
    # so no pair repeats along its pre-period and period: both are shortest.
    # An Infinite chain's witnesses reach the branching state by a
    # breadth-first prefix, which the ray after it may meet again, so only
    # their period is checked.  Finite witnesses are certificates.
    chain = PERIOD_CHAINS[index]
    result = count_limit_hamilton_cycles(chain)
    certs = [(cert, True) for cert in result.certificates]
    if result.tag == "infinite" and isinstance(chain, OneEndedChain):
        certs += [(cert, False) for cert in witness_two_cycles(chain)]
    for cert, whole in certs:
        depth = 0
        for side, tail in _tails(chain):
            pre, period = (
                (cert.pre, cert.period) if side == "right" else (cert.left_pre, cert.left_period)
            )
            pairs = [(tail.fold(i), left) for i, (left, _, _) in enumerate(pre + period)]
            pairs = pairs if whole else pairs[len(pre) :]
            assert len(set(pairs)) == len(pairs), side
            depth = max(depth, len(pre) + 3 * len(period))
        assert validate_certificate(chain, cert, depth)


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
