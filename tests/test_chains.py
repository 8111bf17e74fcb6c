import json
import re

import pytest

from cubicham import chains, cli, hamilton
from cubicham import (
    BUILTIN_CHAINS,
    ChainError,
    ChainPiece,
    MultiGraph,
    OneEndedChain,
    Tail,
    chain_G,
    chain_H,
    chain_Hprime,
    chain_double_ladder,
    chain_from_doc,
    chain_from_json,
    chain_ladder,
    chain_to_json,
    count_limit_hamilton_cycles,
    end_degree,
    initial_vector,
    prefix_counts,
    segment_minor,
    splice_certificate,
    surviving_states,
    transfer_dot,
    transfer_layer,
    truncation_consistency,
    truncation_minor,
    validate_certificate,
    witness_two_cycles,
)
from util import alternating_double_ladder, alternating_tail

S01, S02, S12 = frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})
ALL_CHAINS = {
    "G": chain_G,
    "H": chain_H,
    "Hprime": chain_Hprime,
    "ladder": chain_ladder,
    "double_ladder": chain_double_ladder,
}


def test_chain_G_transfer_matrix():
    layer = transfer_layer(chain_G(), 1)
    assert layer.left_states == (S01, S02, S12)
    assert layer.matrix() == [[0, 0, 0], [1, 1, 0], [1, 1, 2]]
    # the same layer repeats at every level
    assert transfer_layer(chain_G(), 5).matrix() == layer.matrix()


def test_chain_H_entry_layer_is_crosswise():
    layer = transfer_layer(chain_H(), 0)
    # crosswise gluing permutes the left states relative to the periodic layer
    assert layer.matrix() == [[1, 1, 2], [1, 1, 0], [0, 0, 0]]
    assert transfer_layer(chain_H(), 1).matrix() == [[0, 0, 0], [1, 1, 0], [1, 1, 2]]


def test_ladder_layers_are_unit():
    for n in range(4):
        assert transfer_layer(chain_ladder(), n).matrix() == [[1]]
    for n in (-2, -1, 0, 1, 2):
        assert transfer_layer(chain_double_ladder(), n).matrix() == [[1]]


def test_hprime_layers_both_sides():
    c = chain_Hprime()
    assert transfer_layer(c, 0).matrix() == [[1, 1, 2], [1, 1, 0], [0, 0, 0]]
    assert transfer_layer(c, 1).matrix() == [[0, 0, 0], [1, 1, 0], [1, 1, 2]]
    # left side, oriented rightward: transposed role of the pair classes
    assert transfer_layer(c, -1).matrix() == [[0, 1, 1], [0, 1, 1], [0, 0, 2]]
    assert transfer_layer(c, -2).matrix() == transfer_layer(c, -3).matrix()


def test_initial_vectors():
    assert initial_vector(chain_G()) == {S01: 2, S02: 2, S12: 2}
    assert initial_vector(chain_H()) == {S01: 0, S02: 2, S12: 4}
    assert initial_vector(chain_ladder()) == {S01: 2}
    with pytest.raises(ChainError):
        initial_vector(chain_double_ladder())


def test_surviving_states():
    surv = surviving_states(chain_G())
    assert surv["periodic"] == [frozenset({S02, S12})]
    assert surv["prefix"] == [frozenset({S02, S12})]
    surv_h = surviving_states(chain_H())
    assert surv_h["periodic"] == [frozenset({S02, S12})]
    assert surv_h["prefix"] == [frozenset({S01, S02})]
    both = surviving_states(chain_double_ladder())
    assert both["left"]["periodic"] == [frozenset({S01})]
    assert both["right"]["periodic"] == [frozenset({S01})]


def test_classifications():
    expected = {
        "G": "Infinite",
        "H": "Finite(2)",
        "Hprime": "Finite(1)",
        "ladder": "Finite(2)",
        "double_ladder": "Finite(1)",
    }
    for name, make in ALL_CHAINS.items():
        assert str(count_limit_hamilton_cycles(make())) == expected[name]


def test_chain_G_witness():
    result = count_limit_hamilton_cycles(chain_G())
    level, state, out = result.witness
    chain = chain_G()
    assert {chain.iface(level)[p][1] for p in state} == {"e_y", "e_z"}
    assert out >= 2
    assert result.certificates == ()


def test_finite_counts_come_with_certificates():
    for name in ("H", "Hprime", "ladder", "double_ladder"):
        result = count_limit_hamilton_cycles(ALL_CHAINS[name]())
        assert len(result.certificates) == result.count


def test_certificates_validate():
    for name in ("H", "Hprime", "ladder", "double_ladder"):
        chain = ALL_CHAINS[name]()
        result = count_limit_hamilton_cycles(chain)
        for cert in result.certificates:
            for k in range(1, 5):
                assert validate_certificate(chain, cert, k), (name, k)


def test_certificates_distinct():
    for name in ("H", "ladder"):
        chain = ALL_CHAINS[name]()
        certs = count_limit_hamilton_cycles(chain).certificates
        spliced = {frozenset(splice_certificate(chain, c, 4)) for c in certs}
        assert len(spliced) == len(certs)


def test_truncation_consistency_three_cut_chains():
    for make in (chain_G, chain_H):
        for k in range(3):
            assert truncation_consistency(make(), k).ok
    for k in (1, 2):
        assert truncation_consistency(chain_Hprime(), k).ok


def test_truncation_consistency_ladders():
    for k in range(7):
        assert truncation_consistency(chain_ladder(), k).ok
    for k in range(1, 7):
        assert truncation_consistency(chain_double_ladder(), k).ok


def test_prefix_counts_monotone():
    for make in (chain_G, chain_H, chain_ladder):
        counts = prefix_counts(make(), 8)
        assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert prefix_counts(chain_H(), 8) == [2] * 9
    # recurrent branching makes the chain_G prefix counts grow without bound
    g = prefix_counts(chain_G(), 8)
    assert g[-1] > g[0]


def test_end_degrees():
    assert end_degree(chain_G()) == 3
    assert end_degree(chain_H()) == 3
    assert end_degree(chain_ladder()) == 2
    assert end_degree(chain_Hprime(), "left") == 3
    assert end_degree(chain_Hprime(), "right") == 3
    assert end_degree(chain_double_ladder(), "left") == 2


@pytest.mark.parametrize(
    "make, end", [(chain_H, "bogus"), (chain_H, "left"), (chain_Hprime, "up")]
)
def test_end_degree_refuses_an_end_the_chain_lacks(make, end):
    with pytest.raises(ChainError, match=f"has no '{end}' end"):
        end_degree(make(), end)


def test_windows_are_built_once_per_chain(monkeypatch):
    built = []
    real = chains.truncation_minor
    monkeypatch.setattr(chains, "truncation_minor", lambda c, k: built.append(k) or real(c, k))
    # end degrees are max flows on the pieces' own edge lists: no window
    chain = chain_Hprime()
    assert (end_degree(chain, "left"), end_degree(chain, "right")) == (3, 3)
    assert end_degree(chain_H()) == 3
    assert built == []
    # level 0 is the initial piece's segment: counting, certificates and
    # witnesses of a Finite and an Infinite chain build no window either
    chain = chain_H()
    assert len(count_limit_hamilton_cycles(chain).certificates) == 2
    assert initial_vector(chain) == {S01: 0, S02: 2, S12: 4}
    assert len(witness_two_cycles(chain)) == len(witness_two_cycles(chain_G())) == 2
    assert built == []


@pytest.mark.parametrize("make", ALL_CHAINS.values(), ids=list(ALL_CHAINS))
def test_one_segment_search_per_piece(monkeypatch, make):
    searched = []
    real = chains.count_by_trace
    monkeypatch.setattr(chains, "count_by_trace", lambda G, groups: searched.append(G) or real(G, groups))
    chain = make()
    count_limit_hamilton_cycles(chain)
    tails = [chain.tail] if isinstance(chain, OneEndedChain) else [chain.left, chain.right]
    pieces = {id(piece) for tail in tails for piece in tail.pre + tail.period}
    # every slot and side that holds a piece object shares its one search;
    # a one-ended chain also counts its level-0 window
    assert len(searched) == len(pieces) + isinstance(chain, OneEndedChain)


@pytest.mark.parametrize("name, lists", [("chain-G", False), ("chain-H", True)])
def test_analyze_lists_cycles_only_for_certificates(monkeypatch, capsys, name, lists):
    calls = []
    real = hamilton.enumerate_hamilton_cycles

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(chains, "enumerate_hamilton_cycles", counted)
    monkeypatch.setattr(hamilton, "enumerate_hamilton_cycles", counted)
    assert cli.main(["chain", "analyze", name]) == 0
    out = capsys.readouterr().out
    # an Infinite chain has no certificates, so nothing is listed
    assert ("Infinite" in out, bool(calls)) == (not lists, lists)


def test_chain_json_roundtrip():
    for make in ALL_CHAINS.values():
        chain = make()
        again = chain_from_json(chain_to_json(chain))
        assert chain_to_json(again) == chain_to_json(chain)
        assert str(count_limit_hamilton_cycles(again)) == str(
            count_limit_hamilton_cycles(chain)
        )


def test_chain_json_rejects_unknown_mode():
    with pytest.raises(ChainError):
        chain_from_json('{"mode": "three-ended"}')


@pytest.mark.parametrize(
    "text",
    [
        '{"mode": "one-ended", "pieces": {}}',
        '{"mode": "two-ended", "left": 3, "interfaces": {"central": []}, "right": {}}',
        '[1, 2]',
        '{"mode": "one-ended", "pieces": {"initial": {"graph": {"vertices": [], "edges": []},'
        ' "left_ports": [["a"]], "right_ports": []}}, "interfaces": {"entry": []}, "tail": {}}',
    ],
)
def test_chain_json_rejects_malformed_documents(text):
    with pytest.raises(ChainError, match="malformed chain JSON"):
        chain_from_json(text)


def test_chain_json_name_must_be_a_string():
    doc = json.loads(chain_to_json(chain_ladder()))
    doc["name"] = {"a": [1]}
    with pytest.raises(ChainError, match="name"):
        chain_from_doc(doc)
    del doc["name"]
    assert chain_from_doc(doc).name == ""


def _ladder_entry(tail) -> OneEndedChain:
    return OneEndedChain(chain_ladder().initial, (("ru", "a.lu"), ("rl", "a.ll")), tail)


def test_right_tail_is_checked_in_its_own_orientation():
    # a right tail alternating two rungs with stub names of their own: its
    # junctions pair piece j with piece j+1, as on a one-ended chain
    chain, plain = alternating_double_ladder(), chain_double_ladder()
    result, expected = count_limit_hamilton_cycles(chain), count_limit_hamilton_cycles(plain)
    assert (str(result), result.count) == (str(expected), expected.count) == ("Finite(1)", 1)
    for end in ("left", "right"):
        assert end_degree(chain, end) == end_degree(plain, end)
    for n in range(-3, 3):
        assert transfer_layer(chain, n).matrix() == transfer_layer(plain, n).matrix(), n
    for k in (1, 2, 3):
        assert truncation_consistency(chain, k).ok, k
        assert all(validate_certificate(chain, cert, k) for cert in result.certificates), k
    one_ended = count_limit_hamilton_cycles(_ladder_entry(alternating_tail()))
    assert str(one_ended) == str(count_limit_hamilton_cycles(chain_ladder())) == "Finite(2)"


def test_swapped_right_tail_junctions_refused():
    # junctions written as on a left tail (piece j+1 before piece j)
    with pytest.raises(ChainError, match="interface does not match"):
        alternating_double_ladder(swapped=True)
    with pytest.raises(ChainError, match="interface does not match"):
        _ladder_entry(alternating_tail(swapped=True))


def test_interface_size_four_refused():
    # cubic pieces: a tail piece of two edges, each end with a stub either
    # side, and an initial 4-cycle with one stub at each vertex
    xs = [f"x{i}" for i in range(4)]
    ports_l = tuple((f"l{i}", x) for i, x in enumerate(xs))
    ports_r = tuple((f"r{i}", x) for i, x in enumerate(xs))
    piece = ChainPiece(MultiGraph(xs, [("a", "x0", "x1"), ("b", "x2", "x3")]), ports_l, ports_r)
    ring = [(f"c{i}", x, xs[i - 1]) for i, x in enumerate(xs)]
    initial = ChainPiece(MultiGraph(xs, ring), (), ports_r)
    iface = tuple((f"r{i}", f"l{i}") for i in range(4))
    with pytest.raises(ChainError, match="interface size 4 unsupported"):
        OneEndedChain(initial, iface, Tail((), (piece,), (), (iface,)))


def test_nonsimple_segment_refused():
    # both left stubs on x: the segment minor joins x to alpha twice
    graph = MultiGraph(("x", "y"), [("xy", "x", "y")])
    piece = ChainPiece(graph, (("l1", "x"), ("l2", "x")), (("r1", "y"), ("r2", "y")))
    digon = MultiGraph(("a", "b"), [("ab1", "a", "b"), ("ab2", "a", "b")])
    initial = ChainPiece(digon, (), (("r1", "a"), ("r2", "b")))
    iface = (("r1", "l1"), ("r2", "l2"))
    chain = OneEndedChain(initial, iface, Tail((), (piece,), (), (iface,)))
    with pytest.raises(ChainError, match="segment minor at level 0 is not simple"):
        segment_minor(chain, 0)
    with pytest.raises(ChainError, match="segment minor is not simple"):
        transfer_layer(chain, 0)


def test_initial_piece_need_not_be_simple():
    # the initial piece's minor is the level-0 window, which was never
    # required simple: a digon on the ladder's tail is a chain, and each of
    # its two edges closes the one ladder ray
    ladder = chain_ladder()
    digon = MultiGraph(("u1", "l1"), [("d_1", "u1", "l1"), ("d_2", "u1", "l1")])
    initial = ChainPiece(digon, (), ladder.initial.right_ports)
    chain = OneEndedChain(initial, ladder.entry_iface, ladder.tail)
    result = count_limit_hamilton_cycles(chain)
    assert (str(result), initial_vector(chain), end_degree(chain)) == ("Finite(2)", {S01: 2}, 2)
    assert all(truncation_consistency(chain, k).ok for k in range(4))


def test_non_cubic_piece_refused():
    # the ladder with its foot edge o_m doubled: o and m have degree 4
    graph = chain_ladder().initial.graph
    edges = [(e.label, e.u, e.v) for e in graph.edges] + [("o_m2", "o", "m")]
    with pytest.raises(ChainError, match="piece vertex 'o' has degree 4"):
        ChainPiece(MultiGraph(graph.vertices, edges), (), chain_ladder().initial.right_ports)


def test_truncation_labels_follow_levels():
    G = truncation_minor(chain_ladder(), 1)
    labels = {e.label for e in G.edges}
    assert {"e_1@0", "ru@0", "rl@0", "u_l@1", "ru@1", "rl@1"} <= labels


def test_mismatched_interface_rejected():
    graph = MultiGraph(("x", "y"), [("xy", "x", "y")])
    piece = ChainPiece(graph, (("lu", "x"), ("ll", "y")), (("ru", "x"), ("rl", "y")))
    digon = MultiGraph(("x", "y"), [("xy1", "x", "y"), ("xy2", "x", "y")])
    initial = ChainPiece(digon, (), (("ru", "x"), ("rl", "y")))
    with pytest.raises(ChainError, match="interface does not match left boundary"):
        OneEndedChain(
            initial,
            (("ru", "nope"), ("rl", "ll")),
            Tail((), (piece,), (), ((("ru", "lu"), ("rl", "ll")),)),
        )


def test_transfer_dot_renders_levels():
    dot = transfer_dot(chain_G(), 2)
    assert dot.startswith("graph")
    assert "F0:" in dot and "F2:" in dot
    dot2 = transfer_dot(chain_double_ladder(), 1)
    assert "F-1:" in dot2


@pytest.mark.parametrize("levels", [1, 3])
@pytest.mark.parametrize("name", sorted(BUILTIN_CHAINS))
def test_transfer_dot_is_one_layered_graph(monkeypatch, name, levels):
    # one node per state at each cut, edges only between adjacent cuts, and
    # edges drawn from the layer counts without listing a cycle
    def refuse(*args, **kwargs):
        raise AssertionError("transfer_dot listed Hamilton cycles")

    monkeypatch.setattr(chains, "enumerate_hamilton_cycles", refuse)
    chain = BUILTIN_CHAINS[name]()
    dot = transfer_dot(chain, levels)
    nodes = re.findall(r'^  "(F-?\d+:[^"]*)";$', dot, re.M)
    edges = re.findall(r'^  "([^"]*)" -- "([^"]*)";$', dot, re.M)
    assert len(dot.splitlines()) == 3 + len(nodes) + len(edges)
    cuts = levels + 1 if isinstance(chain, OneEndedChain) else 2 * levels + 1
    assert len(set(nodes)) == len(nodes) == cuts * len(chain._directions["right"].states)
    level = {node: int(node[1 : node.index(":")]) for node in nodes}
    assert edges and all(u in level and v in level for u, v in edges)
    assert all(level[v] == level[u] + 1 for u, v in edges)


@pytest.mark.parametrize(
    "make, expected",
    [
        (chain_H, "chain_H: 0 certificates from the seed states {0,2} at cut 0, "
         "but the classification counts 2 limit cycles"),
        (chain_double_ladder, "chain_double_ladder: 0 x 0 certificates through the central "
         "state {0,1} at cut 0, but the classification counts 1 x 1 limit cycles there"),
    ],
    ids=["one-ended", "two-ended"],
)
def test_defect_messages_name_chain_state_and_counts(monkeypatch, make, expected):
    # certificates fewer than the count: no ray continues from any seed
    monkeypatch.setattr(chains._Direction, "rays", lambda self, j, s, unique=False: iter(()))
    with pytest.raises(RuntimeError, match="defect") as exc:
        count_limit_hamilton_cycles(make())
    assert expected in str(exc.value)


@pytest.mark.parametrize(
    "make, expected",
    [
        (chain_H, "chain_H, right ray: recurrent state {0,2} at cut 1 has 2 continuations"),
        (chain_double_ladder, "chain_double_ladder, left ray: recurrent state {0,1} at cut 1"
         " has 2 continuations"),
    ],
    ids=["one-ended", "two-ended"],
)
def test_defect_messages_name_a_recurrent_branching_state(monkeypatch, make, expected):
    # every cycle listed twice: the counts still say Finite, but a state in
    # a certificate's period now continues two ways
    choices = chains._Direction.choices
    monkeypatch.setattr(
        chains._Direction,
        "choices",
        lambda self, j, s: [(t, cycles * 2) for t, cycles in choices(self, j, s)],
    )
    with pytest.raises(RuntimeError, match="defect") as exc:
        count_limit_hamilton_cycles(make())
    assert expected in str(exc.value)
