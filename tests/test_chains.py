import json
import re

import pytest

from cubicham import chains, cli, hamilton
from cubicham import (
    BUILTIN_CHAINS,
    ChainError,
    ChainPiece,
    GraphError,
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
from util import alternating_double_ladder, alternating_tail, dot_tokens

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
    # the count comes from the analysis; listing the certificates must
    # give exactly that many
    for name in ("H", "Hprime", "ladder", "double_ladder"):
        result = count_limit_hamilton_cycles(ALL_CHAINS[name]())
        assert len(list(result.certificates)) == len(result.certificates) == result.count


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
    # windows are counted by the memoized search, so deep levels are cheap:
    # enumerating chain-G's cycles one by one to depth 14 took about 16 s
    for make, depth in ((chain_G, 14), (chain_H, 30)):
        chain = make()
        for k in range(depth + 1):
            assert truncation_consistency(chain, k).ok, (make.__name__, k)
    chain = chain_Hprime()
    for k in range(1, 15):
        assert truncation_consistency(chain, k).ok, k


def test_truncation_consistency_ladders():
    for k in range(7):
        assert truncation_consistency(chain_ladder(), k).ok
    for k in range(1, 7):
        assert truncation_consistency(chain_double_ladder(), k).ok


def _doubled(make, piece):
    """A fresh chain with the last entry of one piece's segment counts
    doubled before any layer is read from them; `piece` picks the piece.
    (On both chains below, the first entry joins states that no window
    cycle uses, so doubling it changes no prediction.)"""
    chain = make()
    counts = piece(chain)._counts
    counts[list(counts)[-1]] *= 2
    return chain


# chains whose transfer predictions are wrong: the piece whose counts are doubled
DOUBLED = {
    "chain-H": (chain_H, lambda chain: chain.tail.period[0]),
    "chain-Hprime": (chain_Hprime, lambda chain: chain.left.period[0]),
}


@pytest.mark.parametrize("name", list(DOUBLED))
def test_truncation_consistency_can_fail(monkeypatch, capsys, name):
    # the brute force counts each window on its own glued graph, so a
    # wrong layer entry must show as a mismatch within a few levels
    chain = _doubled(*DOUBLED[name])
    first = 0 if isinstance(chain, OneEndedChain) else 1
    reports = [truncation_consistency(chain, k) for k in range(first, 4)]
    assert not all(report.ok for report in reports)
    bad = next(report for report in reports if not report.ok)
    assert bad.predicted != bad.actual
    monkeypatch.setitem(BUILTIN_CHAINS, name, lambda: _doubled(*DOUBLED[name]))
    assert cli.main(["chain", "check", name, "--depth", "3"]) == 1
    assert "MISMATCH" in capsys.readouterr().out


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
    real = chains._trace_counts
    monkeypatch.setattr(
        chains, "_trace_counts", lambda graph, groups: searched.append(graph) or real(graph, groups)
    )
    chain = make()
    count_limit_hamilton_cycles(chain)
    tails = [chain.tail] if isinstance(chain, OneEndedChain) else [chain.left, chain.right]
    pieces = {id(piece) for tail in tails for piece in tail.pre + tail.period}
    # every slot and side that holds a piece object shares its one search;
    # a one-ended chain also counts its level-0 window
    assert len(searched) == len(pieces) + isinstance(chain, OneEndedChain)


@pytest.mark.parametrize("make", ALL_CHAINS.values(), ids=list(ALL_CHAINS))
def test_analysis_builds_no_labeled_minor(monkeypatch, make):
    # pieces are tabulated and cut from their integer form: classifying a
    # chain, certificates included, and its end degrees build no minor
    built = []
    real = chains.materialize
    monkeypatch.setattr(
        chains, "materialize", lambda *args, **kw: built.append(1) or real(*args, **kw)
    )
    chain = make()
    count_limit_hamilton_cycles(chain)
    for end in chain.sides:
        end_degree(chain, end)
    assert built == []


@pytest.mark.parametrize("name, lists", [("chain-G", False), ("chain-H", True)])
def test_analyze_lists_cycles_only_for_certificates(monkeypatch, capsys, name, lists):
    calls = []
    real = hamilton._sorted_cycles

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    # every listing of cycles, of a labeled graph or a piece's integer
    # minor, goes through `_sorted_cycles`
    monkeypatch.setattr(chains, "_sorted_cycles", counted)
    monkeypatch.setattr(hamilton, "_sorted_cycles", counted)
    assert cli.main(["chain", "analyze", name]) == 0
    out = capsys.readouterr().out
    # the count comes from the analysis, so nothing is listed; listing the
    # certificates of a Finite chain lists cycles, an Infinite one has none
    assert ("Infinite" in out, calls) == (not lists, [])
    certs = list(count_limit_hamilton_cycles(BUILTIN_CHAINS[name]()).certificates)
    assert (bool(certs), bool(calls)) == (lists, lists)


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


def _restubbed(doc: dict, rename) -> dict:
    """A chain document with every stub renamed by `rename`, in the ports
    and the matchings alike."""

    def ports(piece):
        for key in ("left_ports", "right_ports"):
            piece[key] = [[rename(stub), v] for stub, v in piece[key]]

    def matching(pairs):
        return [[rename(a), rename(b)] for a, b in pairs]

    one_ended = doc["mode"] == "one-ended"
    for tail in [doc["tail"]] if one_ended else [doc["left"], doc["right"]]:
        for piece in tail["pre_period"] + tail["period"]:
            ports(piece)
        for key in ("entry_interfaces", "period_interfaces"):
            tail[key] = [matching(pairs) for pairs in tail[key]]
    if one_ended:
        ports(doc["pieces"]["initial"])
    key = "entry" if one_ended else "central"
    doc["interfaces"][key] = matching(doc["interfaces"][key])
    return doc


def _ladder_doc(rename) -> dict:
    """chain-ladder's document with its stubs renamed by `rename`."""
    return _restubbed(json.loads(chain_to_json(chain_ladder())), rename)


def _letter_ladder(key: str, value) -> dict:
    """chain-ladder's document with its stubs lu, ll, ru and rl named c, d,
    a and b, and `value` at `key` in its period: "ports" for the period
    piece's left ports, "matching" for the period matching."""
    doc = _ladder_doc({"lu": "c", "ll": "d", "ru": "a", "rl": "b"}.get)
    if key == "ports":
        doc["tail"]["period"][0]["left_ports"] = value
    else:
        doc["tail"]["period_interfaces"] = [value]
    return doc


# chain documents whose ports or matchings are not lists of two strings;
# the strings would read as pairs that give chain-ladder back
MALFORMED_PAIRS = {
    "integer stubs": lambda: _ladder_doc({"lu": 1, "ll": 2, "ru": 3, "rl": 4}.get),
    "strings for ports": lambda: _letter_ladder("ports", ["cu", "dl"]),
    "strings for a matching": lambda: _letter_ladder("matching", ["ac", "bd"]),
    "three strings for a pair": lambda: _letter_ladder("ports", [["c", "u", "x"], ["d", "l"]]),
}


@pytest.mark.parametrize(
    "text",
    [
        *(pytest.param(json.dumps(make()), id=fault) for fault, make in MALFORMED_PAIRS.items()),
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


def _set(path, value):
    """A change to chain-G's period piece document: the value at `path`."""

    def change(piece):
        *keys, last = path
        for key in keys:
            piece = piece[key]
        piece[last] = value

    return change


# faults in a piece document -> the error reading it raises, with the
# message `MultiGraph` or `ChainPiece` gives for the same fault
MALFORMED_PIECES = {
    "non-string label": (
        _set(["graph", "vertices", 0, "label"], 7),
        GraphError, "label or end 7 is not a string",
    ),
    "duplicate vertex": (
        _set(["graph", "vertices", 1, "label"], "x"), GraphError, "duplicate vertex label"
    ),
    "duplicate edge": (
        _set(["graph", "edges", 1, "label"], "x_p"), GraphError, "duplicate edge label 'x_p'"
    ),
    "unknown endpoint": (
        _set(["graph", "edges", 0, "ends"], ["x", "zzz"]),
        GraphError, "unknown endpoint label 'zzz'",
    ),
    "port vertex missing": (
        _set(["left_ports", 0], ["e_x", "zzz"]), ChainError, "port vertex 'zzz' not in piece"
    ),
    "duplicate stub": (
        _set(["right_ports", 0], ["e_x", "a"]),
        ChainError, "stub labels must be unique within a piece",
    ),
    "stub collides": (
        _set(["left_ports", 0], ["x_p", "x"]),
        ChainError, "stub 'x_p' collides with an interior edge label",
    ),
    # x_p becomes a loop at x, which then has degree 2 + 1 + its stub
    "loop counts 2": (
        _set(["graph", "edges", 0, "ends"], ["x", "x"]),
        ChainError, "piece vertex 'x' has degree 4 with its stubs, not 3",
    ),
}


@pytest.mark.parametrize("fault", list(MALFORMED_PIECES))
def test_malformed_piece_documents_are_refused(tmp_path, capsys, fault):
    change, error, message = MALFORMED_PIECES[fault]
    doc = json.loads(chain_to_json(chain_G()))
    change(doc["tail"]["period"][0])
    with pytest.raises(error) as exc:
        chain_from_doc(doc)
    assert (type(exc.value), str(exc.value)) == (error, message)
    target = tmp_path / "bad.json"
    target.write_text(json.dumps(doc))
    assert cli.main(["chain", "analyze", str(target)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("fault", list(MALFORMED_PAIRS))
@pytest.mark.parametrize(
    "argv",
    [
        ["chain", "analyze"],
        ["--format", "json", "chain", "analyze"],
        ["chain", "check"],
        ["export-dot"],
    ],
    ids=["analyze", "analyze-json", "check", "export-dot"],
)
def test_malformed_pairs_are_usage_errors(tmp_path, capsys, fault, argv):
    # exit 1 is kept for a checked property failing, and a crash is no answer
    target = tmp_path / "bad.json"
    target.write_text(json.dumps(MALFORMED_PAIRS[fault]()))
    assert cli.main([*argv, str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "malformed chain JSON" in err and "is not a list of two strings" in err


def test_stubs_must_be_strings():
    graph = MultiGraph(("u", "l"), [("u_l", "u", "l")])
    with pytest.raises(ChainError, match="stub 1 is not a string"):
        ChainPiece(graph, ((1, "u"), ("ll", "l")), (("ru", "u"), ("rl", "l")))


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


@pytest.mark.parametrize("make, cuts", [(chain_G, 3), (chain_Hprime, 5)])
def test_transfer_dot_escapes_quotes_and_backslashes(make, cuts):
    # stubs renamed with a quote and a backslash in front name the same
    # states as before, each in a quoted string of its own, all distinct
    prefix = '"\\'
    doc = _restubbed(json.loads(chain_to_json(make())), prefix.__add__)
    lines = transfer_dot(make(), 2).splitlines()
    renamed = transfer_dot(chain_from_doc(doc), 2).splitlines()
    assert len(renamed) == len(lines)
    for line, renamed_line in zip(lines, renamed):
        tokens = dot_tokens(line)
        expected = [t.replace("{", "{" + prefix).replace(",", "," + prefix) for t in tokens]
        assert dot_tokens(renamed_line) == expected, renamed_line
    nodes = [t for line in renamed if len(t := dot_tokens(line)) == 1]
    assert len({node for node, in nodes}) == len(nodes) == 3 * cuts


@pytest.mark.parametrize("levels", [1, 3])
@pytest.mark.parametrize("name", sorted(BUILTIN_CHAINS))
def test_transfer_dot_is_one_layered_graph(monkeypatch, name, levels):
    # one node per state at each cut, edges only between adjacent cuts, and
    # edges drawn from the layer counts without listing a cycle
    def refuse(*args, **kwargs):
        raise AssertionError("transfer_dot listed Hamilton cycles")

    monkeypatch.setattr(chains, "_sorted_cycles", refuse)
    monkeypatch.setattr(hamilton, "_sorted_cycles", refuse)
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
    result = count_limit_hamilton_cycles(make())
    with pytest.raises(RuntimeError, match="defect") as exc:
        list(result.certificates)
    assert expected in str(exc.value)
