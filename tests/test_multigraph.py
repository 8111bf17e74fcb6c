import dataclasses
import json
import random

import networkx as nx
import pytest

from cubicham import (
    EdgeRecord,
    GraphError,
    MultiGraph,
    from_doc,
    from_json,
    k4,
    petersen,
    quotient,
    relabel_vertices,
)
from cubicham.multigraph import _dumps
from util import dot_tokens, max_vertex_disjoint_paths, min_edge_cut


def test_basic_construction():
    G = MultiGraph(["a", "b", "c"], [("ab", "a", "b"), ("bc", "b", "c"), ("ca", "c", "a")])
    assert G.n == 3 and G.m == 3
    assert G.degree("a") == 2
    assert G.is_simple() and G.is_connected()
    assert not G.is_cubic()
    assert G.edge_by_label("ab").ends == ("a", "b")


def test_duplicate_labels_rejected():
    with pytest.raises(GraphError):
        MultiGraph(["a", "a"], [])
    with pytest.raises(GraphError):
        MultiGraph(["a", "b"], [("e", "a", "b"), ("e", "b", "a")])


def test_edge_to_missing_vertex_rejected():
    with pytest.raises(GraphError):
        MultiGraph(["a"], [("e", "a", "b")])


def test_loop_counts_twice_for_degree():
    G = MultiGraph(["a", "b"], [("loop", "a", "a"), ("ab", "a", "b")])
    assert G.degree("a") == 3
    assert G.degree("b") == 1
    # the loop appears once in the incidence list
    assert len(G.edges_at("a")) == 2
    assert not G.is_simple()


def test_parallel_edges():
    G = MultiGraph(["a", "b"], [("p1", "a", "b"), ("p2", "a", "b")])
    assert G.degree("a") == 2
    assert not G.is_simple()


def test_nearly_cubic():
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
    assert G.is_nearly_cubic()
    assert not G.is_cubic()


def test_json_roundtrip():
    G = petersen()
    doc = json.loads(G.to_json())
    assert {v["label"] for v in doc["vertices"]} == set(G.vertices)
    G2 = from_json(G.to_json())
    assert G2.vertices == G.vertices
    assert [(e.label, e.u, e.v) for e in G2.edges] == [(e.label, e.u, e.v) for e in G.edges]


def test_quotient_merges_to_earliest_label():
    G = MultiGraph(["a", "b", "c"], [("ab", "a", "b"), ("bc", "b", "c")])
    Q = quotient(G, [("b", "c")])
    assert set(Q.vertices) == {"a", "b"}
    assert Q.edge_by_label("bc").ends == ("b", "b")  # becomes a loop


def test_relabel_union_delete_add():
    G = MultiGraph(["a", "b"], [("ab", "a", "b")])
    R = relabel_vertices(G, {"a": "x"})
    assert set(R.vertices) == {"x", "b"}


def test_min_edge_cut_and_disjoint_paths():
    G = k4()
    assert min_edge_cut(G, ["1"], "3") == 3
    P = petersen()
    assert min_edge_cut(P, ["o0"], "i2") == 3
    assert max_vertex_disjoint_paths(P, ["o0"], "i2") == 3
    # isolating the sink is the cheapest cut
    assert min_edge_cut(P, ["o0", "o1", "i0"], "i2") == 3


def test_min_cut_ladder_like():
    G = MultiGraph(
        ["a", "b", "c", "d"],
        [("ab", "a", "b"), ("bc", "b", "c"), ("cd", "c", "d"), ("da", "d", "a")],
    )
    assert min_edge_cut(G, ["a"], "c") == 2
    assert max_vertex_disjoint_paths(G, ["a"], "c") == 2


# a faulty graph -> the message naming its first fault, the same from
# `MultiGraph(...)` and from the graph's document
GRAPH_FAULTS = {
    "duplicate vertex": (["a", "b", "a"], [("e", "a", "b")], "duplicate vertex label"),
    "unknown first end": (
        ["a", "b"], [("e", "a", "b"), ("f", "z", "b")], "unknown endpoint label 'z'"
    ),
    "unknown second end": (["a", "b"], [("e", "a", "z")], "unknown endpoint label 'z'"),
    "duplicate edge label": (
        ["a", "b"], [("e", "a", "b"), ("e", "b", "a")], "duplicate edge label 'e'"
    ),
    # edge 1's default label is _e1, as its document writes it
    "explicit _e1 and a default": (
        ["a", "b"], [("_e1", "a", "b"), (None, "a", "b")], "duplicate edge label '_e1'"
    ),
    "non-string vertex": (["a", 1], [("e", "a", 1)], "label or end 1 is not a string"),
    "non-string edge label": (
        ["a", "b"], [("e", "a", "b"), (2, "a", "b")], "label or end 2 is not a string"
    ),
    "non-string end": (["a", "b"], [("e", "a", 1)], "label or end 1 is not a string"),
    "unhashable vertex": ([["a"]], [], "label or end ['a'] is not a string"),
    "unhashable edge label": (["a"], [({}, "a", "a")], "label or end {} is not a string"),
    "unhashable end": (["a", "b"], [("e", ["a"], "b")], "label or end ['a'] is not a string"),
    # the first fault in the order `_refuse` walks
    "non-string first": (["a", "a"], [("e", "a", None)], "label or end None is not a string"),
    "vertices first": (
        ["a", "a"], [("e", "a", "z"), ("e", "a", "a")], "duplicate vertex label"
    ),
    "ends before label": (["a"], [("e", "a", "a"), ("e", "a", "z")], "unknown endpoint label 'z'"),
}


@pytest.mark.parametrize("fault", list(GRAPH_FAULTS))
def test_one_checker_for_graphs_and_documents(fault):
    vertices, edges, message = GRAPH_FAULTS[fault]
    doc = {
        "vertices": [{"label": v} for v in vertices],
        "edges": [
            {"label": f"_e{i}" if label is None else label, "ends": [u, v]}
            for i, (label, u, v) in enumerate(edges)
        ],
    }
    for build in (lambda: MultiGraph(vertices, edges), lambda: from_doc(doc)):
        with pytest.raises(GraphError) as exc:
            build()
        assert str(exc.value) == message


def test_transforms_refuse_non_string_labels():
    with pytest.raises(GraphError, match="label or end 1 is not a string"):
        relabel_vertices(k4(), {"1": 1})
    # a graph with a label that is not a string, for `quotient` to copy, is
    # refused when it is built
    with pytest.raises(GraphError, match="label or end 1 is not a string"):
        quotient(MultiGraph(["a", 1], [("e", "a", 1)]), [("a", 1)])


# an unhashable label names no vertex or edge: a GraphError that names it,
# not the dict's bare TypeError
def test_edges_at_refuses_an_unhashable_label():
    G = k4()
    for query in (G.edges_at, G.degree):
        with pytest.raises(GraphError, match=r"unknown vertex \['1'\]"):
            query(["1"])
    assert ["1"] not in G


def test_edge_by_label_refuses_an_unhashable_label():
    with pytest.raises(GraphError, match=r"unknown edge label \['12'\]"):
        k4().edge_by_label(["12"])


def test_quotient_refuses_an_unhashable_label():
    with pytest.raises(GraphError, match=r"unknown label \['1'\]"):
        quotient(k4(), [(["1"], "2")])
    with pytest.raises(GraphError, match=r"unknown label \['2'\]"):
        quotient(k4(), [("1", ["2"])])


def test_each_edge_is_one_triple():
    for edge in (("e", "a"), ("e", "a", "b", "c")):
        with pytest.raises(GraphError, match="is not a \\(label, u, v\\) triple"):
            MultiGraph(["a", "b"], [("f", "a", "b"), edge])


def test_subclasses_of_str_are_strings():
    # as in graph documents (`test_from_doc_reads_what_from_json_reads`)
    class Label(str):
        pass

    G = MultiGraph([Label("a"), "b"], [(Label("e"), "a", Label("b"))])
    assert G.to_json() == MultiGraph(["a", "b"], [("e", "a", "b")]).to_json()


def test_edge_record_is_immutable():
    e = k4().edges[0]
    for name in ("id", "label", "u", "v"):
        with pytest.raises((AttributeError, dataclasses.FrozenInstanceError)):
            setattr(e, name, getattr(e, name))
    assert isinstance(e, EdgeRecord)
    assert e.ends == (e.u, e.v) and not e.is_loop()
    assert e.other_end(e.u) == e.v and e.other_end(e.v) == e.u


def test_from_doc_reads_what_from_json_reads():
    P = petersen()
    G = from_doc(json.loads(P.to_json()))
    assert G.to_json() == P.to_json() == json.dumps(P.to_doc(), indent=2)
    for doc in ([1, 2], {"vertices": [{"label": "a"}]}, {"vertices": [{}], "edges": []},
                {"vertices": [{"label": "a"}], "edges": [{"label": "x", "ends": ["a"]}]},
                # ends must be a list of exactly two
                {"vertices": [{"label": "a"}, {"label": "b"}], "edges": [{"label": "x", "ends": "ab"}]},
                {"vertices": [{"label": "a"}, {"label": "b"}],
                 "edges": [{"label": "x", "ends": ["a", "b", "zzz"]}]}):
        with pytest.raises(GraphError, match="malformed graph JSON"):
            from_doc(doc)
    # labels and ends that are not strings: `test_one_checker_for_graphs_and_documents`
    # subclasses of str and list are strings and lists
    class Label(str):
        pass

    class Ends(list):
        pass

    doc = P.to_doc()
    doc["vertices"][0]["label"] = Label(doc["vertices"][0]["label"])
    doc["edges"][0]["ends"] = Ends(map(Label, doc["edges"][0]["ends"]))
    assert from_doc(doc).to_json() == P.to_json()


def _random_flow_case(rng: random.Random):
    """A multigraph with loops and parallel edges, some sources and a sink."""
    n = rng.randint(2, 9)
    vs = [f"v{i}" for i in range(n)]
    edges = []
    for _ in range(rng.randint(0, 3 * n)):
        u = rng.choice(vs)
        v = u if rng.random() < 0.1 else rng.choice(vs)
        edges.append((None, u, v))
        if rng.random() < 0.2:
            edges.append((None, v, u))  # a parallel edge
    sink = rng.choice(vs)
    sources = rng.sample([v for v in vs if v != sink], rng.randint(1, min(3, n - 1)))
    return MultiGraph(vs, edges), sources, sink


def _nx_max_flow(arcs, sources, sink) -> int:
    D = nx.DiGraph()
    for u, v in arcs:
        if D.has_edge(u, v):
            D[u][v]["capacity"] += 1
        else:
            D.add_edge(u, v, capacity=1)
    D.add_nodes_from([sink, "__root__"])
    for s in sources:
        D.add_edge("__root__", s)  # no capacity: unbounded
    return nx.maximum_flow_value(D, "__root__", sink)


@pytest.mark.parametrize("seed", range(60))
def test_flows_match_networkx(seed):
    G, sources, sink = _random_flow_case(random.Random(seed))
    proper = [e for e in G.edges if not e.is_loop()]
    arcs = [(e.u, e.v) for e in proper] + [(e.v, e.u) for e in proper]
    assert min_edge_cut(G, sources, sink) == _nx_max_flow(arcs, sources, sink)

    free = set(sources) | {sink}

    def enter(v):
        return v if v in free else (v, "in")

    def leave(v):
        return v if v in free else (v, "out")

    split = [(enter(v), leave(v)) for v in G.vertices if v not in free]
    arcs = split + [(leave(e.u), enter(e.v)) for e in proper]
    arcs += [(leave(e.v), enter(e.u)) for e in proper]
    assert max_vertex_disjoint_paths(G, sources, sink) == _nx_max_flow(arcs, sources, sink)


def test_dot_escapes_quotes_and_backslashes():
    # a quote or a backslash in a label must neither end its quoted string
    # nor make two distinct labels read alike
    vertices = ['a"b', 'a\\"b', "a\\", "a", '"']
    edges = [(f"{u}|{v}", u, v) for u, v in zip(vertices, vertices[1:])]
    lines = MultiGraph(vertices, edges).to_dot().splitlines()
    assert (lines[0], lines[-1]) == ("graph G {", "}")
    assert [dot_tokens(line) for line in lines[1:-1]] == (
        [[v] for v in vertices] + [[u, v, label] for label, u, v in edges]
    )


# strings that the writer must escape as `json` does: quotes, backslashes,
# control characters, U+2028, a non-BMP character, lone surrogates
AWKWARD = ['"', "\\", "\x00", "\x1f", "\n", "\t", " ", "\U0001f600", "\ud800", "\udfff", "é"]
NUMBERS = [0, -1, 10**40, -(10**60), 2**63, True, False, None]
FLOATS = [0.0, -0.0, 1.5, -2.25e-300, 1e308, float("nan"), float("inf"), float("-inf")]


def _random_string(rng: random.Random) -> str:
    return "".join(rng.choice(AWKWARD + list("abz09 ")) for _ in range(rng.randint(0, 6)))


def _random_doc(rng: random.Random, depth: int):
    """A nested document of every kind `json` writes: strings, ints, floats,
    bools, None, lists, tuples, dicts and lists of records, some of them
    empty; one dict in ten has a key that is not a string."""
    kind = rng.randrange(9 if depth else 4)
    if kind == 8:
        return _random_records(rng)
    if kind == 0:
        return _random_string(rng)
    if kind == 1:
        return rng.choice(NUMBERS + [rng.randint(-(10**20), 10**20)])
    if kind == 2:
        return rng.choice(FLOATS + [rng.uniform(-1e6, 1e6)])
    if kind == 3:
        return [_random_string(rng) for _ in range(rng.randint(0, 4))]
    items = [_random_doc(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    if kind in (4, 5):
        return items if kind == 4 else tuple(items)
    doc = {_random_string(rng): item for item in items}
    if rng.random() < 0.1:
        doc[rng.choice([7, -2.5, True, None])] = rng.choice(items or [0])
    return doc


def _random_records(rng: random.Random) -> list:
    """A list of dicts with the same keys, a graph's vertices and edges
    among them: each key's values all strings or all lists of n strings,
    save where one record breaks the pattern (another value, length, key
    order or key)."""
    keys = rng.sample(["label", "ends", "%s", "b%", "é", ""], rng.randint(1, 3))
    widths = {k: rng.choice([None, None, 1, 2, 3]) for k in keys}

    def value(width):
        if width is None:
            return _random_string(rng)
        return [_random_string(rng) for _ in range(width)]

    records = [{k: value(widths[k]) for k in keys} for _ in range(rng.randint(1, 5))]
    flaw = rng.randrange(8)
    record, key = rng.choice(records), rng.choice(keys)
    if flaw == 0:
        record[key] = rng.choice([None, 3, [], ["a", 2], {"x": "y"}, ("a",)])
    elif flaw == 1:
        record[key] = value(rng.choice([None, 1, 4]))
    elif flaw == 2:
        record[key] = record.pop(key)  # the same keys in another order
    elif flaw == 3:
        record["extra"] = "x"
    return records


def _same_as_json(doc, sort_keys: bool) -> None:
    """`_dumps` writes `doc` as `json.dumps(indent=2)` does, or raises the
    same kind of error."""
    try:
        expected = json.dumps(doc, indent=2, sort_keys=sort_keys)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)):
            _dumps(doc, sort_keys)
    else:
        assert _dumps(doc, sort_keys) == expected


@pytest.mark.parametrize("seed", range(40))
def test_dumps_is_json_dumps_with_indent_2(seed):
    rng = random.Random(seed)
    for _ in range(25):
        doc = _random_doc(rng, rng.randint(0, 4))
        for sort_keys in (False, True):
            _same_as_json(doc, sort_keys)


def test_dumps_hands_what_it_does_not_cover_to_json():
    class Name(str):
        pass

    class Count(int):
        pass

    circular: list = []
    circular.append(circular)
    for doc in (
        {1: "a", 2.5: "b", None: [], False: {}},  # keys that are not strings
        {"a": 1, 2: "b"},  # mixed keys, which do not sort
        {Name("n"): Name("v")},  # subclasses of str
        [Count(3), {"k": Count(-4)}],  # a subclass of int
        dataclasses.make_dataclass("D", [])(),  # a type json does not write
        {"set": {1, 2}},
        circular,
        "top-level   string",
        7,
        [[[[[]]]], {}, ()],
    ):
        for sort_keys in (False, True):
            _same_as_json(doc, sort_keys)
