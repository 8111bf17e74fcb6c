"""Labeled multigraph kernel.

Vertices are identified by their labels (unique strings); edges carry an
integer id (insertion order) plus a unique string label used for all
serialization.  Graphs are immutable after construction: every transform
returns a new graph with freshly assigned ids, preserving insertion order.
Loops contribute 2 to the degree of their vertex.

Every graph is built through `MultiGraph(...)`, a graph read from JSON
(`from_doc`) and a chain piece's labeled graph too.  The one checker of a
graph is `_checked`, the one graph-document reader `_read_doc`, and the
one JSON writer, for graph files, chain files and command replies,
`_dumps`; each docstring says how it works.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import NamedTuple, Sequence


Ints = tuple[int, list[tuple[int, int]]]  # a graph's vertex count and edge end indices


class GraphError(ValueError):
    """Malformed graph input or an operation precondition violation."""


class EdgeRecord(NamedTuple):
    """One edge; immutable. A named tuple, since graphs build many."""

    id: int
    label: str
    u: str
    v: str

    @property
    def ends(self) -> tuple[str, str]:
        return (self.u, self.v)

    def is_loop(self) -> bool:
        return self.u == self.v

    def other_end(self, vertex: str) -> str:
        if vertex == self.u:
            return self.v
        if vertex == self.v:
            return self.u
        raise GraphError(f"vertex {vertex!r} is not an end of edge {self.label!r}")


_U, _V = itemgetter(2), itemgetter(3)  # an `EdgeRecord`'s ends
_LABEL, _ENDS = itemgetter("label"), itemgetter("ends")  # in a graph document
_FIRST, _SECOND = itemgetter(0), itemgetter(1)  # a document edge's ends
_record = partial(tuple.__new__, EdgeRecord)  # no Python call per edge


class MultiGraph:
    """Finite multigraph with labeled vertices and edges, loops allowed."""

    __slots__ = ("vertices", "edges", "_index", "_incident", "_by_label", "_ints")

    def __init__(self, vertices: Sequence[str], edges: Sequence[tuple[str | None, str, str]]):
        vs = tuple(vertices)
        edges = tuple(edges)
        if not {3}.issuperset(map(len, edges)):
            bad = next(e for e in edges if len(e) != 3)
            raise GraphError(f"edge {bad!r} is not a (label, u, v) triple")
        labels, us, ws = (list(map(itemgetter(k), edges)) for k in range(3))
        if None in labels:
            labels = [f"_e{i}" if label is None else label for i, label in enumerate(labels)]
        self.vertices: tuple[str, ...] = vs
        # the position of each vertex in `vertices`
        self._index: dict[str, int] = _checked(vs, labels, us, ws)
        records = map(_record, zip(range(len(labels)), labels, us, ws))
        self.edges: tuple[EdgeRecord, ...] = tuple(records)
        # built on first use: the chain engine reads most graphs only in
        # integer form (`ints`), and never asks for these
        self._by_label: dict[str, EdgeRecord] | None = None
        self._incident: dict[str, tuple[int, ...]] | None = None
        self._ints: Ints | None = None

    # -- queries -----------------------------------------------------------

    def __contains__(self, vertex: str) -> bool:
        try:
            return vertex in self._index
        except TypeError:  # unhashable, so no label
            return False

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def ints(self) -> Ints:
        """The graph in integer form, which the Hamilton search reads: the
        vertex count and, per edge id, the positions of its two ends in
        `vertices`.  Computed on first use, once."""
        if self._ints is None:
            ends = _int_ends(self._index, map(_U, self.edges), map(_V, self.edges))
            self._ints = (len(self.vertices), ends)
        return self._ints

    def edge_by_label(self, label: str) -> EdgeRecord:
        if self._by_label is None:
            self._by_label = {e.label: e for e in self.edges}
        try:
            return self._by_label[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise GraphError(f"unknown edge label {label!r}") from None

    def edges_at(self, vertex: str) -> tuple[int, ...]:
        """Ids of edges incident to `vertex` (a loop appears once)."""
        if self._incident is None:
            inc: dict[str, list[int]] = {v: [] for v in self.vertices}
            for i, _, u, v in self.edges:
                inc[u].append(i)
                if u != v:
                    inc[v].append(i)
            self._incident = {v: tuple(ids) for v, ids in inc.items()}
        try:
            return self._incident[vertex]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise GraphError(f"unknown vertex {vertex!r}") from None

    def degree(self, vertex: str) -> int:
        return sum(2 if self.edges[i].is_loop() else 1 for i in self.edges_at(vertex))

    def is_cubic(self) -> bool:
        return all(self.degree(v) == 3 for v in self.vertices)

    def is_nearly_cubic(self) -> bool:
        degs = sorted(self.degree(v) for v in self.vertices)
        return degs.count(2) == 1 and degs.count(3) == len(degs) - 1

    def is_simple(self) -> bool:
        return _simple(self.ints)

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            v = stack.pop()
            for i in self.edges_at(v):
                w = self.edges[i].other_end(v)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    # -- serialization -----------------------------------------------------

    def to_doc(self) -> dict:
        """The graph as the JSON document `to_json` writes, not yet encoded."""
        return {
            "vertices": [{"label": v} for v in self.vertices],
            "edges": [{"label": e.label, "ends": [e.u, e.v]} for e in self.edges],
        }

    def to_json(self) -> str:
        """The graph as JSON text: `to_doc()` written by `_dumps`."""
        return _dumps(self.to_doc())

    def to_dot(self) -> str:
        lines = ["graph G {"]
        for v in self.vertices:
            lines.append(f"  {_quote(v)};")
        for e in self.edges:
            lines.append(f"  {_quote(e.u)} -- {_quote(e.v)} [label={_quote(e.label)}];")
        lines.append("}")
        return "\n".join(lines)


def _quote(label: str) -> str:
    """A label as a DOT quoted string, its backslashes and quotes escaped."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _grid(rows: list[list[str]]) -> str:
    """A table as text: rows of cells, each column right-justified to its
    widest cell, columns two spaces apart."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in rows)


def _simple(ints: Ints) -> bool:
    """Whether a graph in integer form (`MultiGraph.ints`) has neither a
    loop nor two edges with the same ends."""
    edges = ints[1]
    # a loop is left out and parallel edges coincide, so either makes it short
    ends = {(u, v) if u < v else (v, u) for u, v in edges if u != v}
    return len(ends) == len(edges)


def from_json(text: str) -> MultiGraph:
    return from_doc(json.loads(text))


def from_doc(doc) -> MultiGraph:
    """A graph from a decoded JSON document, as `from_json` reads it."""
    vertices, labels, us, ws = _doc_lists(doc)
    return MultiGraph(vertices, zip(labels, us, ws))


def _dumps(doc, sort_keys: bool = False) -> str:
    """The bytes of `json.dumps(doc, indent=2, sort_keys=sort_keys)`: the
    one JSON writer of the package, for graph files, chain files
    (`chains.chain_to_json`) and the CLI's `--format json` replies.

    With `indent` set, `json` encodes in pure Python, leaves too.  Here
    only containers are walked in Python: each string is encoded by
    `json`'s C string encoder, a list of strings in one join, an int by
    `int.__repr__` as both of `json`'s encoders do, and a float, a bool
    or None by a one-shot C encoder.  A document
    the walk does not cover (a key that is not a string, a subclass of a
    JSON type, an unknown type, a circular or too deep nesting) goes to
    `json.dumps` whole, which gives its own bytes or its own error."""
    try:
        return _encode(doc, "\n", sort_keys)
    except (TypeError, RecursionError):
        return json.dumps(doc, indent=2, sort_keys=sort_keys)


_STR = frozenset((str,))
_one_shot = json.JSONEncoder().encode
_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _one_shot,
    bool: _one_shot,
    type(None): _one_shot,
}


def _encode(o, nl: str, sort_keys: bool) -> str:
    """The JSON text of `o` for `_dumps`, nested at the line break and
    indentation `nl`; a TypeError for anything it does not cover."""
    t = type(o)
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = nl + "  "
        if _STR.issuperset(map(type, o)):
            texts = map(encode_basestring_ascii, o)
        else:
            texts = [_encode(x, inner, sort_keys) for x in o]
        return "[" + inner + ("," + inner).join(texts) + nl + "]"
    if t is dict:
        if not o:
            return "{}"
        inner = nl + "  "
        parts = []
        # a key that is not a string makes the string encoder raise TypeError
        for k, v in sorted(o.items()) if sort_keys else o.items():
            value = encode_basestring_ascii(v) if type(v) is str else _encode(v, inner, sort_keys)
            parts.append(encode_basestring_ascii(k) + ": " + value)
        return "{" + inner + ("," + inner).join(parts) + nl + "}"
    leaf = _LEAVES.get(t)
    if leaf is None:
        raise TypeError(f"{t.__name__} is not written by the walk")
    return leaf(o)


def _doc_lists(doc) -> tuple[list, list, list, list]:
    """A graph document's vertex labels, edge labels and the two ends of
    each edge, checked only for the document's shape: its keys, and each
    edge's `ends` a list of exactly two.  The labels and ends are checked
    by `_checked`."""
    try:
        vertices = list(map(_LABEL, doc["vertices"]))
        edges = doc["edges"]
        labels, pairs = list(map(_LABEL, edges)), list(map(_ENDS, edges))
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed graph JSON: {exc}") from exc
    if not ({list}.issuperset(map(type, pairs)) and {2}.issuperset(map(len, pairs))):
        for label, pair in zip(labels, pairs):  # only a subclass of list may pass
            if not isinstance(pair, list) or len(pair) != 2:
                raise GraphError(
                    f"malformed graph JSON: edge {label!r} has ends {pair!r}, not a list of two"
                )
    return vertices, labels, list(map(_FIRST, pairs)), list(map(_SECOND, pairs))


def _read_doc(doc) -> tuple[list[str], list[str], dict[str, int], list[tuple[int, int]]]:
    """A graph document in integer form, checked as `MultiGraph` checks its
    arguments (`_checked`): the vertex labels, the edge labels, the index
    of each vertex label, and per edge the indices of its two ends.  A chain
    piece is read here (`chains._piece_from_doc`), with no `MultiGraph`
    built; `from_doc` builds one."""
    vertices, labels, us, ws = _doc_lists(doc)
    index = _checked(vertices, labels, us, ws)
    return vertices, labels, index, _int_ends(index, us, ws)


def _int_ends(index: dict[str, int], us, ws) -> list[tuple[int, int]]:
    """Per edge, the indices of its ends `us[i]` and `ws[i]` in `index`."""
    at = index.__getitem__
    return list(zip(map(at, us), map(at, ws)))


def _checked(vertices: Sequence, labels: Sequence, us: Sequence, ws: Sequence) -> dict[str, int]:
    """The index of each vertex label in `vertices`, once the graph whose
    edge i has the label `labels[i]` and the ends `us[i]` and `ws[i]` is
    checked: every label and end a string, the vertex labels distinct,
    every end a vertex and the edge labels distinct.  This is the one
    check of a graph, for `MultiGraph` and graph documents alike.

    The checks run over the whole graph at C speed, and only a graph that
    fails one is walked again, in order, to name its first fault
    (`_refuse`)."""
    try:
        for strings in (vertices, labels, us, ws):
            "".join(strings)  # a TypeError on anything but a string
        index = dict(zip(vertices, range(len(vertices))))
    except TypeError:
        index = None
    if (
        index is None
        or len(index) != len(vertices)
        or not index.keys() >= {*us, *ws}
        or len(set(labels)) != len(labels)
    ):
        _refuse(vertices, labels, us, ws)
    return index


def _refuse(vertices: Sequence, labels: Sequence, us: Sequence, ws: Sequence) -> None:
    """Raise on the first fault of a graph that `_checked` found faulty, in
    this order: every label and end other than a string (vertices first,
    then edge by edge its label and ends), a repeated vertex label, then
    edge by edge an end that is not a vertex or a repeated edge label."""
    for x in chain(vertices, chain.from_iterable(zip(labels, us, ws))):
        if not isinstance(x, str):
            raise GraphError(f"label or end {x!r} is not a string")
    if len(set(vertices)) != len(vertices):
        raise GraphError("duplicate vertex label")
    known = set(vertices)
    seen: set[str] = set()
    for label, u, w in zip(labels, us, ws):
        for end in (u, w):
            if end not in known:
                raise GraphError(f"unknown endpoint label {end!r}")
        if label in seen:
            raise GraphError(f"duplicate edge label {label!r}")
        seen.add(label)


# -- transforms -------------------------------------------------------------


def quotient(G: MultiGraph, identifications: Sequence[tuple[str, str]]) -> MultiGraph:
    """Merge vertices per the union-find closure of the given label pairs.

    All edges are retained (this may create loops and parallel edges).  Each
    merged class keeps the label of its earliest-inserted member.
    """
    parent = {v: v for v in G.vertices}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    order = {v: i for i, v in enumerate(G.vertices)}
    for a, b in identifications:
        if a not in G:
            raise GraphError(f"unknown label {a!r}")
        if b not in G:
            raise GraphError(f"unknown label {b!r}")
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        if order[ra] > order[rb]:
            ra, rb = rb, ra
        parent[rb] = ra

    reps = []
    seen = set()
    for v in G.vertices:
        r = find(v)
        if r not in seen:
            seen.add(r)
            reps.append(r)
    edges = [(e.label, find(e.u), find(e.v)) for e in G.edges]
    return MultiGraph(reps, edges)


def relabel_vertices(G: MultiGraph, mapping: dict[str, str]) -> MultiGraph:
    for old in mapping:
        if old not in G:
            raise GraphError(f"unknown label {old!r}")
    sub = lambda v: mapping.get(v, v)
    return MultiGraph([sub(v) for v in G.vertices], [(e.label, sub(e.u), sub(e.v)) for e in G.edges])
