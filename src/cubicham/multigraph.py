"""Labeled multigraph kernel.

Vertices are identified by their labels (unique strings); edges carry an
integer id (insertion order) plus a unique string label used for all
serialization.  Graphs are immutable after construction: every transform
returns a new graph with freshly assigned ids, preserving insertion order.
Loops contribute 2 to the degree of their vertex.
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


class MultiGraph:
    """Finite multigraph with labeled vertices and edges, loops allowed."""

    __slots__ = ("vertices", "edges", "_vset", "_incident", "_by_label", "_ints")

    def __init__(self, vertices: Sequence[str], edges: Sequence[tuple[str | None, str, str]]):
        vs = tuple(vertices)
        if len(set(vs)) != len(vs):
            raise GraphError("duplicate vertex label")
        self.vertices: tuple[str, ...] = vs
        self._vset = vset = frozenset(vs)
        recs = []
        labels: set[str] = set()
        for i, (label, u, v) in enumerate(edges):
            if u not in vset:
                raise GraphError(f"unknown endpoint label {u!r}")
            if v not in vset:
                raise GraphError(f"unknown endpoint label {v!r}")
            lab = label if label is not None else f"_e{i}"
            if lab in labels:
                raise GraphError(f"duplicate edge label {lab!r}")
            labels.add(lab)
            recs.append(EdgeRecord(i, lab, u, v))
        self.edges: tuple[EdgeRecord, ...] = tuple(recs)
        # built on first use: the chain engine reads most graphs only in
        # integer form (`ints`), and never asks for these
        self._by_label: dict[str, EdgeRecord] | None = None
        self._incident: dict[str, tuple[int, ...]] | None = None
        self._ints: Ints | None = None

    @classmethod
    def _read(cls, vertices: list[str], labels: list[str], ends: list[tuple[int, int]]):
        """The graph of an integer form that `_read_doc` has checked, with
        that form as its `ints`, not checked again."""
        G = cls.__new__(cls)
        G.vertices = vs = tuple(vertices)
        G._vset = frozenset(vs)
        us, ws = [vs[u] for u, _ in ends], [vs[v] for _, v in ends]
        record = partial(tuple.__new__, EdgeRecord)  # no Python call per edge
        G.edges = tuple(map(record, zip(range(len(labels)), labels, us, ws)))
        G._by_label = G._incident = None
        G._ints = (len(vs), ends)
        return G

    # -- queries -----------------------------------------------------------

    def __contains__(self, vertex: str) -> bool:
        return vertex in self._vset

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
            self._index()
        return self._ints

    def _index(self) -> dict[str, int]:
        """The position of each vertex label in `vertices`; computes `ints`
        on the way if it is not there yet."""
        index = dict(zip(self.vertices, range(len(self.vertices))))
        if self._ints is None:
            at = index.__getitem__
            ends = zip(map(at, map(_U, self.edges)), map(at, map(_V, self.edges)))
            self._ints = (len(index), list(ends))
        return index

    def edge_by_label(self, label: str) -> EdgeRecord:
        if self._by_label is None:
            self._by_label = {e.label: e for e in self.edges}
        try:
            return self._by_label[label]
        except KeyError:
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
        except KeyError:
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
        """The graph as JSON text, written by `_dumps`: byte for byte what
        the standard `json` module writes of `to_doc()` with `indent=2`."""
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
    vertices, labels, _, ends = _read_doc(doc)
    return MultiGraph._read(vertices, labels, ends)


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


def _read_doc(doc) -> tuple[list[str], list[str], dict[str, int], list[tuple[int, int]]]:
    """A graph document in integer form, checked as `MultiGraph` checks its
    arguments: the vertex labels, the edge labels, the index of each vertex
    label, and per edge the indices of its two ends.  Every graph read from
    JSON is read here, a chain piece's too (`chains._piece_from_doc`).
    Each edge's `ends` must be a list of exactly two strings.

    The checks run over the whole document at C speed, and only a document
    that fails one is walked again, in order, to name its first fault
    (`_refuse`)."""
    try:
        vertices = [v["label"] for v in doc["vertices"]]
        edges = [(e["label"], e["ends"]) for e in doc["edges"]]
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed graph JSON: {exc}") from exc
    labels = [label for label, _ in edges]
    pairs = [pair for _, pair in edges]
    index: dict[str, int] = {}
    ends = None
    if (
        {str}.issuperset(map(type, chain(vertices, labels)))
        and {list}.issuperset(map(type, pairs))
        and {2}.issuperset(map(len, pairs))
    ):
        index = dict(zip(vertices, range(len(vertices))))
        get = index.get
        try:
            ends = [(get(u), get(v)) for u, v in pairs]
        except TypeError:  # an unhashable end
            pass
    if (
        ends is None
        or len(index) != len(vertices)
        or None in chain.from_iterable(ends)
        or len(set(labels)) != len(labels)
    ):
        _refuse(vertices, edges)
        # no fault after all, only a subclass of str or list
        index = dict(zip(vertices, range(len(vertices))))
        ends = [(index[u], index[v]) for u, v in pairs]
    return vertices, labels, index, ends


def _refuse(vertices: list, edges: list) -> None:
    """Raise on the first fault of a graph document, in this order: ends
    that are not a list of two, every label and end that is not a string
    (vertices first), a repeated vertex label, then edge by edge an
    unknown end or a repeated edge label."""
    for label, pair in edges:
        if not isinstance(pair, list) or len(pair) != 2:
            raise GraphError(
                f"malformed graph JSON: edge {label!r} has ends {pair!r}, not a list of two"
            )
    for label in (*vertices, *[x for label, (u, v) in edges for x in (label, u, v)]):
        if not isinstance(label, str):
            raise GraphError(f"malformed graph JSON: label or end {label!r} is not a string")
    if len(set(vertices)) != len(vertices):
        raise GraphError("duplicate vertex label")
    known = set(vertices)
    seen: set[str] = set()
    for label, (u, v) in edges:
        if u not in known:
            raise GraphError(f"unknown endpoint label {u!r}")
        if v not in known:
            raise GraphError(f"unknown endpoint label {v!r}")
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
        if a not in parent:
            raise GraphError(f"unknown label {a!r}")
        if b not in parent:
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
