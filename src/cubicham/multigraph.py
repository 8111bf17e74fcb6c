"""Labeled multigraph kernel.

Vertices are identified by their labels (unique strings); edges carry an
integer id (insertion order) plus a unique string label used for all
serialization.  Graphs are immutable after construction: every transform
returns a new graph with freshly assigned ids, preserving insertion order.
Loops contribute 2 to the degree of their vertex.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Iterable, NamedTuple, Sequence


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
            index = dict(zip(self.vertices, range(len(self.vertices))))
            self._ints = (len(index), [(index[u], index[v]) for _, _, u, v in self.edges])
        return self._ints

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
        return json.dumps(self.to_doc(), indent=2)

    def to_dot(self) -> str:
        lines = ["graph G {"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for e in self.edges:
            lines.append(f'  "{e.u}" -- "{e.v}" [label="{e.label}"];')
        lines.append("}")
        return "\n".join(lines)


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
    try:
        vertices = [v["label"] for v in doc["vertices"]]
        edges = [(e["label"], e["ends"][0], e["ends"][1]) for e in doc["edges"]]
    except (KeyError, TypeError, IndexError) as exc:
        raise GraphError(f"malformed graph JSON: {exc}") from exc
    for label in (*vertices, *chain.from_iterable(edges)):
        if not isinstance(label, str):
            raise GraphError(f"malformed graph JSON: label or end {label!r} is not a string")
    return MultiGraph(vertices, edges)


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


# -- flow-based connectivity queries ----------------------------------------


def _max_flow(n: int, arcs: list[tuple[int, int, int, int]], s: int, t: int) -> int:
    """Maximum s-t flow on nodes 0..n-1 by shortest augmenting paths
    (Edmonds-Karp).

    Each (u, v, forward, backward) in `arcs` is one residual pair: arc 2i
    runs u -> v with capacity `forward`, its twin 2i ^ 1 runs v -> u with
    `backward` (0 for a directed arc, the same for an undirected edge).
    The search stops once the capacity into t is used up.
    """
    head: list[int] = []
    cap: list[int] = []
    out: list[list[int]] = [[] for _ in range(n)]
    for u, v, forward, backward in arcs:
        out[u].append(len(head))
        out[v].append(len(head) + 1)
        head += (v, u)
        cap += (forward, backward)
    bound = sum(cap[a ^ 1] for a in out[t])
    total = 0
    while total < bound:
        via = [-1] * n  # the arc each reached node was reached by
        via[s] = -2
        queue = [s]
        for u in queue:
            for a in out[u]:
                v = head[a]
                if cap[a] and via[v] == -1:
                    via[v] = a
                    queue.append(v)
            if via[t] != -1:
                break
        else:
            return total
        path = []
        v = t
        while v != s:
            a = via[v]
            path.append(a)
            v = head[a ^ 1]
        push = min(cap[a] for a in path)
        for a in path:
            cap[a] -= push
            cap[a ^ 1] += push
        total += push
    return total


def _flow_ends(G: MultiGraph, sources: Iterable[str], sink: str) -> frozenset[str]:
    """The sources, checked: nonempty, known, and without the sink."""
    src = frozenset(sources)
    if not src:
        raise GraphError("sources must be nonempty")
    if sink in src:
        raise GraphError("sink must not be a source")
    for v in src | {sink}:
        if v not in G:
            raise GraphError(f"unknown vertex {v!r}")
    return src


_BIG = 10**9


def min_edge_cut(G: MultiGraph, sources: Iterable[str], sink: str) -> int:
    """Maximum number of edge-disjoint source-to-sink paths (= min separating cut)."""
    src = _flow_ends(G, sources, sink)
    node = {v: i for i, v in enumerate(G.vertices)}
    arcs = [(node[e.u], node[e.v], 1, 1) for e in G.edges if e.u != e.v]
    root = G.n  # joined to every source
    arcs += [(root, node[v], _BIG, 0) for v in src]
    return _max_flow(G.n + 1, arcs, root, node[sink])


def max_vertex_disjoint_paths(G: MultiGraph, sources: Iterable[str], sink: str) -> int:
    """Maximum number of internally vertex-disjoint source-to-sink paths."""
    src = _flow_ends(G, sources, sink)
    free = src | {sink}  # not split; may be shared by paths
    # a vertex v is entered at node 2i and left from node 2i + 1, or, if
    # free, both at 2i; an inner vertex passes one path from 2i to 2i + 1
    enter = {v: 2 * i for i, v in enumerate(G.vertices)}
    leave = {v: i if v in free else i + 1 for v, i in enter.items()}
    arcs = [(i, i + 1, 1, 0) for v, i in enter.items() if v not in free]
    for e in G.edges:
        if e.u != e.v:
            arcs += ((leave[e.u], enter[e.v], 1, 0), (leave[e.v], enter[e.u], 1, 0))
    root = 2 * G.n
    arcs += [(root, enter[v], _BIG, 0) for v in src]
    return _max_flow(root + 1, arcs, root, enter[sink])
