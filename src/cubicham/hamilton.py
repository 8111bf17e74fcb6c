"""Exact Hamilton-cycle enumeration, streaming counts, parity audits,
and the lollipop exchange walk for a second cycle through a fixed edge.

Every cycle query runs on one backtracking core, `_search`, which calls a
visitor once per Hamilton cycle and builds nothing itself, or counts the
cycles by their traces on groups of edges without visiting them one by
one (`_memo_trace_counts`, below).  The core reads
a graph in integer form: a vertex count and one pair of endpoint indices
per edge, which every `MultiGraph` computes once (`MultiGraph.ints`) and
the chain engine builds for its segment minors without labels
(`_trace_counts`, `_sorted_cycles`).  The counting helpers
(`count_through`, `count_by_trace`, `edge_parity_report`) tally inside
their visitors, so their tallies take O(n + m) space whatever the number
of cycles.  `enumerate_hamilton_cycles` collects every cycle.  The
search itself holds one (m + 3n + 1)-int state list per branching level on
the current path, so O(depth * (m + n)) ints with depth at most m.
Every move the search makes, branched or forced, runs through one
forced-move loop, the only place an edge goes IN; it examines a vertex
only when the move just made can force it.

The core has two branch orders.  Full searches that visit cycles (counts,
tallies, listing) branch on the most constrained undecided edge, which
keeps the search tree small.  Least-cycle queries (`first_hamilton_cycle`,
`second_cycle_nearly_cubic`) branch on the lowest-id undecided edge, IN
child first; that order meets the cycles in ascending sorted edge-id
order, so the search stops at the k-th cycle instead of visiting them all.

The memoized counter returns from each search node the counts of the
subtree below it, and keeps them per node for the rest of the search
call, keyed by the node's residual problem: the edges from the lowest
undecided one on and the mates of the path ends, both measured from the
end of the graph.  Search nodes reached by different choices often pose
the same problem.  A caller may pass in a memo of its own that outlives
the call, for graphs whose edge lists end alike: past the lowest edge
whose cycles it counts by trace, a node's key then names the same problem
in each of them (`_search`).  The windows of a one-ended chain are such
graphs when glued from their outer end inward, so the chain counts all
of them on one memo (`chains._window_counts`).  A truncation window of a
cut chain is thin: it has a 2- or 3-edge cut at every piece junction, so
most sub-searches come back many times, and the memo turns the window's
per-cycle enumeration, which doubles per level on chain-G, into a count
whose cost grows polynomially with the window's length.  The counter
branches on the lowest undecided edge.  A window numbers its edges piece
by piece along the chain, so that edge is the search's frontier and the
memo acts as a frontier-based search (Kawahara, Inoue, Iwashita and
Minato, IEICE Trans. Fundamentals E100-A, 2017), whose size the edge
order sets: the problems it meets differ only near the frontier.  The
most constrained edge jumps about the window instead, and on one-ended
chains with 2-edge cuts it stayed exponential: for one such chain
(tests/util seed 16) the windows of depths 0-14 took 1 403 228 memo
nodes and 42 s of CPU time that way, and took 809 nodes and 0.03 s in
chain order, each window on a memo of its own (python 3.11, 2 cores).  On
the built-in chains the node counts barely moved (chain-G to depth 18:
2413 to 2431; chain-Hprime to 18 and chain-H to 40 equal).  On one memo
kept across the windows, glued outer end first, seed 16's windows 0-14
take 81 nodes, chain-G's to depth 18 301 and chain-H's to 40 650: each
level adds 16 nodes on chain-G and chain-H, where each window counted
afresh in chain order took 13 (chain-G) and 7 (chain-H) more nodes than
the one below it.  Only the window brute force (`chains._window_counts`) uses the
counter, since elsewhere the key, built at every node, costs about what
the hits save.  Against the visitor search (`_trace_counts`; python
3.11, 2 cores): on the built-in chains' windows at their bench depths the
memo cut search nodes from 52 108 to 4 301 and ran 7 times faster; on
the segment minors of 300 bench chains (seed 1, 1942 pieces) it cut them
by 12% and ran 1.25 times slower; on graph-audit's graphs, traced at two
vertices, it cut them by 42% and ran no faster (0.99 times).  Those
figures were taken while the memo still branched as the visitor does.

A Hamilton cycle is represented as a frozenset of edge ids; output lists are
always sorted by the sorted edge-id tuple, so repeated runs produce
identical order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterable, Sequence

from .multigraph import GraphError, Ints, MultiGraph

HamiltonCycle = frozenset  # of edge ids

_UND, _IN, _OUT = 0, 1, 2
_is_in = _IN.__eq__
_DECIDED = bytes.maketrans(bytes([_OUT]), bytes([_IN]))  # IN and OUT alike
_ENDS = bytes.maketrans(b"\2", b"\0")  # IN-degree 1 alone stays true


def is_hamilton_cycle(G: MultiGraph, edge_ids: Iterable[int]) -> bool:
    """Check the cycle invariant: spanning, connected, 2-regular, loop-free."""
    ids = set(edge_ids)
    if any(G.edges[i].is_loop() for i in ids):
        return False
    deg = {v: 0 for v in G.vertices}
    for i in ids:
        e = G.edges[i]
        deg[e.u] += 1
        deg[e.v] += 1
    if any(d != 2 for d in deg.values()) or len(ids) != G.n:
        return False
    # 2-regular spanning subgraph with |E| = |V| and connectivity = one cycle
    if not G.vertices:
        return False
    start = G.vertices[0]
    seen = {start}
    stack = [start]
    inc = {v: [i for i in G.edges_at(v) if i in ids] for v in G.vertices}
    while stack:
        v = stack.pop()
        for i in inc[v]:
            w = G.edges[i].other_end(v)
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == G.n


def _checked(m: int, require: Iterable[int], forbid: Iterable[int]):
    require = frozenset(require)
    forbid = frozenset(forbid)
    if require & forbid:
        raise GraphError("require and forbid overlap")
    for i in require | forbid:
        if not 0 <= i < m:
            raise GraphError(f"unknown edge id {i}")
    return require, forbid


def _search(
    graph: Ints,
    require: Iterable[int],
    forbid: Iterable[int],
    visit: Callable[[list[int]], bool | None] | None,
    lowest_first: bool = False,
    groups: Sequence[int] | None = None,
    shared: dict | None = None,
) -> dict | None:
    """Call `visit(s)` once for each Hamilton cycle of an integer graph that
    contains every edge of `require` and none of `forbid`, until a call
    returns true.

    `graph` is (n, edges): vertices are 0..n-1, and edge i joins the two
    vertices of edges[i] (`MultiGraph.ints`, or a graph that the chain
    engine builds without labels).  Edge ids are list positions and the
    incidence order of each vertex is ascending id, as in a `MultiGraph`,
    so a labeled graph and its integer form are searched alike.

    The whole search state is one flat int list `s`: the state of edge i at
    s[i] (_UND, _IN or _OUT); for the vertex whose block starts at offset p
    (p = m + 3k for the k-th vertex), its IN-degree at s[p], its number of
    undecided edges at s[p + 1] and its path mate at s[p + 2]; the number of
    IN edges at s[-1].  Vertices are named by their offsets throughout.
    Branching copies the list for the IN child (a C-speed list copy) and
    hands the list itself to the OUT child, so there is no undo trail.

    Loops are OUT from the start, and IN edges always form vertex-disjoint
    paths.  The mate of a path end is the offset of the path's other end
    (an isolated vertex is its own mate), so joining two paths rewrites two
    entries.  When a join leaves ends a and b with fewer than n - 1 edges
    IN, every undecided a-b edge is set OUT at once, so an edge that closes
    a path can only go IN as the n-th edge, closing a Hamilton cycle.  The
    scan reads a's incidence tuple (a per-search neighbour set to skip
    it sped up dense graphs but slowed the small searches of segment
    minors, so there is none).

    Every move goes through `settle`, the one forced-move loop.  It takes
    edges to put IN (the branch edge, the required edges, or the undecided
    edges of a vertex that needs all of them, read from its incidence tuple
    in place; decided edges are skipped) and a stack of vertices to
    examine.  A vertex is pushed only when the move just made can force it:
    its IN-degree reached 2 with undecided edges left, which then go OUT;
    or its undecided count plus IN-degree fell to 2 or below, when every
    undecided edge it has must go IN.  A popped vertex that can no longer
    reach IN-degree 2 fails the branch.  A vertex left with at most two
    edges once loops and forbidden edges are OUT is pushed before the first
    move, since no move made it fall.  So the loop never misses a forced
    vertex and stops with none left, whatever the order of its moves.  The
    required edges enter as one `todo`, which skips those already decided:
    one that an earlier move forced IN is fine, one that is a loop or was
    forced OUT is not, so the search goes on only if all of them are IN.

    By default each visiting search node branches on the most constrained
    undecided edge: most IN edges at its ends, then fewest undecided edges
    there, then lowest id.  The scan starts at the lowest undecided edge,
    since every edge below it is decided.  Branching at a path end instead slowed thin
    graphs with 2-edge cuts by an order of magnitude, so the edge rule
    stays.

    With `lowest_first` each node branches on the lowest-id undecided edge
    and cycles arrive in ascending order of their sorted edge-id tuples.
    Let d be the lowest edge id in one of two cycles A and B but not the
    other; A is the smaller exactly when d is in A (both have n edges).  At
    the node where the search separates A from B, every edge below its
    branching edge is decided, and the same way for both, so that edge is
    d; its IN child, which holds A, is searched first.

    `visit(s)` runs once the n-th edge is IN; `settle` has then set
    every other edge OUT, and s[i] == _IN for i < m marks the cycle.  The
    visitor must not keep or change `s`.  A true return value ends the
    search.  Without `lowest_first` cycles arrive in search order, not
    sorted.

    With `visit` None the search counts instead, and returns {trace:
    cycles}, a trace being the bit mask of the `groups` edges (distinct
    ids, bit k for groups[k]) that a cycle uses.  `settle` runs as for a
    visitor, but `count(s)` branches on the lowest undecided edge
    (`lowest_edge`), returns the table of the subtree below node s, for the
    group edges still undecided at s, and keeps it in a memo.  The parent
    adds the group edges that its move to the child put IN.  The key is
    s's residual problem, all that decides the subtree's completions,
    measured from the end of the graph:
      - m - first, `first` being the lowest undecided edge, and the states
        of the edges from it on, IN and OUT alike.  Every edge below
        `first` is decided, so this says which edges are undecided.  A
        decided edge matters to the completions only through its ends'
        IN-degrees and paths, and to the traces only as a group edge,
        which the table leaves to the parent.  (The suffix's length is
        m - first already; the key keeps both.)
      - n_in - mate for the mate of each path end, in vertex order.  These
        name the path ends, so they carry every IN-degree too: at a node
        `settle` has finished, a vertex with undecided edges is a path end
        (IN-degree 1) or untouched (0), and one without has IN-degree 2.
    Only the mates of path ends go in: `settle` leaves an interior
    vertex's mate as it was when the vertex was last an end, and those
    stale values would split equal problems and kill the hits.  Equal keys
    also give equal subtrees, since `settle` and `lowest_edge` read nothing
    else: they read the states of undecided edges, the IN-degree,
    undecided count and mate of the ends of those edges (an untouched
    vertex is its own mate), and the IN-edge count t only as n - t, in the
    closing rule (t < n - 1) and the leaf test (t == n).  Each vertex
    adds 1 - d/2 to n - t, d being its IN-degree, so n - t is the number
    of untouched vertices plus half the number of path ends, both read
    off the key.  The table's traces come in this search's order, not
    the visitor's; callers compare tables as dicts.  The edge states go
    in as one byte each and the mates as a tuple of ints, so a key takes
    at most about m bytes, and less the further the search has swept.

    The memo lives as long as this call, but for `shared`, a dict that
    its owner passes in and keeps across calls: it holds the tables of the
    nodes whose `first` lies above every group edge.  Those tables are
    plain {0: cycles}, since no group edge is left undecided there.  An
    owner may pass one `shared` memo to several graphs, as
    `chains._window_counts` does for the windows of a one-ended chain,
    when their edge lists end alike: whenever two of them both have such
    a node with m - first = L, their last L edges join the same vertices
    counted from the end (vertex offset p as n_in - p).  Then equal keys
    pose equal problems in either graph.  The undecided edges are the same
    edges.  A vertex without one of the last L edges has no undecided
    edge, so by the above it has IN-degree 2: it is no path end, adds
    nothing to n - t, and `settle` never reads it.  So nothing outside the
    shared suffix enters the subtree.  The nodes that still have a group
    edge undecided keep to this call's memo: their tables carry trace bits
    of this graph's groups, and the suffix holds group edges, which need
    not end where another graph's edges at the same place end (a
    window's dummy edges against the next window's junction edges).
    """
    n, edges = graph
    m = len(edges)
    require, forbid = _checked(m, require, forbid)
    if n == 0:
        return {} if visit is None else None
    last = n - 1
    n_in = m + 3 * n  # index of the IN-edge count
    base = range(m, n_in, 3)  # the offset of each vertex
    eu = [m + 3 * u for u, _ in edges]
    ev = [m + 3 * v for _, v in edges]
    ends = [p + q for p, q in zip(eu, ev)]  # minus one end's offset gives the other's
    at: list[list[int]] = [[] for _ in base]
    for i, (u, v) in enumerate(edges):
        at[u].append(i)
        if u != v:
            at[v].append(i)
    s = [_UND] * (n_in + 1)
    inc: list = [()] * n_in
    for p, ids in zip(base, at):
        inc[p] = ids
        s[p + 1] = len(ids)
        s[p + 2] = p

    def settle(s: list[int], todo: Iterable[int], touched: list[int]) -> bool:
        """Put each undecided edge of `todo` IN, then make every move that
        the vertices on `touched` force, until none is left; false once the
        branch has no Hamilton cycle.  Edges go IN nowhere else."""
        while True:
            for i in todo:
                if s[i]:
                    continue
                p, q = eu[i], ev[i]
                dp, dq = s[p] + 1, s[q] + 1
                if dp > 2 or dq > 2:
                    return False
                s[i] = _IN
                s[p] = dp
                s[q] = dq
                up = s[p + 1] - 1
                uq = s[q + 1] - 1
                s[p + 1] = up
                s[q + 1] = uq
                if dp == 2 and up:
                    touched.append(p)
                if dq == 2 and uq:
                    touched.append(q)
                t = s[n_in] + 1
                s[n_in] = t
                a = s[p + 2]
                if a == q:  # the n-th edge, closing the cycle
                    continue
                b = s[q + 2]
                s[a + 2] = b
                s[b + 2] = a
                if t < last:
                    ab = a + b
                    for j in inc[a]:
                        if not s[j] and ends[j] == ab:
                            s[j] = _OUT
                            ua = s[a + 1] - 1
                            ub = s[b + 1] - 1
                            s[a + 1] = ua
                            s[b + 1] = ub
                            if ua <= 1:
                                touched.append(a)
                            if ub <= 1:
                                touched.append(b)
            while touched:
                p = touched.pop()
                und = s[p + 1]
                if not und:
                    if s[p] < 2:
                        return False
                    continue
                d = s[p]
                if d == 2:
                    for j in inc[p]:
                        if not s[j]:
                            s[j] = _OUT
                            q = ends[j] - p
                            u = s[q + 1] - 1
                            s[q + 1] = u
                            dq = s[q]
                            if dq < 2 and u + dq <= 2:
                                touched.append(q)
                    s[p + 1] = 0
                elif und + d == 2:
                    todo = inc[p]
                    break
                elif und + d < 2:
                    return False
            else:
                return True

    def branch_edge(s: list[int]) -> int:
        try:
            first = s.index(_UND, 0, m)  # every edge below it is decided
        except ValueError:
            return -1
        best, best_in, best_und = -1, -1, 0
        for i in range(first, m):
            if s[i]:
                continue
            p, q = eu[i], ev[i]
            c = s[p] + s[q]
            if c == 2:
                return i
            if c >= best_in:
                und = s[p + 1] + s[q + 1]
                if c > best_in or und < best_und:
                    best, best_in, best_und = i, c, und
        return best

    def lowest_edge(s: list[int]) -> int:
        try:
            return s.index(_UND, 0, m)
        except ValueError:
            return -1

    pick = lowest_edge if lowest_first else branch_edge

    def descend(s: list[int]) -> bool:
        """Search below s; true once the visitor has asked to stop."""
        if s[n_in] == n:
            return bool(visit(s))
        i = pick(s)
        if i < 0:
            return False
        t = s[:]
        if settle(t, (i,), []) and descend(t):
            return True
        s[i] = _OUT
        p, q = eu[i], ev[i]
        s[p + 1] -= 1
        s[q + 1] -= 1
        return settle(s, (), [p, q]) and descend(s)

    bits = [(g, 1 << k) for k, g in enumerate(groups or ())]
    memo: dict = {}
    if shared is None:
        shared = memo
    share_from = max(groups or (), default=-1) + 1  # a `first` above every group edge
    leaf = {0: 1}

    def put_in(child: list[int], open_bits: list) -> int:
        """The bits of the open group edges that a child node has put IN."""
        traced = 0
        for g, bit in open_bits:
            if child[g] == _IN:
                traced |= bit
        return traced

    def merge(table: dict, traced: int, below: dict) -> None:
        """Add to `table` the cycles below a child, each trace joined with
        the child's own `traced` bits."""
        for trace, cycles in below.items():
            trace |= traced
            table[trace] = table.get(trace, 0) + cycles

    def count(s: list[int]) -> dict:
        """The cycles below s by their trace on the group edges undecided at
        s, as a bit mask; branches on the lowest undecided edge and is
        memoized on s's residual problem."""
        if s[n_in] == n:
            return leaf
        first = lowest_edge(s)
        if first < 0:
            return {}
        # bytearray() converts an int list fastest
        path_ends = bytearray(s[m:n_in:3]).translate(_ENDS)
        key = (
            m - first,
            bytes(bytearray(s[first:m]).translate(_DECIDED)),
            tuple(map(n_in.__sub__, compress(s[m + 2 : n_in : 3], path_ends))),
        )
        store = memo if first < share_from else shared
        table = store.get(key)
        if table is not None:
            return table
        table = {}
        open_bits = [(g, bit) for g, bit in bits if not s[g]]
        t = s[:]
        if settle(t, (first,), []):
            merge(table, put_in(t, open_bits), count(t))
        s[first] = _OUT
        p, q = eu[first], ev[first]
        s[p + 1] -= 1
        s[q + 1] -= 1
        if settle(s, (), [p, q]):
            merge(table, put_in(s, open_bits), count(s))
        store[key] = table
        return table

    for i in range(m):
        p, q = eu[i], ev[i]
        if p == q or i in forbid:
            s[i] = _OUT
            s[p + 1] -= 1
            if p != q:
                s[q + 1] -= 1
    # no move made these fall to two undecided edges or fewer: push them now
    touched = [p for p in base if s[p + 1] <= 2]
    ok = settle(s, require, touched) and all(s[i] == _IN for i in require)
    if visit is not None:
        if ok:
            descend(s)
        return None
    table: dict = {}
    if ok:
        merge(table, put_in(s, bits), count(s))
    memo.clear()  # `count` refers to itself, so only the cycle collector would free it
    return table


def _sorted_cycles(
    graph: Ints, require: Iterable[int] = (), forbid: Iterable[int] = ()
) -> list[tuple[int, ...]]:
    """The Hamilton cycles of an integer graph through `require` and
    avoiding `forbid`, each as its sorted edge-id tuple, in sorted order."""
    edge_ids = range(len(graph[1]))
    out: list[tuple[int, ...]] = []
    _search(graph, require, forbid, lambda s: out.append(tuple(compress(edge_ids, map(_is_in, s)))))
    return sorted(out)


def enumerate_hamilton_cycles(
    G: MultiGraph, require: Iterable[int] = (), forbid: Iterable[int] = ()
) -> list[HamiltonCycle]:
    """All Hamilton cycles of G that contain every edge of `require` and
    none of `forbid`, each once, sorted by edge-id tuple."""
    return [frozenset(t) for t in _sorted_cycles(G.ints, require, forbid)]


def count_through(G: MultiGraph, require: Iterable[int] = (), forbid: Iterable[int] = ()) -> int:
    """Number of Hamilton cycles containing all of `require`, none of `forbid`."""
    count = 0

    def tally(s: list[int]) -> None:
        nonlocal count
        count += 1

    _search(G.ints, require, forbid, tally)
    return count


def _trace_counts(graph: Ints, groups: Sequence[Iterable[int]]) -> dict:
    """Hamilton cycles of an integer graph counted by their traces on the
    edge groups, in the order the search first meets each trace.  A key is
    a tuple with one tuple per group, of the edges in that group the cycle
    uses, in group order; traces that no cycle has are absent."""
    groups = [tuple(g) for g in groups]
    counts: dict = {}

    def tally(s: list[int]) -> None:
        # a tuple in group order is cheaper to build per cycle than a
        # frozenset; callers convert each distinct trace once
        key = tuple([tuple([i for i in g if s[i] == _IN]) for g in groups])
        counts[key] = counts.get(key, 0) + 1

    _search(graph, (), (), tally)
    return counts


def _memo_trace_counts(
    graph: Ints, groups: Sequence[Iterable[int]], shared: dict | None = None
) -> dict:
    """`_trace_counts` by the memoized search (`_search` with no visitor):
    the same table, at a cost that grows polynomially in the length of a
    thin graph such as a truncation window.  Its keys come in the order of
    the lowest-edge search, not the visitor's, so it equals
    `_trace_counts` as a dict, not item by item.  `shared`, if given, is a
    memo that outlives the call, for the nodes whose lowest undecided edge
    lies above every group edge; its owner must pass it only graphs that
    `_search` allows to share one."""
    groups = [tuple(g) for g in groups]
    edges = list(dict.fromkeys(i for g in groups for i in g))
    bit = {i: 1 << k for k, i in enumerate(edges)}
    return {
        tuple([tuple([i for i in g if trace & bit[i]]) for g in groups]): count
        for trace, count in _search(graph, (), (), None, groups=edges, shared=shared).items()
    }


def count_by_trace(G: MultiGraph, groups: Sequence[Iterable[int]]) -> dict:
    """Hamilton cycles of G counted by their traces on the edge groups.

    A key is a tuple with one frozenset per group, of the edges in that
    group the cycle uses; traces that no cycle has are absent.
    """
    return {
        tuple(map(frozenset, key)): count for key, count in _trace_counts(G.ints, groups).items()
    }


def _least_cycles(G: MultiGraph, require: Iterable[int], k: int) -> list[tuple[int, ...]]:
    """The k least cycles through `require` as sorted edge-id tuples, in
    order: the first k that the lowest-id-first search meets."""
    edge_ids = range(G.m)
    least: list[tuple[int, ...]] = []

    def keep(s: list[int]) -> bool:
        least.append(tuple(compress(edge_ids, map(_is_in, s))))
        return len(least) >= k

    _search(G.ints, require, (), keep, lowest_first=True)
    return least


def first_hamilton_cycle(G: MultiGraph, require: Iterable[int] = ()) -> HamiltonCycle | None:
    """The least Hamilton cycle through `require` by sorted edge-id tuple,
    that is `enumerate_hamilton_cycles(G, require)[0]`; None if there is none."""
    least = _least_cycles(G, require, 1)
    return frozenset(least[0]) if least else None


@dataclass(frozen=True)
class EdgeParityReport:
    counts: dict[int, int]  # edge id -> number of Hamilton cycles through it
    total: int
    all_degrees_odd: bool
    odd_count_edges: tuple[int, ...]  # nonempty with all_degrees_odd falsifies Thomason

    @property
    def all_even(self) -> bool:
        return not self.odd_count_edges

    def to_csv(self, G: MultiGraph) -> str:
        lines = ["edge,count"]
        for e in G.edges:
            lines.append(f"{e.label},{self.counts[e.id]}")
        return "\n".join(lines)


def edge_parity_report(G: MultiGraph) -> EdgeParityReport:
    edge_ids = range(G.m)
    tally = [0] * G.m
    total = 0

    def visit(s: list[int]) -> None:
        nonlocal total
        total += 1
        for i in compress(edge_ids, map(_is_in, s)):
            tally[i] += 1

    _search(G.ints, (), (), visit)
    counts = dict(zip(edge_ids, tally))
    odd_degrees = all(G.degree(v) % 2 == 1 for v in G.vertices)
    odd_edges = tuple(i for i in edge_ids if tally[i] % 2 == 1) if odd_degrees else ()
    return EdgeParityReport(counts, total, odd_degrees, odd_edges)


def second_cycle_lollipop(G: MultiGraph, cycle: Iterable[int], edge_id: int) -> HamiltonCycle:
    """A Hamilton cycle distinct from `cycle` through `edge_id`.

    Requires a simple graph with all degrees odd; existence is then a
    theorem, so exhausting the exchange walk without a find is a defect.
    The walk anchors the fixed edge at its second endpoint, rotates the free
    end of the resulting Hamilton path, and keeps a visited-path guard;
    extensions are tried in edge-id order for reproducibility.
    """
    C = frozenset(cycle)
    if not G.is_simple():
        raise GraphError("lollipop walk requires a simple graph")
    if any(G.degree(v) % 2 == 0 for v in G.vertices):
        raise GraphError("lollipop walk requires all degrees odd")
    if not is_hamilton_cycle(G, C):
        raise GraphError("given edge set is not a Hamilton cycle")
    if edge_id not in C:
        raise GraphError("edge must lie on the given cycle")

    e = G.edges[edge_id]
    y, x = e.v, e.u  # anchor at the second stored endpoint
    y_edges = [i for i in G.edges_at(y) if i in C]
    drop = y_edges[0] if y_edges[1] == edge_id else y_edges[1]

    # path as vertex sequence y, x, ..., free end; plus its edge set
    def cycle_to_path() -> list[str]:
        seq = [y, x]
        used = {edge_id}
        cur = x
        while len(seq) < G.n:
            for i in G.edges_at(cur):
                if i in C and i not in used:
                    used.add(i)
                    cur = G.edges[i].other_end(cur)
                    seq.append(cur)
                    break
        return seq

    start_seq = cycle_to_path()
    start_edges = frozenset(C - {drop})
    visited = {start_edges}
    stack: list[tuple[list[str], frozenset[int]]] = [(start_seq, start_edges)]

    while stack:
        seq, edges = stack.pop()
        u = seq[-1]
        pos = {v: i for i, v in enumerate(seq)}
        for i in sorted(G.edges_at(u)):
            if i in edges:
                continue
            z = G.edges[i].other_end(u)
            if z == u:
                continue
            if z == y:
                closed = edges | {i}
                if closed != C:
                    return frozenset(closed)
                continue
            j = pos[z]
            # rotation: break the path edge from z toward the free end
            succ = seq[j + 1]
            broken = next(
                k for k in G.edges_at(z) if k in edges and G.edges[k].other_end(z) == succ
            )
            new_edges = frozenset((edges - {broken}) | {i})
            if new_edges in visited:
                continue
            visited.add(new_edges)
            new_seq = seq[: j + 1] + seq[j + 1 :][::-1]
            stack.append((new_seq, new_edges))
    raise RuntimeError(
        f"lollipop walk through edge {e.label!r} (n={G.n}, m={G.m}) exhausted"
        f" {len(visited)} Hamilton paths from the cycle {' '.join(cycle_labels(G, C))}:"
        f" found 1 Hamilton cycle through the edge where there are at least 2"
        f" (implementation defect)"
    )


def second_cycle_nearly_cubic(G: MultiGraph) -> tuple[HamiltonCycle, HamiltonCycle]:
    """Two distinct Hamilton cycles of a nearly cubic Hamiltonian graph."""
    if not G.is_nearly_cubic():
        raise GraphError("graph is not nearly cubic")
    least = _least_cycles(G, (), 2)
    if not least:
        raise GraphError("graph is not Hamiltonian")
    if len(least) < 2:
        raise RuntimeError(
            f"nearly cubic graph (n={G.n}, m={G.m}) has 1 Hamilton cycle,"
            f" {' '.join(cycle_labels(G, least[0]))}, where there are at least 2 (defect)"
        )
    return frozenset(least[0]), frozenset(least[1])


def cycle_labels(G: MultiGraph, cycle: Iterable[int]) -> list[str]:
    """Serialize a cycle as its sorted edge labels."""
    return sorted(G.edges[i].label for i in cycle)
