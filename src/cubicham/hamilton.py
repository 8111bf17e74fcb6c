"""Exact Hamilton-cycle enumeration, streaming counts, parity audits,
and the lollipop exchange walk for a second cycle through a fixed edge.

Every cycle query runs on one backtracking core, `_search`, on a graph in
integer form (`MultiGraph.ints`, or a graph the chain engine glues
without labels).  Its docstring owns the search: the state, the one
forced-move loop `settle`, the two branch orders, the memoized counter
and why a memo may be shared across graphs.  The map of the rest:
  - `_tables`: the tables indexed by a vertex's state code, from which
    the search reads its forced moves and branch ranks;
  - visiting queries: `enumerate_hamilton_cycles` lists every cycle,
    `count_through` and `count_by_trace` tally inside the visitor, in
    O(n + m) space however many cycles there are, and
    `edge_parity_report` adds each cycle in as one packed int
    (`_edge_tally`); the least-cycle queries `first_hamilton_cycle` and
    `second_cycle_nearly_cubic` stop early (`_least_cycles`);
  - counting queries: `_memo_trace_counts`, the memoized counter, for the
    chain engine's truncation windows (`chains._window_counts`);
  - `_split` and `_Helper`: the two-process split of the graph queries'
    full searches;
  - `second_cycle_lollipop`: the exchange walk on all-odd graphs.

A Hamilton cycle is represented as a frozenset of edge ids; output lists are
always sorted by the sorted edge-id tuple, so repeated runs produce
identical order.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import pickle
import signal
import sys
import threading
import time
from dataclasses import dataclass
from functools import cache, partial
from itertools import compress
from operator import add, itemgetter
from typing import Callable, Iterable, Sequence

from .multigraph import GraphError, Ints, MultiGraph

HamiltonCycle = frozenset  # of edge ids

_UND, _IN, _OUT = 0, 1, 2
_is_in = _IN.__eq__
_DECIDED = bytes.maketrans(bytes([_OUT]), bytes([_IN]))  # IN and OUT alike
# 1 alone stays true: _IN among edge states
_ONES = bytes.maketrans(b"\2", b"\0")

# what `settle` does with a vertex it pops (`_tables`)
_PASS, _FAIL, _SATURATE, _ALL_IN = range(4)


@cache
def _tables(K: int) -> tuple:
    """The search's tables for vertex codes d * K + u, d an IN-degree of 0,
    1 or 2 and u an undecided-edge count below K (`_search`):
      - K;
      - `full`, 2K: the code of a vertex with IN-degree 2 and no undecided
        edge left; an IN move onto a code of `full` or more fails;
      - `step`, K - 1: what an IN move adds to each end's code, one IN edge
        more and one undecided edge fewer;
      - `push_out[c]`: whether a vertex whose code fell to c by an OUT move
        may now be forced, its IN-degree below 2 and at most two edges left
        to reach 2 with;
      - `pop[c]`: what `settle` does with a popped vertex: nothing; fail,
        since it can no longer reach IN-degree 2; saturate it, its
        IN-degree being 2, by putting its undecided edges OUT; or put all
        its undecided edges IN, since it needs every one of them;
      - `rank[c]` and `stop`: an edge's rank is the sum of its two ends'
        ranks, higher for more IN edges at its ends and then for fewer
        undecided ones, and reaches `stop` when both ends are path ends;
      - `path_ends(code)`: a selector, for `itertools.compress`, of the
        path ends (IN-degree 1) among the vertices, at C speed: through a
        byte translation while every code fits in a byte, and by `map` over
        a list past that.  `map` alone would do for every K, but it made
        the window brute force, the one user of the selector, about 12%
        slower (CHANGES.md).
    They depend on K alone, are built once per K and are shared by every
    search, which only reads them.  `_search` takes K one more than the
    graph's largest degree.  An edge's rank orders it by its ends'
    IN-degrees and then their undecided counts for every K above the
    largest degree, and which vertices are path ends does not depend on
    K, so neither do the search tree and the memo keys."""
    du = [divmod(c, K) for c in range(3 * K)]

    def action(d: int, u: int) -> int:
        if d == 2:
            return _SATURATE if u else _PASS
        if d + u == 2:
            return _ALL_IN
        return _FAIL if d + u < 2 else _PASS

    push_out = [d < 2 and d + u <= 2 for d, u in du]
    pop = [action(d, u) for d, u in du]
    rank = [2 * K * d + K - 1 - u for d, u in du]
    is_end = [d == 1 for d, _ in du]
    if len(is_end) <= 256:
        end_bytes = bytes(is_end) + bytes(256 - len(is_end))

        def path_ends(code: list[int]) -> bytearray:
            # bytearray() converts an int list fastest
            return bytearray(code).translate(end_bytes)

    else:
        path_ends = partial(map, is_end.__getitem__)
    return K, 2 * K, K - 1, push_out, pop, rank, 4 * K, path_ends


# the branching depth at which a split search deals out its subtrees
# (`_split`); CHANGES.md has the sweep that chose it
_SPLIT_DEPTH = 6


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
    part: tuple[int, int] | None = None,
) -> dict | None:
    """Call `visit(s)` once for each Hamilton cycle of an integer graph that
    contains every edge of `require` and none of `forbid`, until a call
    returns true.

    `graph` is (n, edges): vertices are 0..n-1, and edge i joins the two
    vertices of edges[i] (`MultiGraph.ints`, or a graph that the chain
    engine builds without labels).  Edge ids are list positions and the
    incidence order of each vertex is ascending id, as in a `MultiGraph`,
    so a labeled graph and its integer form are searched alike.

    The search state is three int lists.  `s` holds the state of edge i at
    s[i] (_UND, _IN or _OUT) and the number of IN edges at s[m], its last
    entry.  `code` and `mate` hold, for vertex k at index k, its code and
    its path mate.  The code is d * K + u for a vertex with IN-degree d
    and u undecided edges, K being one more than the largest degree (a
    loop counted once), so u < K and the code fits one int; `_tables`
    holds what the search reads off a code.  Vertices are named by their
    indices throughout, and `ends[i]` is the index sum of edge i's two
    ends, so one end taken from it gives the other.  The search holds one
    state, m + 2n + 1 ints, per branching level on the current path, so
    O(depth * (m + n)) ints with depth at most m.  Branching copies the
    three lists for the IN child (C-speed list copies) and hands the lists
    themselves to the OUT child, so there is no undo trail; the visiting
    search takes the OUT child in a loop, not a call.

    Loops are OUT from the start, and IN edges always form vertex-disjoint
    paths.  The mate of a path end is the index of the path's other end
    (an isolated vertex is its own mate), so joining two paths rewrites two
    entries.  When a join leaves ends a and b with fewer than n - 1 edges
    IN, every undecided a-b edge is set OUT at once, so an edge that closes
    a path can only go IN as the n-th edge, closing a Hamilton cycle.  The
    scan reads a's incidence list (a per-search neighbour set to skip
    it sped up dense graphs but slowed the small searches of segment
    minors, so there is none).

    Every move goes through `settle`, the one forced-move loop.  It takes
    edges to put IN (the branch edge, the required edges, or the undecided
    edges of a vertex that needs all of them, read from its incidence list
    in place; decided edges are skipped) and a stack of vertices to
    examine.  A vertex is pushed only when the move just made can force it:
    its IN-degree reached 2 with undecided edges left, which then go OUT;
    or its undecided count plus IN-degree fell to 2 or below, when every
    undecided edge it has must go IN.  A popped vertex that can no longer
    reach IN-degree 2 fails the branch, and an IN move onto a vertex that
    has IN-degree 2 already fails it too.  The IN move tests its ends'
    codes against 2K; an OUT move and a pop read what to do from tables
    indexed by the code (`_tables`), which write these rules once, for
    every code of a given K.  A vertex left with at most two
    edges once loops and forbidden edges are OUT is pushed before the first
    move, since no move made it fall.  So the loop never misses a forced
    vertex and stops with none left, whatever the order of its moves.  The
    required edges enter as one `todo`, which skips those already decided:
    one that an earlier move forced IN is fine, one that is a loop or was
    forced OUT is not, so the search goes on only if all of them are IN.

    By default each visiting search node branches on the most constrained
    undecided edge, which keeps the search tree small: most IN edges at
    its ends, then fewest undecided edges there, then lowest id.  The scan
    sums a rank per end, read from a table by the end's code, that orders
    edges so, and takes at once an edge whose ends are both path ends,
    the first that ranks `stop`.  It
    starts at the lowest undecided edge, since every edge below it is
    decided.  Branching at a path end instead slowed thin
    graphs with 2-edge cuts by an order of magnitude, so the edge rule
    stays.

    With `lowest_first` each node branches on the lowest-id undecided edge
    and cycles arrive in ascending order of their sorted edge-id tuples.
    Let d be the lowest edge id in one of two cycles A and B but not the
    other; A is the smaller exactly when d is in A (both have n edges).  At
    the node where the search separates A from B, every edge below its
    branching edge is decided, and the same way for both, so that edge is
    d; its IN child, which holds A, is searched first.  So a least-cycle
    query stops at its k-th cycle instead of visiting them all.

    `visit(s)` runs once the n-th edge is IN; `settle` has then set
    every other edge OUT, s[i] == _IN for i < m marks the cycle, and
    s[-1] == n.  The visitor must not keep or change `s`.  A true return
    value ends the search.  Without `lowest_first` cycles arrive in search
    order, not sorted.

    With `part` (r, k) the visiting search covers part r of k, and the k
    parts together visit each cycle once (`_split`).  The least-cycle
    search and the counting search take no `part`.

    With `visit` None the search counts instead, and returns {trace:
    cycles}, a trace being the bit mask of the `groups` edges (distinct
    ids, bit k for groups[k]) that a cycle uses.  `settle` runs as for a
    visitor, but `count` branches on the lowest undecided edge
    (`lowest_edge`), returns the table of the subtree below its node s, for
    the group edges still undecided at s, and keeps it in a memo, since
    nodes reached by different choices often pose the same problem.  The
    parent adds the group edges that its move to the child put IN.  The key is
    s's residual problem, all that decides the subtree's completions,
    measured from the end of the graph:
      - m - first, `first` being the lowest undecided edge, and the states
        of the edges from it on, IN and OUT alike.  Every edge below
        `first` is decided, so this says which edges are undecided.  A
        decided edge matters to the completions only through its ends'
        IN-degrees and paths, and to the traces only as a group edge,
        which the table leaves to the parent.  (The suffix's length is
        m - first already; the key keeps both.)
      - n - mate for the mate of each path end, in vertex order, the path
        ends being the vertices with a code from K to 2K - 1, which the
        tables' `path_ends` selects at C speed.  These
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

    The counter branches on the lowest undecided edge, not the most
    constrained one.  Where the edges are numbered along a run of small
    cuts, as a truncation window numbers them piece by piece
    (`chains._glue`), that edge is the search's frontier and the memo acts
    as a frontier-based search (Kawahara, Inoue, Iwashita and Minato,
    IEICE Trans. Fundamentals E100-A, 2017): the problems it meets differ
    only near the frontier, so their number grows polynomially with the
    graph's length.  The most constrained edge jumps about such a graph
    instead, and on one-ended chains with 2-edge cuts the memo then stayed
    exponential.  Only the window brute force (`chains._window_counts`)
    uses the counter: on segment minors and general graphs the key, built
    at every node, costs about what the hits save (CHANGES.md has the
    measurements).

    The memo lives as long as this call, but for `shared`, a dict that
    its owner passes in and keeps across calls: it holds the tables of the
    nodes whose `first` lies above every group edge.  Those tables are
    plain {0: cycles}, since no group edge is left undecided there.  An
    owner may pass one `shared` memo to several graphs, as
    `chains._window_counts` does for the windows of a one-ended chain,
    when their edge lists end alike: whenever two of them both have such
    a node with m - first = L, their last L edges join the same vertices
    counted from the end (vertex index k as n - k).  Then equal keys
    pose equal problems in either graph.  The undecided edges are the same
    edges.  A vertex without one of the last L edges has no undecided
    edge, so by the above it has IN-degree 2: it is no path end, adds
    nothing to n - t, and `settle` never reads it.  So nothing outside the
    shared suffix enters the subtree.  The nodes that still have a group
    edge undecided keep to this call's memo: their tables carry trace bits
    of this graph's groups, and the suffix holds group edges, which need
    not end where another graph's edges at the same place end (a
    window's dummy edges against the next window's junction edges).

    `descend` and `count` call themselves, so each would keep itself, and
    with it the whole search, in a cycle of references that only the
    cyclic collector frees.  The call drops both as it ends, and reference
    counting frees everything the search made.
    """
    n, edges = graph
    m = len(edges)
    require, forbid = _checked(m, require, forbid)
    if part is not None and (visit is None or lowest_first):
        raise ValueError("only the most-constrained-edge visiting search splits into parts")
    if n == 0:
        return {} if visit is None else None
    last = n - 1
    eu = [u for u, _ in edges]
    ev = [v for _, v in edges]
    ends = [u + v for u, v in edges]  # minus one end gives the other
    inc: list[list[int]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        inc[u].append(i)
        if u != v:
            inc[v].append(i)
    s = [_UND] * (m + 1)  # the edge states, then the IN-edge count
    code = list(map(len, inc))  # IN-degree 0, every edge undecided
    mate = list(range(n))
    # K, one more than the largest degree (a loop counted once)
    _, full, step, push_out, pop, rank, stop, path_ends = _tables(max(code) + 1)

    def settle(
        s: list[int], code: list[int], mate: list[int], todo: Iterable[int], touched: list[int]
    ) -> bool:
        """Put each undecided edge of `todo` IN, then make every move that
        the vertices on `touched` force, until none is left; false once the
        branch has no Hamilton cycle.  Edges go IN nowhere else."""
        while True:
            for i in todo:
                if s[i]:
                    continue
                p, q = eu[i], ev[i]
                cp, cq = code[p], code[q]
                if cp >= full or cq >= full:  # an end already has IN-degree 2
                    return False
                s[i] = _IN
                cp += step
                cq += step
                code[p] = cp
                code[q] = cq
                if cp > full:  # IN-degree 2 with undecided edges left
                    touched.append(p)
                if cq > full:
                    touched.append(q)
                t = s[m] + 1
                s[m] = t
                a = mate[p]
                if a == q:  # the n-th edge, closing the cycle
                    continue
                b = mate[q]
                mate[a] = b
                mate[b] = a
                if t < last:
                    ab = a + b
                    for j in inc[a]:
                        if not s[j] and ends[j] == ab:
                            s[j] = _OUT
                            ca = code[a] - 1
                            cb = code[b] - 1
                            code[a] = ca
                            code[b] = cb
                            if push_out[ca]:
                                touched.append(a)
                            if push_out[cb]:
                                touched.append(b)
            while touched:
                p = touched.pop()
                action = pop[code[p]]
                if action == _ALL_IN:  # the commonest action, tested first
                    todo = inc[p]
                    break
                if action == _SATURATE:
                    for j in inc[p]:
                        if not s[j]:
                            s[j] = _OUT
                            q = ends[j] - p
                            cq = code[q] - 1
                            code[q] = cq
                            if push_out[cq]:
                                touched.append(q)
                    code[p] = full
                elif action == _FAIL:
                    return False
            else:
                return True

    def branch_edge(s: list[int], code: list[int]) -> int:
        try:
            first = s.index(_UND, 0, m)  # every edge below it is decided
        except ValueError:
            return -1
        best, top = -1, -1
        for i in range(first, m):
            if s[i]:
                continue
            r = rank[code[eu[i]]] + rank[code[ev[i]]]
            if r > top:
                if r >= stop:  # both ends are path ends
                    return i
                best, top = i, r
        return best

    def lowest_edge(s: list[int], code: list[int]) -> int:
        try:
            return s.index(_UND, 0, m)
        except ValueError:
            return -1

    pick = lowest_edge if lowest_first else branch_edge
    # the split depth, the number of parts and this part's number: the
    # whole tree at a depth no node has
    split, parts, mine = (-1, 1, 0) if part is None else (_SPLIT_DEPTH, part[1], part[0])
    numbered = -1  # the number of the last node met at the split depth

    def descend(s: list[int], code: list[int], mate: list[int], depth: int) -> bool:
        """Search below the node (s, code, mate), `depth` branchings below
        the root, its OUT children in a loop; true once the visitor has
        asked to stop."""
        nonlocal numbered
        while True:
            if depth == split:
                numbered += 1
                if numbered % parts != mine:
                    return False
            if s[m] == n:
                # a cycle above the split depth is part 0's
                return (depth >= split or not mine) and bool(visit(s))
            i = pick(s, code)
            if i < 0:
                return False
            depth += 1
            t, ct, mt = s[:], code[:], mate[:]
            if settle(t, ct, mt, (i,), []) and descend(t, ct, mt, depth):
                return True
            s[i] = _OUT
            p, q = eu[i], ev[i]
            code[p] -= 1
            code[q] -= 1
            if not settle(s, code, mate, (), [p, q]):
                return False

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

    def count(s: list[int], code: list[int], mate: list[int]) -> dict:
        """The cycles below the node by their trace on the group edges
        undecided there, as a bit mask; branches on the lowest undecided
        edge and is memoized on the node's residual problem."""
        if s[m] == n:
            return leaf
        first = lowest_edge(s, code)
        if first < 0:
            return {}
        # bytearray() converts an int list fastest
        key = (
            m - first,
            bytes(bytearray(s[first:m]).translate(_DECIDED)),
            tuple(map(n.__sub__, compress(mate, path_ends(code)))),
        )
        store = memo if first < share_from else shared
        table = store.get(key)
        if table is not None:
            return table
        table = {}
        open_bits = [(g, bit) for g, bit in bits if not s[g]]
        t, ct, mt = s[:], code[:], mate[:]
        if settle(t, ct, mt, (first,), []):
            merge(table, put_in(t, open_bits), count(t, ct, mt))
        s[first] = _OUT
        p, q = eu[first], ev[first]
        code[p] -= 1
        code[q] -= 1
        if settle(s, code, mate, (), [p, q]):
            merge(table, put_in(s, open_bits), count(s, code, mate))
        store[key] = table
        return table

    for i in range(m):
        p, q = eu[i], ev[i]
        if p == q or i in forbid:
            s[i] = _OUT
            code[p] -= 1
            if p != q:
                code[q] -= 1
    try:
        # no move made these fall to two undecided edges or fewer: push them now
        touched = [p for p in range(n) if code[p] <= 2]
        ok = settle(s, code, mate, require, touched) and all(s[i] == _IN for i in require)
        if visit is not None:
            if ok:
                descend(s, code, mate, 0)
            return None
        table: dict = {}
        if ok:
            merge(table, put_in(s, bits), count(s, code, mate))
        return table
    finally:
        # `descend` and `count` call themselves: drop them, so that reference
        # counting frees the search and no cycle is left to the collector
        descend = count = None


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


def _count(graph: Ints, require: frozenset, forbid: frozenset, part: tuple | None) -> int:
    """The Hamilton cycles through `require` and avoiding `forbid` that one
    part of the search visits (`_search`)."""
    count = 0

    def tally(s: list[int]) -> None:
        nonlocal count
        count += 1

    _search(graph, require, forbid, tally, part=part)
    return count


def count_through(G: MultiGraph, require: Iterable[int] = (), forbid: Iterable[int] = ()) -> int:
    """Number of Hamilton cycles containing all of `require`, none of `forbid`."""
    # a bad edge set raises here, before any part of the search starts
    require, forbid = _checked(G.m, require, forbid)
    return sum(_split(_count, G.ints, require, forbid))


def _trace_counts(graph: Ints, groups: Sequence[Iterable[int]], part: tuple | None = None) -> dict:
    """Hamilton cycles of an integer graph counted by their traces on the
    edge groups, in the order the search first meets each trace.  A key is
    a tuple with one tuple per group, of the edges in that group the cycle
    uses, in group order; traces that no cycle has are absent.  With
    `part`, only the cycles that part of the search visits (`_search`)."""
    groups = [tuple(g) for g in groups]
    edges = list(dict.fromkeys(i for g in groups for i in g))
    # a cycle's trace is the tuple of its group edges' states, read at C
    # speed; s[-1], the IN-edge count, is n at every cycle, and reading it
    # too makes the trace a tuple however few group edges there are
    trace = itemgetter(*edges, -1)
    traces: dict = {}

    def tally(s: list[int]) -> None:
        key = trace(s)
        traces[key] = traces.get(key, 0) + 1

    _search(graph, (), (), tally, part=part)
    at = {i: k for k, i in enumerate(edges)}
    # each distinct trace becomes a key once
    return {
        tuple([tuple([i for i in g if key[at[i]] == _IN]) for g in groups]): count
        for key, count in traces.items()
    }


def _memo_trace_counts(
    graph: Ints, groups: Sequence[Iterable[int]], shared: dict | None = None
) -> dict:
    """`_trace_counts` by the memoized search (`_search` with no visitor).
    Its keys come in the order of the lowest-edge search, not the
    visitor's, so it equals `_trace_counts` as a dict, not item by item.  `shared`, if given, is a
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
    group the cycle uses; traces that no cycle has are absent.  The order
    of the keys is not part of the answer.
    """
    table: dict = {}
    for counts in _split(_trace_counts, G.ints, [tuple(g) for g in groups]):
        for key, count in counts.items():
            table[key] = table.get(key, 0) + count
    return {tuple(map(frozenset, key)): count for key, count in table.items()}


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


def _edge_tally(graph: Ints, part: tuple | None) -> tuple[list[int], int]:
    """The Hamilton cycles through each edge, and all of them, among those
    that one part of the search visits (`_search`), tallied at C speed:
    each cycle's edge states, IN as 1 and OUT as 0, are read as one
    little-endian int with a base-256 digit per edge and added into
    `packed`.  No digit can carry before 256 cycles, so `packed` is
    unpacked into the tallies every 255 cycles and once at the end, and
    takes O(m) space."""
    m = len(graph[1])
    tally = [0] * m
    packed = total = 0

    def unpack() -> None:
        nonlocal packed
        tally[:] = map(add, tally, packed.to_bytes(m, "little"))
        packed = 0

    def visit(s: list[int]) -> None:
        nonlocal packed, total
        packed += int.from_bytes(bytearray(s[:m]).translate(_ONES), "little")
        total += 1
        if not total % 255:
            unpack()

    _search(graph, (), (), visit, part=part)
    unpack()
    return tally, total


def edge_parity_report(G: MultiGraph) -> EdgeParityReport:
    """Hamilton cycles per edge (`_edge_tally`), and whether an edge lies on
    an odd number of them where every vertex has odd degree."""
    edge_ids = range(G.m)
    tally, total = [0] * G.m, 0
    for part_tally, part_total in _split(_edge_tally, G.ints):
        tally = list(map(add, tally, part_tally))
        total += part_total
    counts = dict(zip(edge_ids, tally))
    odd_degrees = all(G.degree(v) % 2 == 1 for v in G.vertices)
    odd_edges = tuple(i for i in edge_ids if tally[i] % 2 == 1) if odd_degrees else ()
    return EdgeParityReport(counts, total, odd_degrees, odd_edges)


# -- the split: one helper process per process ---------------------------------

# the jobs a helper runs, by name; each takes the part it searches as its
# last argument
_JOBS = {job.__name__: job for job in (_count, _trace_counts, _edge_tally)}
_HALVES = (0, 2), (1, 2)
# the attribute of `sys` that holds the process's helper: outside the
# package, so that a fresh import of the package finds the helper that an
# earlier import started
_SLOT = "_cubicham_search_helper"


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serve(requests: int, replies: int, parent: int) -> None:
    """The helper's loop: read a pickled (job name, arguments) from
    `requests`, write back (True, result) or (False, error text) on
    `replies`, until the parent closes its end.  It leaves SIGINT to the
    parent and touches none of the stdio it inherited.  A parent killed by
    a signal runs no exit hook, and the end of the pipe reaches a helper
    only between jobs, so a watcher thread also ends the helper, in the
    middle of a job, once `parent` has died."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(target=_exit_with, args=(parent,), daemon=True).start()
    with open(requests, "rb") as inbox, open(replies, "wb") as outbox:
        while True:
            try:
                name, args = pickle.load(inbox)
            except EOFError:
                return
            try:
                reply = True, _JOBS[name](*args)
            except Exception as exc:  # the parent runs the job itself
                reply = False, f"{type(exc).__name__}: {exc}"
            pickle.dump(reply, outbox)
            outbox.flush()


def _exit_with(parent: int) -> None:
    """End this process once `parent` is no longer its parent."""
    while os.getppid() == parent:
        time.sleep(0.25)
    os._exit(0)


class _Helper:
    """A forked helper process that searches one half of each split query,
    and the two pipes to it.  The parent stops it at exit."""

    def __init__(self) -> None:
        requests_r, requests_w = os.pipe()
        replies_r, replies_w = os.pipe()
        self.owner = os.getpid()
        pid = os.fork()
        if pid == 0:  # the helper
            try:
                os.close(requests_w)
                os.close(replies_r)
                _serve(requests_r, replies_w, self.owner)
            finally:
                os._exit(0)
        os.close(requests_r)
        os.close(replies_w)
        self.pid: int | None = pid
        self.requests = open(requests_w, "wb")
        self.replies = open(replies_r, "rb")
        atexit.register(self.stop)

    def run(self, job: Callable, args: tuple) -> list:
        """`job`'s results on both halves: the second half sent to the
        helper and the first searched here meanwhile.  A half the helper
        fails to return, by dying or by an error, is searched here too, and
        the helper is stopped.  It is also stopped when this process is
        interrupted with a request in flight, whose reply the next query
        would otherwise read."""
        try:
            with contextlib.suppress(OSError):  # a dead helper: EOF below
                pickle.dump((job.__name__, (*args, _HALVES[1])), self.requests)
                self.requests.flush()
            mine = job(*args, _HALVES[0])
            try:
                ok, theirs = pickle.load(self.replies)
            except (EOFError, OSError, pickle.UnpicklingError):
                ok = False
        except BaseException:
            self.stop()
            raise
        if not ok:
            self.stop()
            theirs = job(*args, _HALVES[1])
        return [mine, theirs]

    def stop(self) -> None:
        """Close the pipes, then kill and reap the helper; in a process
        forked from the owner, only close this copy of the pipes."""
        if self.pid is None:
            return
        with contextlib.suppress(OSError):  # a request half sent to a dead helper
            self.requests.close()
        self.replies.close()
        if os.getpid() == self.owner:
            os.kill(self.pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):  # reaped elsewhere
                os.waitpid(self.pid, 0)
        self.pid = None


def _helper() -> _Helper | None:
    """This process's helper, forked on first use; None where a search must
    run whole here: without `os.fork`, on fewer than two CPUs, with more
    than one thread running (forking then is unsafe), or once the helper
    has failed."""
    if not hasattr(os, "fork") or _cpus() < 2 or threading.active_count() > 1:
        return None
    helper = getattr(sys, _SLOT, None)
    if helper is not None and helper.owner != os.getpid():  # inherited by a fork
        helper.stop()
        helper = None
    if helper is None:
        helper = _Helper()
        setattr(sys, _SLOT, helper)
    return helper if helper.pid is not None else None


def _split(job: Callable, *args) -> list:
    """The results of `job(*args, part)` on the two halves of the search,
    one searched by the helper, to be added up; or, without a helper, the
    one result of the whole search, `part` None.

    The full searches of the graph queries `count_through`,
    `edge_parity_report` and `count_by_trace` run in two parts at once,
    one in this process and one in a helper process (`_Helper`).  Each
    part (r, 2) walks the same deterministic top of the search tree:
    `_search`'s `descend` counts the branchings above each node, numbers
    the nodes at branching depth `_SPLIT_DEPTH` in the order it meets
    them, and goes on below only those whose number is r mod 2; part 0
    alone visits the cycles found above that depth.  The tree above that
    depth is the same in both parts, so each cycle is visited by exactly
    one part, the parts share nothing but their results, and those add up
    to the serial ones exactly.

    The helper is forked on the first split query and kept for the rest
    of the process, one per process however often the package is
    imported (`_helper`).  A search runs whole in this process where
    there is no `os.fork`, where the process may use fewer than two CPUs,
    where more than one thread runs (forking then is unsafe), and once
    the helper has failed.  `enumerate_hamilton_cycles` does not split, as
    the helper would send every cycle back, nor do the least-cycle
    queries, which stop early in order, nor the chain engine's searches
    (`_trace_counts` and `_sorted_cycles` on segment minors, the memoized
    counter on windows): a segment minor's search is so short that
    splitting it made `chain analyze` slower (CHANGES.md)."""
    helper = _helper()
    return [job(*args, None)] if helper is None else helper.run(job, args)


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
