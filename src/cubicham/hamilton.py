"""Exact Hamilton-cycle enumeration, streaming counts, parity audits,
and the lollipop exchange walk for a second cycle through a fixed edge.

Every cycle query runs on one backtracking core, `_search`, which calls a
visitor once per Hamilton cycle and builds nothing itself.  The counting
helpers (`count_through`, `count_by_trace`, `edge_parity_report`) tally
inside their visitors, so their tallies take O(n + m) space whatever the
number of cycles.  `enumerate_hamilton_cycles` collects every cycle.  The
search itself holds one (m + 3n + 1)-int state list per branching level on
the current path, so O(depth * (m + n)) ints with depth at most m.
Every move the search makes, branched or forced, runs through one
forced-move loop, the only place an edge goes IN; it examines a vertex
only when the move just made can force it.

The core has two branch orders.  Full searches (counts, tallies, listing)
branch on the most constrained undecided edge, which keeps the search tree
small.  Least-cycle queries (`first_hamilton_cycle`,
`second_cycle_nearly_cubic`) branch on the lowest-id undecided edge, IN
child first; that order meets the cycles in ascending sorted edge-id
order, so the search stops at the k-th cycle instead of visiting them all.

A Hamilton cycle is represented as a frozenset of edge ids; output lists are
always sorted by the sorted edge-id tuple, so repeated runs produce
identical order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterable, Sequence

from .multigraph import GraphError, MultiGraph

HamiltonCycle = frozenset  # of edge ids

_UND, _IN, _OUT = 0, 1, 2
_is_in = _IN.__eq__


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


def _checked(G: MultiGraph, require: Iterable[int], forbid: Iterable[int]):
    require = frozenset(require)
    forbid = frozenset(forbid)
    if require & forbid:
        raise GraphError("require and forbid overlap")
    for i in require | forbid:
        if not 0 <= i < G.m:
            raise GraphError(f"unknown edge id {i}")
    return require, forbid


def _search(
    G: MultiGraph,
    require: Iterable[int],
    forbid: Iterable[int],
    visit: Callable[[list[int]], bool | None],
    lowest_first: bool = False,
) -> None:
    """Call `visit(s)` once for each Hamilton cycle of G that contains every
    edge of `require` and none of `forbid`, until a call returns true.

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

    By default each search node branches on the most constrained undecided
    edge: most IN edges at its ends, then fewest undecided edges there, then
    lowest id.  Branching at a path end instead slowed thin graphs with
    2-edge cuts by an order of magnitude, so the edge rule stays.

    With `lowest_first` each node branches on the lowest-id undecided edge
    and cycles arrive in ascending order of their sorted edge-id tuples.
    Let d be the lowest edge id in one of two cycles A and B but not the
    other; A is the smaller exactly when d is in A (both have n edges).  At
    the node where the search separates A from B, every edge below its
    branching edge is decided, and the same way for both, so that edge is
    d; its IN child, which holds A, is searched first.

    `visit(s)` runs once the n-th edge is IN; `settle` has then set
    every other edge OUT, and s[i] == _IN for i < G.m marks the cycle.  The
    visitor must not keep or change `s`.  A true return value ends the
    search.  Without `lowest_first` cycles arrive in search order, not
    sorted.
    """
    require, forbid = _checked(G, require, forbid)
    n, m = G.n, G.m
    if n == 0:
        return
    last = n - 1
    base = {v: m + 3 * k for k, v in enumerate(G.vertices)}
    eu = [base[e.u] for e in G.edges]
    ev = [base[e.v] for e in G.edges]
    ends = [p + q for p, q in zip(eu, ev)]  # minus one end's offset gives the other's
    n_in = m + 3 * n  # index of the IN-edge count
    s = [_UND] * (n_in + 1)
    inc: list[tuple[int, ...]] = [()] * n_in
    for v, p in base.items():
        inc[p] = G.edges_at(v)
        s[p + 1] = len(inc[p])
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
        best, best_in, best_und = -1, -1, 0
        for i in range(m):
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

    for i in range(m):
        p, q = eu[i], ev[i]
        if p == q or i in forbid:
            s[i] = _OUT
            s[p + 1] -= 1
            if p != q:
                s[q + 1] -= 1
    # no move made these fall to two undecided edges or fewer: push them now
    touched = [p for p in base.values() if s[p + 1] <= 2]
    if settle(s, require, touched) and all(s[i] == _IN for i in require):
        descend(s)


def enumerate_hamilton_cycles(
    G: MultiGraph, require: Iterable[int] = (), forbid: Iterable[int] = ()
) -> list[HamiltonCycle]:
    """All Hamilton cycles of G that contain every edge of `require` and
    none of `forbid`, each once, sorted by edge-id tuple."""
    edge_ids = range(G.m)
    out: list[tuple[int, ...]] = []
    _search(G, require, forbid, lambda s: out.append(tuple(compress(edge_ids, map(_is_in, s)))))
    return [frozenset(t) for t in sorted(out)]


def count_through(G: MultiGraph, require: Iterable[int] = (), forbid: Iterable[int] = ()) -> int:
    """Number of Hamilton cycles containing all of `require`, none of `forbid`."""
    count = 0

    def tally(s: list[int]) -> None:
        nonlocal count
        count += 1

    _search(G, require, forbid, tally)
    return count


def count_by_trace(G: MultiGraph, groups: Sequence[Iterable[int]]) -> dict:
    """Hamilton cycles of G counted by their traces on the edge groups.

    A key is a tuple with one frozenset per group, of the edges in that
    group the cycle uses; traces that no cycle has are absent.
    """
    groups = [tuple(g) for g in groups]
    counts: dict = {}

    def tally(s: list[int]) -> None:
        # a tuple in group order is cheaper to build per cycle than a
        # frozenset; each distinct trace is converted once, at the end
        key = tuple([tuple([i for i in g if s[i] == _IN]) for g in groups])
        counts[key] = counts.get(key, 0) + 1

    _search(G, (), (), tally)
    return {tuple(map(frozenset, key)): count for key, count in counts.items()}


def _least_cycles(G: MultiGraph, require: Iterable[int], k: int) -> list[tuple[int, ...]]:
    """The k least cycles through `require` as sorted edge-id tuples, in
    order: the first k that the lowest-id-first search meets."""
    edge_ids = range(G.m)
    least: list[tuple[int, ...]] = []

    def keep(s: list[int]) -> bool:
        least.append(tuple(compress(edge_ids, map(_is_in, s))))
        return len(least) >= k

    _search(G, require, (), keep, lowest_first=True)
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

    _search(G, (), (), visit)
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
