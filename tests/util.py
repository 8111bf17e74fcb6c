"""Shared test helpers: a frozen copy of the cubic sampler's first
version, independent brute-force Hamilton oracles (simple
graphs, multigraphs), a networkx bridge for isomorphism checks, a seeded
generator of random cut chains and the fixed set of generated chains the
chain tests share, a renaming of every piece's stubs apart that keeps each
cut's positions, a ladder whose right tail alternates two rungs with stub
names of their own, the labeled listing of a minor's cycles by dummy
edges that the chain engine's integer tabulation is checked against, the
memoized search's trace counts keyed as `count_by_trace` keys them, a
chain with its first pre-period piece repeated, and the labeled max-flow
queries (`min_edge_cut`, `max_vertex_disjoint_paths`) that the chain
engine's end degrees are checked against, and a reader of DOT quoted
strings."""

import random
import re
from itertools import combinations, permutations, product
from typing import Iterable

import networkx as nx

from cubicham import (
    ChainPiece,
    GraphError,
    MultiGraph,
    OneEndedChain,
    Tail,
    TwoEndedChain,
    enumerate_hamilton_cycles,
    hamilton,
    random_cubic_graph,
)


def frozen_random_cubic_graph(n: int, rng: random.Random) -> MultiGraph:
    """`sampling.random_cubic_graph` as first written, kept to pin the
    sampler's draws: goldens, the benchmark's reference counts and the
    generated chains all depend on them.  Connectivity is networkx's, so
    the pin does not lean on `MultiGraph.is_connected`."""
    labels = [f"v{i}" for i in range(n)]
    for _ in range(10000):
        stubs = [i for i in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = [(stubs[2 * i], stubs[2 * i + 1]) for i in range(len(stubs) // 2)]
        if any(a == b for a, b in pairs):
            continue
        if len({frozenset(p) for p in pairs}) != len(pairs):
            continue
        G = MultiGraph(labels, [(None, labels[a], labels[b]) for a, b in pairs])
        if nx.is_connected(to_nx(G)):
            return G
    raise GraphError("sampler failed to produce a simple connected cubic graph")


def naive_hamilton_cycles(G: MultiGraph) -> list[tuple[int, ...]]:
    """Permutation-based Hamilton cycle enumeration for small simple graphs."""
    assert G.is_simple()
    n = G.n
    if n < 3:
        return []
    eid = {}
    for e in G.edges:
        eid[(e.u, e.v)] = e.id
        eid[(e.v, e.u)] = e.id
    verts = list(G.vertices)
    found = set()
    for perm in permutations(verts[1:]):
        seq = [verts[0], *perm]
        ids = []
        for i in range(n):
            pair = (seq[i], seq[(i + 1) % n])
            if pair not in eid:
                break
            ids.append(eid[pair])
        else:
            found.add(tuple(sorted(ids)))
    return sorted(found)


def naive_multigraph_hamilton_cycles(G: MultiGraph) -> list[tuple[int, ...]]:
    """Permutation-based enumeration for small multigraphs: every cyclic
    vertex order, with each choice among parallel edges; loops never count."""
    between: dict = {}
    for e in G.edges:
        if not e.is_loop():
            between.setdefault((e.u, e.v), []).append(e.id)
            between.setdefault((e.v, e.u), []).append(e.id)
    verts = list(G.vertices)
    if G.n == 2:
        return sorted(combinations(between.get((verts[0], verts[1]), []), 2))
    if G.n < 3:
        return []
    found = set()
    for perm in permutations(verts[1:]):
        seq = [verts[0], *perm, verts[0]]
        steps = [between.get(pair, []) for pair in zip(seq, seq[1:])]
        for ids in product(*steps):
            found.add(tuple(sorted(ids)))
    return sorted(found)


def to_nx(G: MultiGraph) -> nx.MultiGraph:
    g = nx.MultiGraph()
    g.add_nodes_from(G.vertices)
    for e in G.edges:
        g.add_edge(e.u, e.v)
    return g


def isomorphic(G1: MultiGraph, G2: MultiGraph) -> bool:
    return nx.is_isomorphic(to_nx(G1), to_nx(G2))


def random_piece(rng: random.Random, left: int, right: int) -> ChainPiece:
    """A chain piece cut out of a random cubic graph on 6 to 12 vertices.

    Removing an edge frees a stub at each of its ends. Removed edges are
    pairwise disjoint, so every stub sits on its own vertex: the chain
    engine accepts stubs that share a vertex (`random_multigraph_piece`
    draws such pieces), but `tests/golden/` pins this generator's draws. A
    piece with an odd number of stubs loses a vertex instead and puts a
    stub on each of its three neighbours.
    """
    while True:
        G = random_cubic_graph(rng.choice((6, 8, 10, 12)), rng)
        vertices = list(G.vertices)
        edges = [(e.u, e.v) for e in G.edges]
        if (left + right) % 2:
            gone = rng.choice(vertices)
            vertices.remove(gone)
            freed = [u if v == gone else v for u, v in edges if gone in (u, v)]
            edges = [(u, v) for u, v in edges if gone not in (u, v)]
        else:
            cut = rng.sample(range(len(edges)), (left + right) // 2)
            freed = [x for i in cut for x in edges[i]]
            if len(set(freed)) < len(freed):
                continue
            edges = [e for i, e in enumerate(edges) if i not in cut]
        rng.shuffle(freed)
        return ChainPiece(
            MultiGraph(vertices, [(None, u, v) for u, v in edges]),
            tuple((f"L{i}", v) for i, v in enumerate(freed[:left])),
            tuple((f"R{i}", v) for i, v in enumerate(freed[left:])),
        )


def random_multigraph_piece(rng: random.Random, left: int, right: int) -> ChainPiece:
    """A chain piece cut out of a random cubic pairing on 4 to 10 vertices,
    which may keep parallel edges; a pairing with a loop is redrawn.

    Removing an edge frees a stub at each of its ends, and removed edges
    may meet or run parallel, so several stubs may sit on one vertex. A
    piece with 3 stubs loses a vertex instead, and a neighbour joined to it
    twice gets two of its stubs. The piece need not be connected.
    """
    while True:
        n = rng.choice((4, 6, 8, 10))
        ends = [v for v in range(n) for _ in range(3)]
        rng.shuffle(ends)
        edges = list(zip(ends[::2], ends[1::2]))
        if all(u != v for u, v in edges):
            break
    label = {v: f"v{v}" for v in range(n)}
    if (left + right) % 2:
        assert left + right == 3
        gone = rng.randrange(n)
        del label[gone]
        freed = [u if v == gone else v for u, v in edges if gone in (u, v)]
        edges = [(u, v) for u, v in edges if gone not in (u, v)]
    else:
        cut = rng.sample(range(len(edges)), (left + right) // 2)
        freed = [x for i in cut for x in edges[i]]
        edges = [e for i, e in enumerate(edges) if i not in cut]
    rng.shuffle(freed)
    return ChainPiece(
        MultiGraph(list(label.values()), [(None, label[u], label[v]) for u, v in edges]),
        tuple((f"L{i}", label[v]) for i, v in enumerate(freed[:left])),
        tuple((f"R{i}", label[v]) for i, v in enumerate(freed[left:])),
    )


def _random_matching(rng: random.Random, c: int) -> tuple:
    targets = list(range(c))
    rng.shuffle(targets)
    return tuple((f"R{i}", f"L{j}") for i, j in enumerate(targets))


def _random_tail(rng: random.Random, c: int, piece) -> Tail:
    pre, plen = rng.randint(0, 2), rng.randint(1, 3)
    return Tail(
        tuple(piece(rng, c, c) for _ in range(pre)),
        tuple(piece(rng, c, c) for _ in range(plen)),
        tuple(_random_matching(rng, c) for _ in range(pre)),
        tuple(_random_matching(rng, c) for _ in range(plen)),
    )


def random_chain(rng: random.Random, one_ended: bool, c: int, piece=random_piece):
    """A random chain with c-edge interfaces (c = 2 or 3) and, on each
    tail, a pre-period of 0-2 pieces and a period of 1-3 pieces, each drawn
    by `piece` (`random_piece` or `random_multigraph_piece`)."""
    if one_ended:
        initial = piece(rng, 0, c)
        return OneEndedChain(initial, _random_matching(rng, c), _random_tail(rng, c, piece))
    return TwoEndedChain(
        _random_tail(rng, c, piece), _random_matching(rng, c), _random_tail(rng, c, piece)
    )


KINDS = [(one_ended, c) for one_ended in (True, False) for c in (2, 3)]
# Seeds 0-19, plus every seed below 200 whose chain is Finite: only a
# Finite chain has certificates, and one random chain in thirty is Finite.
GENERATED_SEEDS = list(range(20)) + [29, 41, 68, 72, 115, 120]


def generated_chains() -> list:
    """One chain per seed of GENERATED_SEEDS, cycling through KINDS."""
    return [random_chain(random.Random(seed), *KINDS[seed % 4]) for seed in GENERATED_SEEDS]


def _renamed_piece(piece: ChainPiece, slot: str) -> ChainPiece:
    return ChainPiece(
        piece.graph,
        tuple((f"{slot}.{stub}", v) for stub, v in piece.left_ports),
        tuple((f"{slot}.{stub}", v) for stub, v in piece.right_ports),
    )


def _renamed_tail(tail: Tail, side: str) -> Tail:
    """Tail piece i in storage order gets slot f"{side}{i}"; a right tail's
    junction j pairs pieces (j, j+1), a left tail's pairs (j+1, j)."""
    pieces = tail.pre + tail.period
    slots = [f"{side}{i}" for i in range(1, len(pieces) + 1)]
    ifaces = []
    for j in range(1, len(pieces) + 1):
        a, b = slots[tail.fold(j) - 1], slots[tail.fold(j + 1) - 1]
        a, b = (a, b) if side == "r" else (b, a)
        ifaces.append(tuple((f"{a}.{x}", f"{b}.{y}") for x, y in tail.iface(j)))
    renamed = tuple(_renamed_piece(p, slot) for p, slot in zip(pieces, slots))
    n = len(tail.pre)
    return Tail(renamed[:n], renamed[n:], tuple(ifaces[:n]), tuple(ifaces[n:]))


def renamed_stubs(chain):
    """The chain with every piece's stubs renamed apart: stub s of the
    piece in slot p becomes "p.s" (slot "i" for the initial piece, "l1",
    "l2", ... and "r1", "r2", ... for the left and right tail pieces in
    storage order), and every matching renamed to match."""
    if isinstance(chain, OneEndedChain):
        entry = tuple((f"i.{x}", f"r1.{y}") for x, y in chain.entry_iface)
        initial = _renamed_piece(chain.initial, "i")
        return OneEndedChain(initial, entry, _renamed_tail(chain.tail, "r"), chain.name)
    central = tuple((f"l1.{x}", f"r1.{y}") for x, y in chain.central)
    return TwoEndedChain(
        _renamed_tail(chain.left, "l"), central, _renamed_tail(chain.right, "r"), chain.name
    )


def _rung(name: str) -> ChainPiece:
    """A ladder rung u-l whose stubs are named after the rung."""
    return ChainPiece(
        MultiGraph(("u", "l"), [("u_l", "u", "l")]),
        ((f"{name}.lu", "u"), (f"{name}.ll", "l")),
        ((f"{name}.ru", "u"), (f"{name}.rl", "l")),
    )


def _rungs(a: str, b: str) -> tuple:
    """The matching that glues rung a on the left to rung b on the right."""
    return ((f"{a}.ru", f"{b}.lu"), (f"{a}.rl", f"{b}.ll"))


def alternating_tail(swapped: bool = False) -> Tail:
    """A ladder tail whose period alternates rungs a and b, with stub names
    of their own; `swapped` writes its junctions in the left tail's
    orientation (each pairing piece j+1 with piece j), which a right tail
    must refuse."""
    ab, ba = _rungs("a", "b"), _rungs("b", "a")
    return Tail((), (_rung("a"), _rung("b")), (), (ba, ab) if swapped else (ab, ba))


def alternating_double_ladder(swapped: bool = False) -> TwoEndedChain:
    """The bi-infinite ladder with `alternating_tail` as its right tail."""
    left = Tail((), (_rung("c"),), (), (_rungs("c", "c"),))
    return TwoEndedChain(left, _rungs("c", "a"), alternating_tail(swapped), "alternating_ladder")


def frontier_count_by_trace(G: MultiGraph, dummies) -> dict:
    """Hamilton cycles of G counted by the edges they use at each dummy
    vertex, keyed as `count_by_trace(G, [G.edges_at(d) for d in dummies])`,
    by a frontier sweep that shares nothing with the search core.

    Vertices are ordered breadth first from the first dummy and edges by
    their later end, so a vertex enters the frontier with its first edge
    and leaves it with its last, where it must have degree 2.  A state
    maps each frontier vertex to its mate: itself while it has degree 0,
    the far end of its path at degree 1, and -1 at degree 2.  Joining the
    two ends of one path closes the cycle, which is allowed only once every
    vertex has been reached and every other one has degree 2.  The state
    also carries the sorted edges taken so far at each dummy.  Loops are
    never in a Hamilton cycle and are skipped.
    """
    order = {dummies[0]: 0}
    queue = [dummies[0]]
    for v in queue:
        for i in G.edges_at(v):
            w = G.edges[i].other_end(v)
            if w not in order:
                order[w] = len(order)
                queue.append(w)
    if len(order) < G.n:
        return {}  # disconnected
    pos = {v: order[v] for v in G.vertices}
    edges = sorted(
        (e for e in G.edges if not e.is_loop()),
        key=lambda e: (max(pos[e.u], pos[e.v]), min(pos[e.u], pos[e.v]), e.id),
    )
    last = {}  # vertex -> index of its last edge
    for t, e in enumerate(edges):
        last[pos[e.u]] = last[pos[e.v]] = t
    if len(last) < G.n:
        return {}  # a vertex without edges
    reached = 0  # vertices with an edge at or before edge t
    every_reached = []
    for t, e in enumerate(edges):
        reached = max(reached, pos[e.u] + 1, pos[e.v] + 1)
        every_reached.append(reached == G.n)
    groups = [[k for k, d in enumerate(dummies) if d in e.ends] for e in edges]

    states = {((), ((),) * len(dummies), False): 1}
    for t, e in enumerate(edges):
        u, v = pos[e.u], pos[e.v]
        nxt: dict = {}
        for (frontier, trace, closed), count in states.items():
            mate = dict(frontier)
            mate.setdefault(u, u)
            mate.setdefault(v, v)
            options = [(mate, trace, closed)]  # without the edge
            if not closed and mate[u] != -1 and mate[v] != -1:
                taken = tuple(
                    tr + (e.id,) if k in groups[t] else tr for k, tr in enumerate(trace)
                )
                joined = dict(mate)
                if mate[u] == v:  # the two ends of one path: close the cycle
                    others = (m for x, m in mate.items() if x not in (u, v))
                    if every_reached[t] and all(m == -1 for m in others):
                        joined[u] = joined[v] = -1
                        options.append((joined, taken, True))
                else:
                    a, b = mate[u], mate[v]
                    for x in (u, v):
                        if mate[x] != x:
                            joined[x] = -1
                    joined[a], joined[b] = b, a
                    options.append((joined, taken, closed))
            for m, tr, cl in options:
                if any(m[x] != -1 for x in (u, v) if last[x] == t):
                    continue  # a vertex leaves the frontier below degree 2
                key = (tuple(sorted((x, y) for x, y in m.items() if last[x] != t)), tr, cl)
                nxt[key] = nxt.get(key, 0) + count
        states = nxt
    return {
        tuple(frozenset(tr) for tr in trace): count
        for (frontier, trace, closed), count in states.items()
        if closed
    }


def memo_count_by_trace(G: MultiGraph, groups) -> dict:
    """The memoized search's table (`hamilton._memo_trace_counts`), keyed as
    `count_by_trace` keys it."""
    table = hamilton._memo_trace_counts(G.ints, groups)
    return {tuple(map(frozenset, key)): count for key, count in table.items()}


def dummy_cycles(G: MultiGraph, dummies) -> dict:
    """The Hamilton cycles of G keyed by the labels of the edges they use at
    each dummy vertex, as `ChainPiece._counts` keys them, each as the
    frozenset of labels of its edges away from the dummies; keys and cycles
    come in sorted cycle order.  Built from the labeled graph, through
    `enumerate_hamilton_cycles`."""
    stubs = [frozenset(G.edges_at(d)) for d in dummies]
    at_dummies = frozenset().union(*stubs)

    def labels(ids):
        return frozenset(G.edges[i].label for i in ids)

    buckets: dict = {}
    for cycle in enumerate_hamilton_cycles(G):
        buckets.setdefault(tuple(labels(cycle & ids) for ids in stubs), []).append(
            labels(cycle - at_dummies)
        )
    return {key: tuple(cycles) for key, cycles in buckets.items()}


def repeated_first_piece(chain: OneEndedChain, r: int) -> OneEndedChain:
    """The one-ended chain with its first pre-period piece repeated r >= 1
    times, each copy followed by the matching that follows it in the chain.
    On util seed 1260 (Finite(48)) the count becomes 48 * 4 ** (r - 1)."""
    tail = chain.tail
    repeated = Tail(
        (tail.pre[0],) * r + tail.pre[1:],
        tail.period,
        (tail.entry_ifaces[0],) * (r - 1) + tail.entry_ifaces,
        tail.period_ifaces,
    )
    return OneEndedChain(chain.initial, chain.entry_iface, repeated, chain.name)


# -- flow-based connectivity queries ----------------------------------------


def max_flow(n: int, arcs: list[tuple[int, int, int, int]], s: int, t: int) -> int:
    """Maximum s-t flow on nodes 0..n-1 by shortest augmenting paths
    (Edmonds-Karp), for the end-degree oracles below.

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


def flow_ends(G: MultiGraph, sources: Iterable[str], sink: str) -> frozenset[str]:
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


BIG = 10**9


def min_edge_cut(G: MultiGraph, sources: Iterable[str], sink: str) -> int:
    """Maximum number of edge-disjoint source-to-sink paths (= min separating cut)."""
    src = flow_ends(G, sources, sink)
    node = {v: i for i, v in enumerate(G.vertices)}
    arcs = [(node[e.u], node[e.v], 1, 1) for e in G.edges if e.u != e.v]
    root = G.n  # joined to every source
    arcs += [(root, node[v], BIG, 0) for v in src]
    return max_flow(G.n + 1, arcs, root, node[sink])


def max_vertex_disjoint_paths(G: MultiGraph, sources: Iterable[str], sink: str) -> int:
    """Maximum number of internally vertex-disjoint source-to-sink paths."""
    src = flow_ends(G, sources, sink)
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
    arcs += [(root, enter[v], BIG, 0) for v in src]
    return max_flow(root + 1, arcs, root, enter[sink])


# a DOT quoted string: any character but a quote or a backslash, or a
# backslash and the character it escapes
DOT_QUOTED = re.compile(r'"(?:[^"\\]|\\.)*"')


def dot_tokens(line: str) -> list[str]:
    """The quoted strings of one DOT line, unescaped, in order; a quote
    left outside them fails."""
    assert '"' not in DOT_QUOTED.sub("", line), line
    return [re.sub(r"\\(.)", r"\1", token[1:-1]) for token in DOT_QUOTED.findall(line)]
