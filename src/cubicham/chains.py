"""Cut-chain presentations of one- and two-ended infinite cubic graphs.

A chain is an eventually periodic sequence of finite pieces glued along
2- or 3-edge interfaces.  Transfer layers count each segment's Hamilton
cycles per boundary pair state, and a greatest-fixed-point survival
analysis classifies the Hamilton cycles of the limit graph as Zero,
Finite(k) or Infinite.  Each part is explained where it lives:
  - `ChainPiece`: a piece's one integer form and its tables, which every
    slot, side and chain holding the piece shares;
  - `_glue`: every window, segment minor and max-flow network, glued from
    those integer forms; `materialize` only labels what it glues;
  - `_by_state`: the one place edges become cut positions, of which a
    pair state is a frozenset;
  - `_Direction`: one ray side, the only code that knows its orientation,
    with its steps, `push` (the one propagation loop) and `rays` (the one
    ray enumerator); `_fold` is the one period fold;
  - `_analyze_rays`: the classification of one side from a seed vector;
  - `Certificates`: the certificates of a Finite count, listed lazily;
  - `truncation_consistency`: the brute-force oracle, which counts each
    window with the memoized search (`_window_counts`);
  - `end_degree`: the exact end degree, from one max flow (`_level_cut`);
  - `chain_from_doc` and `chain_to_json`: the chain file format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, islice, product, tee
from operator import attrgetter
from typing import Callable, Iterable, Iterator

from .hamilton import _memo_trace_counts, _sorted_cycles, _trace_counts, is_hamilton_cycle
from .multigraph import GraphError, Ints, MultiGraph, _dumps, _grid, _quote, _read_doc

State = frozenset  # of cut positions
Matching = tuple[tuple[str, str], ...]  # (right stub of left piece, left stub of right piece)


class ChainError(ValueError):
    """Malformed chain or violated chain invariant."""


class ChainPiece:
    """Finite piece with dangling boundary stubs on each side.

    A port (stub, vertex) stands for a half-edge named `stub` attached to
    the interior vertex `vertex`; gluing two matched stubs produces one cut
    edge, attaching stubs to a dummy produces dummy edges.  Every vertex
    has degree 3 once its stubs are counted (a loop counts 2).

    A piece's integer form, `_flow`, is its vertex count, its edges as
    vertex-index pairs (loops included) and the vertex index of each stub.
    Windows, max-flow networks and the tabulation are glued from it
    (`_glue`), which reads nothing else, and the checks above run on it.
    A piece read from a chain file (`_piece_from_doc`) is kept in that
    form and builds its labeled `graph` only when that is first read, so
    a chain file becomes tables with no labeled graph built.
    Pieces are not changed once built.

    Every piece is tabulated alike, once: its segment minor's Hamilton
    cycles counted by the stubs they use at each dummy (`_counts`), so
    every slot, side and chain holding the same piece object shares one
    search.  The search runs on the minor's integer form (`_minor`) and
    keys each cycle by the states of the stub edges, and each distinct key
    is turned into stub names once.  Transfer layers and the level-0
    vector hold these counts only.  The cycles themselves are enumerated
    on first use (`_cycles`), and only certificates, witnesses included,
    ask for them (`_Direction.choices`).

    A piece may put several stubs on one vertex, and have parallel edges
    or loops; its tables count the limit graph's Hamilton circles exactly
    all the same.  A Hamilton circle crosses every finite cut an even
    number of times (R. Diestel, *Graph Theory*, ch. 8), so each 2- or
    3-edge cut exactly twice.  Its restriction to the segment between cuts
    j and j+1 is then two disjoint paths, each joining a crossing at cut j
    to one at cut j+1, since the arc beyond cut j runs out to the end and
    back.  So it never uses two stubs of one vertex at the same cut.  In a
    tail piece's minor a Hamilton cycle passes each dummy once, and it
    cannot use two parallel stub edges at one vertex either: that would be
    the 2-cycle u-beta-u, which misses alpha.  So both count the same
    configurations: parallel interior edges are distinct edges on both
    sides, and a loop blocks its vertex on both sides.  An initial piece's
    minor is its chain's level-0 window, whose cycles are the arcs inside
    cut 0 closed through beta.
    """

    def __init__(
        self,
        graph: MultiGraph,
        left_ports: tuple[tuple[str, str], ...],
        right_ports: tuple[tuple[str, str], ...],
    ):
        self.graph = graph
        labels = map(attrgetter("label"), graph.edges)
        self._set(graph.vertices, labels, graph._index, graph.ints[1], left_ports, right_ports)

    @classmethod
    def _read(cls, vertices, labels, index, edges, left_ports, right_ports) -> ChainPiece:
        """A piece from the integer form of its graph (`_read_doc`), whose
        `graph` is built on first read."""
        piece = cls.__new__(cls)
        piece._labels = (vertices, labels)
        piece._set(vertices, labels, index, edges, left_ports, right_ports)
        return piece

    def _set(self, vertices, labels, index, edges, left_ports, right_ports) -> None:
        """Check the piece's degrees and stubs on its integer form, then
        keep its ports and `_flow`."""
        ports = left_ports + right_ports
        stubs = [s for s, _ in ports]
        for stub in stubs:
            if not isinstance(stub, str):
                raise ChainError(f"stub {stub!r} is not a string")
        if len(set(stubs)) != len(stubs):
            raise ChainError("stub labels must be unique within a piece")
        interior = set(labels)
        degree = [0] * len(vertices)
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1  # so a loop counts 2
        at = {}
        for stub, v in ports:
            i = index.get(v)
            if i is None:
                raise ChainError(f"port vertex {v!r} not in piece")
            if stub in interior:
                raise ChainError(f"stub {stub!r} collides with an interior edge label")
            degree[i] += 1
            at[stub] = i
        if degree.count(3) != len(degree):
            v, d = next((v, d) for v, d in zip(vertices, degree) if d != 3)
            raise ChainError(f"piece vertex {v!r} has degree {d} with its stubs, not 3")
        self.left_ports = left_ports
        self.right_ports = right_ports
        self._flow = (len(vertices), edges, at)

    @cached_property
    def graph(self) -> MultiGraph:
        """The piece's labeled graph, built on first read for a piece that
        was read in integer form, and checked as every `MultiGraph` is."""
        vertices, labels = self._labels
        edges = zip(labels, self._flow[1])
        return MultiGraph(vertices, [(a, vertices[u], vertices[v]) for a, (u, v) in edges])

    def _minor(self) -> tuple[Ints, list[range]]:
        """The segment minor in integer form (`_glue`): the piece with its
        left stubs on a dummy alpha, if it has any, and its right stubs on
        a dummy beta.  Also the ids of the stub edges at each dummy (beta's
        alone on an initial piece), in port order."""
        return _glue([self], [], bool(self.left_ports), True)

    @cached_property
    def _counts(self) -> dict:
        """(left stub pair, right stub pair) -> number of Hamilton cycles of
        the segment minor through those stubs, keyed by the right pair alone
        on an initial piece, in the order the search meets them; pairs no
        cycle uses are absent."""
        graph, groups = self._minor()
        ids = [i for group in groups for i in group]
        stub = dict(zip(ids, [s for s, _ in self.left_ports + self.right_ports]))
        return {
            tuple(frozenset([stub[i] for i in trace]) for trace in key): count
            for key, count in _trace_counts(graph, groups).items()
        }

    @cached_property
    def _cycles(self) -> dict:
        """The segment minor's Hamilton cycles keyed as `_counts`, each as the
        frozenset of its interior edge labels; keys and cycles in sorted
        cycle order."""
        graph, groups = self._minor()
        names = [e.label for e in self.graph.edges]
        interior = len(names)
        names += [s for s, _ in self.left_ports + self.right_ports]
        buckets: dict = {}
        for cycle in _sorted_cycles(graph):
            key = tuple(frozenset([names[i] for i in cycle if i in ids]) for ids in groups)
            buckets.setdefault(key, []).append(frozenset([names[i] for i in cycle if i < interior]))
        return {key: tuple(cycles) for key, cycles in buckets.items()}


def _fold(j: int, pre: int, plen: int) -> int:
    """The least index with the same piece and junction as j (j >= 0) on a
    run whose indices 1..pre are its pre-period and whose later indices
    repeat with a period of length plen: the one period fold, for tails
    (`Tail.fold`) and certificates (`LimitCycleCertificate.choice_at`)."""
    return j if j <= pre else pre + 1 + (j - 1 - pre) % plen


@dataclass(frozen=True)
class Tail:
    """Eventually periodic run of pieces, indexed from 1 going outward."""

    pre: tuple[ChainPiece, ...]
    period: tuple[ChainPiece, ...]
    entry_ifaces: tuple[Matching, ...]  # junctions 1..len(pre)
    period_ifaces: tuple[Matching, ...]  # then cycling with the period

    def __post_init__(self):
        if not self.period:
            raise ChainError("period must be nonempty")
        if len(self.entry_ifaces) != len(self.pre):
            raise ChainError("need one entry interface per pre-period junction")
        if len(self.period_ifaces) != len(self.period):
            raise ChainError("need one interface per period junction")

    # built once per tail on first read; cached_property writes the
    # instance dict, not a field, so equality and hashing see fields only
    @cached_property
    def plen(self) -> int:
        return len(self.period)

    @cached_property
    def _pieces(self) -> tuple[ChainPiece, ...]:
        return self.pre + self.period

    @cached_property
    def _ifaces(self) -> tuple[Matching, ...]:
        return self.entry_ifaces + self.period_ifaces

    def fold(self, j: int) -> int:
        """The least index with the same piece and junction as j (j >= 0)."""
        return _fold(j, len(self.pre), self.plen)

    def piece(self, j: int) -> ChainPiece:
        if j < 1:
            raise ChainError(f"invalid tail piece index {j}")
        return self._pieces[self.fold(j) - 1]

    def iface(self, j: int) -> Matching:
        """Matching at the junction between pieces j and j+1."""
        if j < 1:
            raise ChainError(f"invalid tail junction index {j}")
        return self._ifaces[self.fold(j) - 1]


def _check_chain(chain: CutChain) -> None:
    """Every distinct matching of every ray side against the pieces on
    either side of it, in that side's orientation; then one cut size."""
    sizes = set()
    for d in chain._directions.values():
        for j in range(d.J + d.plen):
            matching, (left, right) = d.matching(j), d.sides(j)
            sizes.add(len(matching))
            if len(matching) not in (2, 3):
                raise ChainError(f"interface size {len(matching)} unsupported (only 2 or 3)")
            if sorted(a for a, _ in matching) != sorted(s for s, _ in left.right_ports):
                raise ChainError("interface does not match right boundary of the left piece")
            if sorted(b for _, b in matching) != sorted(s for s, _ in right.left_ports):
                raise ChainError("interface does not match left boundary of the right piece")
    if len(sizes) != 1:
        raise ChainError("interface size must be constant along the chain")


@dataclass(frozen=True)
class OneEndedChain:
    initial: ChainPiece
    entry_iface: Matching  # junction 0, between the initial piece and tail piece 1
    tail: Tail
    name: str = ""

    def __post_init__(self):
        if self.initial.left_ports:
            raise ChainError("initial piece must have no left boundary")
        _check_chain(self)

    mode = "one-ended"
    sides = ("right",)

    @property
    def cut_size(self) -> int:
        return len(self.entry_iface)

    @cached_property
    def _directions(self) -> dict:
        return {"right": _Direction(self.tail, self.initial, self.entry_iface, "right", self)}

    @cached_property
    def _window_memo(self) -> dict:
        """The memo that every window count of this chain shares
        (`_window_counts`), freed with the chain."""
        return {}

    @cached_property
    def _initial_counts(self) -> dict:
        """Hamilton-cycle counts of the level-0 truncation per pair state at
        cut 0: the initial piece's segment counts, its minor having only
        the right dummy.  They seed every propagation."""
        counts = _by_state(self.initial._counts, tuple(a for a, _ in self.entry_iface))
        return {s: counts.get((s,), 0) for s in _states(self.cut_size)}

    @cached_property
    def _initial_cycles(self) -> dict:
        """Interior edge labels of the level-0 truncation's Hamilton cycles,
        as the window labels them, per pair state at cut 0, in sorted cycle
        order; for certificates."""
        tag = self._directions["right"].tag(0)
        cycles = _by_state(self.initial._cycles, tuple(a for a, _ in self.entry_iface))
        return {
            s: tuple(frozenset(_tag(lab, tag) for lab in c) for c in cycles.get((s,), ()))
            for s in _states(self.cut_size)
        }

    def piece(self, i: int) -> ChainPiece:
        return self._directions["right"].piece(i)

    def iface(self, j: int) -> Matching:
        return self._directions["right"].matching(j)


@dataclass(frozen=True)
class TwoEndedChain:
    """Bi-infinite chain; both tails are stored in rightward orientation.

    Left-tail piece j sits between cuts F(-j) and F(-(j-1)); the junction
    matching left.iface(j) pairs the right stubs of piece j+1 with the left
    stubs of piece j.  The central matching pairs the right stubs of left
    piece 1 with the left stubs of right piece 1 and is cut F(0).
    """

    left: Tail
    central: Matching
    right: Tail
    name: str = ""

    def __post_init__(self):
        _check_chain(self)

    mode = "two-ended"
    sides = ("left", "right")

    @property
    def cut_size(self) -> int:
        return len(self.central)

    @cached_property
    def _directions(self) -> dict:
        return {
            "left": _Direction(self.left, self.right.piece(1), self.central, "left", self),
            "right": _Direction(self.right, self.left.piece(1), self.central, "right", self),
        }


CutChain = OneEndedChain | TwoEndedChain


def _name(chain: CutChain) -> str:
    """The chain as defect messages name it."""
    return chain.name or f"unnamed {chain.mode} chain with {chain.cut_size}-edge cuts"


def _show(states: Iterable[State]) -> str:
    """States as cut positions, for messages: {0,1} {0,2}."""
    return " ".join("{" + ",".join(map(str, sorted(s))) + "}" for s in sorted(states, key=sorted))


# -- materialization ---------------------------------------------------------


def _tag(label: str, tag) -> str:
    return label if tag is None else f"{label}@{tag}"


def _glue(
    pieces: list[ChainPiece],
    ifaces: list[Matching],
    left: bool,
    right: bool,
    outer_first: bool = False,
) -> tuple[Ints, list[range]]:
    """Pieces glued left to right by the matchings at their junctions, in
    integer form, with the first piece's left stubs on a left dummy if
    `left` and the last piece's right stubs on a right dummy if `right`.
    Also the ids of the stub edges at each dummy, in port order.  Every
    window, segment minor and max-flow network (`_level_cut`) is glued
    here, from each piece's one integer form (`ChainPiece._flow`);
    `materialize` only labels the result, so a labeled graph and its
    integer form are the same graph, searched alike: keys and cycles come
    in the labeled graph's order, and a stub edge's id names its stub.

    In chain order, the default, vertices come piece by piece in each
    piece's order, then the left dummy, then the right one; edges come
    piece by piece in each piece's order, then the glued edges junction by
    junction in matching order, then the stub edges at the left dummy in
    `left_ports` order and at the right dummy in `right_ports` order.

    `outer_first` numbers a one-ended window (a right dummy alone) from its
    outer end inward, for the window brute force (`_window_counts`): the
    dummy is vertex 0, then come the pieces from the last to the first,
    each in its own order; edges come the stub edges at the dummy in port
    order, then the last piece's edges, the junction before it, the piece
    before that, and so on down to the first piece's edges.  Every edge at
    a vertex of pieces k..last then comes before the edges of piece k - 1,
    and the numbering of pieces 0..k-1, and of their edges, counted from
    the end, is the same in every window that holds them."""
    last = len(pieces) - 1
    order = range(last, -1, -1) if outer_first else range(last + 1)
    n = int(outer_first)  # outer first, the right dummy is vertex 0
    offsets = [0] * len(pieces)
    for j in order:
        offsets[j] = n
        n += pieces[j]._flow[0]
    own = [[(u + o, v + o) for u, v in piece._flow[1]] for piece, o in zip(pieces, offsets)]
    glued = []
    for j, matching in enumerate(ifaces):
        a, b = pieces[j]._flow[2], pieces[j + 1]._flow[2]
        p, q = offsets[j], offsets[j + 1]
        glued.append([(p + a[r], q + b[s]) for r, s in matching])
    at_dummies = []
    if left:
        o, stubs = offsets[0], pieces[0]._flow[2]
        at_dummies.append([(n, o + stubs[s]) for s, _ in pieces[0].left_ports])
        n += 1
    if right:
        o, stubs = offsets[-1], pieces[-1]._flow[2]
        dummy = 0 if outer_first else n
        at_dummies.append([(o + stubs[s], dummy) for s, _ in pieces[-1].right_ports])
        n += not outer_first
    if outer_first:
        blocks = at_dummies + [own[last]]
        for j in order[1:]:
            blocks += [glued[j], own[j]]
    else:
        blocks = own + glued + at_dummies
    edges: list = []
    for block in blocks:
        edges += block
    start = 0 if outer_first else len(edges) - sum(map(len, at_dummies))
    groups = []
    for block in at_dummies:
        groups.append(range(start, start + len(block)))
        start += len(block)
    return (n, edges), groups


def materialize(
    pieces: list[ChainPiece],
    ifaces: list[Matching],
    tags: list,
    left_dummy: str | None = None,
    right_dummy: str | None = None,
) -> MultiGraph:
    """The labeled graph of `_glue`'s window, in its order: piece vertices
    and edges tagged with their piece's tag (untagged for None), a glued
    edge bearing its left piece's stub, a stub edge its stub."""
    if len(ifaces) != len(pieces) - 1:
        raise ChainError("need exactly one interface per junction")
    (_, edges), _ = _glue(pieces, ifaces, left_dummy is not None, right_dummy is not None)
    vertices = [_tag(v, t) for piece, t in zip(pieces, tags) for v in piece.graph.vertices]
    labels = [_tag(e.label, t) for piece, t in zip(pieces, tags) for e in piece.graph.edges]
    labels += [_tag(a, tags[j]) for j, matching in enumerate(ifaces) for a, _ in matching]
    if left_dummy is not None:
        vertices.append(left_dummy)
        labels += [_tag(stub, tags[0]) for stub, _ in pieces[0].left_ports]
    if right_dummy is not None:
        vertices.append(right_dummy)
        labels += [_tag(stub, tags[-1]) for stub, _ in pieces[-1].right_ports]
    return MultiGraph(vertices, [(a, vertices[u], vertices[v]) for a, (u, v) in zip(labels, edges)])


DUMMY = "dummy"
DUMMY_LEFT = "dummy_left"
DUMMY_RIGHT = "dummy_right"


def _window(chain: CutChain, k: int) -> tuple[list, list, list, tuple]:
    """The pieces, matchings, tags and dummy names of the level-k window:
    the right ray's window out to cut k (`_Direction.window`), and on a
    two-ended chain the left ray's before it, which ends at their shared
    core, the right window's first piece.  Only the oracles
    (`truncation_consistency`, `validate_certificate`) and `construct
    truncation` build truncation windows; `end_degree` glues one side's
    window alone."""
    if isinstance(chain, OneEndedChain):
        if k < 0:
            raise ChainError("truncation level must be nonnegative")
        return *chain._directions["right"].window(k), (None, DUMMY)
    if k < 1:
        raise ChainError("two-ended windows need k >= 1")
    pieces, ifaces, tags = chain._directions["left"].window(k)
    right_pieces, right_ifaces, right_tags = chain._directions["right"].window(k)
    pieces += right_pieces[1:]
    return pieces, ifaces + right_ifaces, tags + right_tags[1:], (DUMMY_LEFT, DUMMY_RIGHT)


def truncation_minor(chain: CutChain, k: int) -> MultiGraph:
    """Finite minor with the tail(s) beyond level k contracted to dummies
    (`_window`), labeled."""
    pieces, ifaces, tags, dummies = _window(chain, k)
    return materialize(pieces, ifaces, tags, *dummies)


def _at_level(chain: CutChain, n: int) -> tuple[_Direction, int]:
    """The ray side and cut j of the segment between cuts F(n) and F(n+1):
    the segment is piece j+1 of that side, beyond its cut j."""
    if n >= 0:
        return chain._directions["right"], n
    if isinstance(chain, OneEndedChain):
        raise ChainError(f"one-ended chains have no segment at level {n}")
    return chain._directions["left"], -n - 1


def segment_minor(chain: CutChain, n: int) -> MultiGraph:
    """The piece between cuts F(n) and F(n+1) with dummies alpha and beta:
    its minor (`ChainPiece._minor`), labeled."""
    direction, j = _at_level(chain, n)
    return materialize([direction.piece(j + 1)], [], [None], left_dummy="alpha", right_dummy="beta")


# -- transfer layers ---------------------------------------------------------


def _states(cut_size: int) -> tuple[State, ...]:
    return tuple(frozenset(c) for c in combinations(range(cut_size), 2))


@dataclass(frozen=True)
class TransferLayer:
    """Hamilton counts of one segment by boundary pair states: the piece's
    own tables, re-keyed through the cut positions of the layer's stubs.

    The cycles behind the counts are enumerated only when `buckets` is
    first read.
    """

    left_states: tuple[State, ...]
    right_states: tuple[State, ...]
    left_names: tuple[str, ...]  # cut-edge stub name per left position
    right_names: tuple[str, ...]
    counts: dict  # (left state, right state) -> number of segment Hamilton cycles, if any
    piece: ChainPiece = field(compare=False, repr=False)

    @cached_property
    def buckets(self) -> dict:
        """(left state, right state) -> tuple of interior edge-label
        frozensets, keys and cycles in sorted cycle order."""
        return _by_state(self.piece._cycles, self.left_names, self.right_names)

    def mult(self, p: State, q: State) -> int:
        return self.counts.get((p, q), 0)

    def matrix(self) -> list[list[int]]:
        return [[self.mult(p, q) for q in self.right_states] for p in self.left_states]

    def state_name(self, names: tuple[str, ...], s: State) -> str:
        return "{" + ",".join(names[i] for i in sorted(s)) + "}"

    def to_text(self) -> str:
        rows = [[""] + [self.state_name(self.right_names, q) for q in self.right_states]]
        for p in self.left_states:
            rows.append(
                [self.state_name(self.left_names, p)]
                + [str(self.mult(p, q)) for q in self.right_states]
            )
        return _grid(rows)


def _by_state(table: dict, *names: tuple) -> dict:
    """A table keyed by the edges a cycle uses at each dummy, by label or
    by id, re-keyed by the pair states of their cut positions: `names[k]`
    holds the edge's label or id at each position of dummy k's cut.  The
    key order is kept.  This is the only place edges become cut
    positions.

    A pair state is the frozenset of the two cut positions, indices into
    the cut's ordered matching, that a cycle uses there.  So an edge's
    identity is carried through the explicit matchings and is never
    unified by name."""
    positions = [{label: i for i, label in enumerate(cut)} for cut in names]
    return {
        tuple(frozenset(pos[label] for label in used) for pos, used in zip(positions, key)): value
        for key, value in table.items()
    }


def _compute_layer(piece: ChainPiece, left_iface: Matching, right_iface: Matching) -> TransferLayer:
    left = tuple(stub for _, stub in left_iface)
    right = tuple(stub for stub, _ in right_iface)
    counts = _by_state(piece._counts, left, right)
    return TransferLayer(_states(len(left)), _states(len(right)), left, right, counts, piece)


def transfer_layer(chain: CutChain, n: int) -> TransferLayer:
    """Transfer layer between cuts F(n) and F(n+1), rows at F(n)."""
    direction, j = _at_level(chain, n)
    return direction.layer(j)


# -- ray analysis ------------------------------------------------------------


class _Direction:
    """One ray side of a chain (`right` for a one-ended chain, `left` and
    `right` for a two-ended one), compiled once, on first use, and kept by
    the chain, so nothing is cached at module level: the only code that
    knows how the side is oriented.  Chain validation, transfer layers,
    segment minors, windows, certificates, end degrees and the names of
    witness states all ask it, so a left ray and a right ray are read the
    same way.

    Cuts are numbered 0, 1, ... outward from the chain's first matching
    (entry or central).  Piece 0 is `core`, the piece inside cut 0 (the
    initial piece, or the other side's piece 1); tail piece j lies between
    cuts j-1 and j.  Matchings pair stubs in the chain's left-to-right
    order, which on the left ray runs inward; `sides`, `links` and
    `labels` turn that into the side's own terms, and `stubs` names a
    state by the stubs of the piece left of its cut.  The left ray shares
    cut 0 with the right ray, and its piece 1 is the right ray's piece 0,
    so what it owns starts at `first_cut` = 1; the core is piece
    `first_cut` on either ray.  `window` puts the side's pieces out to a
    cut back into chain order, and `bound` says where the dummy's edges
    lie in a glued window.

    The step from cut j to cut j+1 is stored at slot `tail.fold(j)` (the
    one period fold, `_fold`): the J = len(pre) + 1 cuts before the
    period, then one per period residue.
    A slot is filled on first use with the rightward `TransferLayer` of its
    piece and the outward map state -> state -> count (the layer's counts,
    transposed on the left side, with targets in sorted order).  Survival
    sets are kept per slot as well, for the cut the step leaves.  `push`
    carries weights across a cut by the outward map, the only loop that
    does so: the ray analysis and `prefix_counts` restrict it to surviving
    states (`advance`), and `truncation_consistency` pushes outward from
    cut 0 without that restriction, on a two-ended chain from each central
    state on both rays.  `rays` enumerates the surviving rays from a
    state, for certificates and witnesses alike, closing each where its
    (slot, state) pair first recurs, so every certificate has the
    shortest pre-period and period.  `name` says which chain and side, for
    defect messages.
    """

    def __init__(self, tail: Tail, core: ChainPiece, first: Matching, side: str, chain: CutChain):
        self.tail = tail
        self.core = core
        self.first = first
        self.leftward = side == "left"
        self.first_cut = int(self.leftward)
        self.name = f"{_name(chain)}, {side} ray"
        self.J = len(tail.pre) + 1  # cuts >= J have periodic survival
        self.plen = tail.plen
        self.states = _states(len(first))
        self._steps: list = [None] * (self.J + self.plen)

    def piece(self, j: int) -> ChainPiece:
        """The piece inside cut j and beyond cut j-1."""
        return self.core if j == 0 else self.tail.piece(j)

    def matching(self, j: int) -> Matching:
        """The matching at cut j, as (left piece's stub, right piece's stub)."""
        return self.first if j == 0 else self.tail.iface(j)

    def sides(self, j: int) -> tuple[ChainPiece, ChainPiece]:
        """The pieces on either side of cut j, left one first."""
        inner, outer = self.piece(j), self.piece(j + 1)
        return (outer, inner) if self.leftward else (inner, outer)

    def links(self, j: int) -> Matching:
        """The matching at cut j as (stub of piece j, stub of piece j+1)."""
        matching = self.matching(j)
        return tuple((b, a) for a, b in matching) if self.leftward else matching

    def stubs(self, j: int, s: State) -> list[str]:
        """State s at cut j as sorted stub names: at each of its positions,
        the stub of the piece left of the cut in the chain's order."""
        return sorted(self.matching(j)[p][0] for p in s)

    def tag(self, j: int) -> int:
        """The window tag of piece j (`truncation_minor`)."""
        return 1 - j if self.leftward else j

    def window(self, k: int) -> tuple[list, list, list]:
        """The pieces, matchings and window tags from the core, piece
        `first_cut`, out to cut k, in chain order: the core comes first on
        the right ray and last on the left one."""
        cuts = range(self.first_cut, k + 1)
        pieces = [self.piece(j) for j in cuts]
        matchings = [self.matching(j) for j in cuts[:-1]]
        tags = [self.tag(j) for j in cuts]
        if self.leftward:
            return pieces[::-1], matchings[::-1], tags[::-1]
        return pieces, matchings, tags

    def bound(self, k: int, group: range) -> tuple[int, ...]:
        """The ids of the edges at this side's dummy beyond cut k, given in
        `group` in the port order of piece k's outer stubs (`_glue`), at
        each position of cut k."""
        piece = self.piece(k)
        ports = piece.left_ports if self.leftward else piece.right_ports
        edge = {stub: i for (stub, _), i in zip(ports, group)}
        return tuple(edge[a] for a, _ in self.links(k))

    def labels(self, j: int, bound: bool = False) -> tuple[str, ...]:
        """The window edge label at each position of cut j.  Where the cut
        bounds the window, the edges there are stubs of piece j to the
        dummy; inside, a glued edge bears the stub of its left piece, which
        on the left ray is piece j+1."""
        if bound:
            return tuple(_tag(a, self.tag(j)) for a, _ in self.links(j))
        return tuple(_tag(a, self.tag(j + self.first_cut)) for a, _ in self.matching(j))

    def _step(self, j: int) -> tuple[TransferLayer, dict]:
        i = self.tail.fold(j)
        if self._steps[i] is None:
            near, far = self.matching(i), self.matching(i + 1)
            left, right = (far, near) if self.leftward else (near, far)
            layer = _compute_layer(self.piece(i + 1), left, right)
            pairs = layer.counts
            if self.leftward:
                pairs = {(q, p): n for (p, q), n in pairs.items()}
            out = {a: {b: pairs[a, b] for b in self.states if (a, b) in pairs} for a in self.states}
            self._steps[i] = (layer, out)
        return self._steps[i]

    def layer(self, j: int) -> TransferLayer:
        """Rightward transfer layer of the piece between cuts j and j+1."""
        return self._step(j)[0]

    def survival(self) -> list[frozenset]:
        """Greatest fixed point, per slot: the states at the slot's cut that
        continue outward forever."""
        alive = [set(self.states) for _ in self._steps]
        changed = True
        while changed:
            changed = False
            for j in range(self.J, self.J + self.plen):
                out = self._step(j)[1]
                nxt = alive[self.tail.fold(j + 1)]
                new = {s for s in alive[j] if not nxt.isdisjoint(out[s])}
                if new != alive[j]:
                    alive[j] = new
                    changed = True
        for j in range(self.J - 1, -1, -1):
            out = self._step(j)[1]
            alive[j] = {s for s in self.states if not alive[j + 1].isdisjoint(out[s])}
        return [frozenset(a) for a in alive]

    @cached_property
    def alive(self) -> list[frozenset]:
        return self.survival()

    def surv(self, j: int) -> frozenset:
        return self.alive[self.tail.fold(j)]

    def moves(self, j: int, s: State) -> list[tuple[State, int]]:
        """Surviving successors at cut j+1 of state s at cut j, in sorted
        state order, each with its number of segment cycles."""
        alive = self.surv(j + 1)
        return [(t, n) for t, n in self._step(j)[1][s].items() if t in alive]

    def choices(self, j: int, s: State) -> list[tuple[State, tuple]]:
        """`moves`, each successor with its interior cycles instead of their
        number; enumerates the layer's cycles on first use."""
        buckets = self.layer(j).buckets
        return [(t, buckets[(t, s) if self.leftward else (s, t)]) for t, _ in self.moves(j, s)]

    def push(self, weights: dict, j: int) -> dict:
        """Weights at cut j carried across the segment beyond it to cut
        j+1, each times its number of segment cycles: the one loop that
        propagates weights.  States no weight reaches are absent."""
        out = self._step(j)[1]
        nxt: dict = {}
        for s, c in weights.items():
            for t, n in out[s].items():
                nxt[t] = nxt.get(t, 0) + c * n
        return nxt

    def advance(self, weights: dict, j: int) -> dict:
        """`push`, restricted to the states that survive at cut j+1."""
        alive = self.surv(j + 1)
        return {t: c for t, c in self.push(weights, j).items() if t in alive}

    def seeds(self, vector: dict) -> dict:
        """The states of a weight vector at cut 0 that have positive weight
        and survive, with their weights."""
        return {s: c for s, c in vector.items() if c > 0 and s in self.surv(0)}

    def rays(self, j: int, s: State, unique: bool = False) -> Iterator[tuple[tuple, tuple]]:
        """Every surviving ray from state s at cut j, lazily and depth first
        in choice order (moves in sorted state order, each move's cycles in
        sorted cycle order), as choices (left state, right state, interior
        edge labels) split into (pre, period) where the pair (slot, state)
        first recurs along it.  Each branch closes: every surviving state
        has a surviving move, prefix slots never repeat, and there are
        finitely many (slot, state) pairs.  In a Finite count a recurring
        pair lies on a reachable cycle of the folded graph, where a state
        with two continuations would give infinitely many rays, so each ray
        is yielded exactly once.  With `unique`, a state in a yielded period
        with other than one continuation is a defect."""
        path: list = []
        seen: dict = {}

        def walk(j: int, s: State) -> Iterator[tuple[tuple, tuple]]:
            key = (self.tail.fold(j), s)
            if key in seen:
                start = seen[key]
                first = j - len(path) + start  # the cut of path[start]
                for cut, (r, _, _) in enumerate(path[start:] if unique else (), first):
                    if (n := sum(len(c) for _, c in self.choices(cut, r))) != 1:
                        raise RuntimeError(
                            f"{self.name}: recurrent state {_show([r])} at cut {cut}"
                            f" has {n} continuations, not 1 (defect)"
                        )
                yield tuple(path[:start]), tuple(path[start:])
                return
            seen[key] = len(path)
            for t, cycles in self.choices(j, s):
                for cyc in cycles:
                    path.append((s, t, cyc))
                    yield from walk(j + 1, t)
                    path.pop()
            del seen[key]

        return walk(j, s)


@dataclass(frozen=True)
class RayAnalysis:
    tag: str  # "zero" | "finite" | "infinite"
    count: int | None
    witness: tuple | None  # (cut level, state, surviving out-multiplicity)
    seeds: dict  # surviving state at cut 0 -> seed weight
    supports: tuple  # supports per cut level up to the detected recurrence
    j_enter: int | None
    j_repeat: int | None


def _analyze_rays(direction: _Direction, seed: dict) -> RayAnalysis:
    """Classify the rays of one side from a seed vector at cut 0, without
    listing any: advance the surviving weights cut by cut until a (slot,
    support) pair recurs.  A state in the recurrent supports with two or
    more surviving continuations makes the count Infinite, and is its
    witness; otherwise the weights are deterministic from the first
    recurrence on, and their total there is the Finite count."""
    seeds = direction.seeds(seed)
    if not seeds:
        return RayAnalysis("zero", 0, None, {}, (), None, None)
    weights = dict(seeds)
    sup_list = [frozenset(weights)]
    totals = [sum(weights.values())]
    seen: dict = {}
    j = 0
    limit = direction.J + direction.plen * (2 ** len(direction.states) + 8)
    j_enter = j_repeat = None
    while j <= limit:
        # prefix cuts fold to themselves, so only periodic keys can recur
        key = (direction.tail.fold(j), sup_list[j])
        if key in seen:
            j_enter, j_repeat = seen[key], j
            break
        seen[key] = j
        weights = direction.advance(weights, j)
        sup_list.append(frozenset(weights))
        totals.append(sum(weights.values()))
        j += 1
    if j_repeat is None:
        raise RuntimeError(
            f"{direction.name}: no support recurrence up to cut {j}, past the limit {limit};"
            f" support there {_show(sup_list[j]) or 'empty'} (implementation defect)"
        )

    # branching inside the recurrent support cycle means unboundedly many rays
    for jj in range(j_enter, j_repeat):
        for s in sup_list[jj]:
            out = sum(n for _, n in direction.moves(jj, s))
            if out >= 2:
                # cross-check: recurrent branching must grow the prefix totals
                if totals[j_repeat] <= totals[j_enter]:
                    raise RuntimeError(
                        f"{direction.name}: state {_show([s])} branches at cut {jj}"
                        f" (out-multiplicity {out}), but the prefix total {totals[j_repeat]}"
                        f" at cut {j_repeat} does not exceed {totals[j_enter]}"
                        f" at cut {j_enter} (defect)"
                    )
                return RayAnalysis(
                    "infinite", None, (jj, s, out), seeds, tuple(sup_list), j_enter, j_repeat
                )

    # deterministic from j_enter on: total weight is already stable there
    return RayAnalysis(
        "finite", totals[j_enter], None, seeds, tuple(sup_list), j_enter, j_repeat
    )


# -- certificates ------------------------------------------------------------


@dataclass(frozen=True)
class LimitCycleCertificate:
    """Eventually periodic per-level choice sequence for one limit cycle.

    One-ended: `initial_interior` holds the level-0 interior edges (window
    labels) and `pre`/`period` the per-level segment choices from level 1 on.
    Two-ended: `left_pre`/`left_period` hold the outward choices for the left
    tail and `initial_state` is the state at the central cut.
    """

    mode: str
    initial_state: State
    initial_interior: frozenset = frozenset()
    pre: tuple = ()
    period: tuple = ()
    left_pre: tuple = ()
    left_period: tuple = ()

    def choice_at(self, level: int, side: str = "right") -> tuple:
        """The choice of `side` at `level` >= 1."""
        pre = self.pre if side == "right" else self.left_pre
        per = self.period if side == "right" else self.left_period
        return (pre + per)[_fold(level, len(pre), len(per)) - 1]

    def state_at(self, level: int, side: str = "right") -> State:
        if level == 0:
            return self.initial_state
        return self.choice_at(level, side)[1]


def splice_certificate(chain: CutChain, cert: LimitCycleCertificate, k: int) -> set[str]:
    """Edge labels of the certificate's restriction to the level-k window:
    the right ray's cuts 0..k and pieces 1..k, then on a two-ended chain
    the left ray's cuts 1..k and pieces 1..k."""
    labels = set(cert.initial_interior)
    for side, direction in chain._directions.items():
        for j in range(direction.first_cut, k + 1):
            names = direction.labels(j, bound=j == k)
            labels |= {names[p] for p in cert.state_at(j, side)}
        for j in range(1, k + 1):
            left, _, interior = cert.choice_at(j, side)
            if left != cert.state_at(j - 1, side):
                raise ChainError("certificate states disagree at a shared cut")
            labels |= {_tag(lab, direction.tag(j)) for lab in interior}
    return labels


def validate_certificate(chain: CutChain, cert: LimitCycleCertificate, k: int) -> bool:
    """Splice the first k levels and check against the brute-forced minor."""
    window = truncation_minor(chain, k)
    labels = splice_certificate(chain, cert, k)
    try:
        ids = [window.edge_by_label(lab).id for lab in labels]
    except GraphError:
        return False
    return is_hamilton_cycle(window, ids)


# -- classification ----------------------------------------------------------


class Certificates:
    """The certificates of a Finite count, one per limit cycle, listed
    lazily and afresh on each iteration; `len` is the count, which the
    classification gives without listing them (`_analyze_rays`), so
    `chain analyze` lists no certificate (Python's `len` takes counts
    below 2**63; `LimitCount.count` holds any).

    A one-ended chain's certificates are one lazy stream
    (`_one_ended_certificates`), whose first two are the two witnesses of
    `witness_two_cycles` in every class.  A two-ended chain's are the
    product of its left and right rays per central state
    (`_two_ended_certificates`).  Each ray comes from `_Direction.rays`."""

    def __init__(self, count: int, listing: Callable[[], Iterator[LimitCycleCertificate]]):
        self._count = count
        self._listing = listing

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __iter__(self) -> Iterator[LimitCycleCertificate]:
        return self._listing()


@dataclass(frozen=True)
class LimitCount:
    tag: str  # "zero" | "finite" | "infinite"
    count: int | None
    witness: tuple | None  # (cut level, state, surviving out-multiplicity)
    certificates: Certificates | tuple  # () unless Finite
    side: str | None = None  # the ray side ("left" or "right") the witness is on

    def __str__(self) -> str:
        if self.tag == "zero":
            return "Zero"
        if self.tag == "finite":
            return f"Finite({self.count})"
        return "Infinite"


def witness_stubs(chain: CutChain, result: LimitCount) -> list[str]:
    """The branching state of an Infinite result as sorted stub names, as
    its ray side names states at the witness's cut (`_Direction.stubs`)."""
    level, state, _ = result.witness
    return chain._directions[result.side].stubs(level, state)


def initial_vector(chain: OneEndedChain) -> dict:
    """Hamilton-cycle counts of the level-0 truncation per dummy pair state."""
    if not isinstance(chain, OneEndedChain):
        raise ChainError("initial vector is defined for one-ended chains")
    return dict(chain._initial_counts)


def surviving_states(chain: CutChain) -> dict:
    """Greatest-fixed-point survival sets, per cut (prefix) and per residue."""
    out = {
        side: {"prefix": d.alive[: d.J], "periodic": d.alive[d.J :], "period_start": d.J}
        for side, d in chain._directions.items()
    }
    return out["right"] if isinstance(chain, OneEndedChain) else out


def count_limit_hamilton_cycles(chain: CutChain) -> LimitCount:
    """Classify the number of Hamilton cycles of the chain's limit graph."""
    if isinstance(chain, OneEndedChain):
        return _count_one_ended(chain)
    return _count_two_ended(chain)


def _one_ended_certificates(
    chain: OneEndedChain, unique: bool = False
) -> Iterator[LimitCycleCertificate]:
    """Lazily, a certificate per sorted seed state at cut 0, level-0 cycle
    of that state (sorted cycle order) and ray from it (`rays` order).

    A certificate is fixed by its choice sequence, closed where its (slot,
    state) pair first recurs, so two distinct certificates are two distinct
    limit cycles, whether the chain is Finite or Infinite.  An Infinite
    chain yields at least two: a branching state in its recurrent support
    is reached from a seed without a pair recurring, and each of its
    continuations closes a ray of its own, so taking two walks at most two
    rays.  `unique` is passed on to `rays`."""
    direction = chain._directions["right"]
    for s in sorted(direction.seeds(chain._initial_counts), key=sorted):
        cycles = chain._initial_cycles[s]
        # nested loops, not `product`, which would list every ray before the
        # first; `tee` walks the rays once for all the level-0 cycles
        for interior, rays in zip(cycles, tee(direction.rays(0, s, unique), len(cycles))):
            for pre, period in rays:
                yield LimitCycleCertificate("one-ended", s, interior, pre, period)


def _count_one_ended(chain: OneEndedChain) -> LimitCount:
    analysis = _analyze_rays(chain._directions["right"], initial_vector(chain))
    if analysis.tag == "zero":
        return LimitCount("zero", 0, None, ())
    if analysis.tag == "infinite":
        return LimitCount("infinite", None, analysis.witness, (), "right")
    certs = Certificates(analysis.count, lambda: _one_ended_certificates(chain, unique=True))
    return LimitCount("finite", analysis.count, None, certs)


def _two_ended_certificates(
    chain: TwoEndedChain, states: list[State]
) -> Iterator[LimitCycleCertificate]:
    """Lazily, a certificate per central state in `states` and pair of a
    left and a right ray from it (`rays` order, left ray first)."""
    dirs = chain._directions
    for s in states:
        lconts = list(dirs["left"].rays(0, s, unique=True))
        rconts = list(dirs["right"].rays(0, s, unique=True))
        for (lpre, lper), (rpre, rper) in product(lconts, rconts):
            yield LimitCycleCertificate(
                "two-ended", s, pre=rpre, period=rper, left_pre=lpre, left_period=lper
            )


def _count_two_ended(chain: TwoEndedChain) -> LimitCount:
    dirs = chain._directions
    per_state: dict = {}
    for s in _states(chain.cut_size):
        per_state[s] = {side: _analyze_rays(d, {s: 1}) for side, d in dirs.items()}
    total = 0
    central = []  # the states at the central cut that limit cycles pass
    for s in sorted(per_state, key=sorted):
        left, right = per_state[s]["left"], per_state[s]["right"]
        if left.tag == "zero" or right.tag == "zero":
            continue
        for side, analysis in per_state[s].items():
            if analysis.tag == "infinite":
                return LimitCount("infinite", None, analysis.witness, (), side)
        total += left.count * right.count
        central.append(s)
    if total == 0:
        return LimitCount("zero", 0, None, ())
    certs = Certificates(total, lambda: _two_ended_certificates(chain, central))
    return LimitCount("finite", total, None, certs)


# -- oracles and reports -----------------------------------------------------


@dataclass(frozen=True)
class ConsistencyReport:
    ok: bool
    predicted: dict
    actual: dict


def _window_counts(chain: CutChain, k: int) -> dict:
    """Brute force on the level-k window: its Hamilton cycles by the pair
    states they use at each cut that bounds it, the left one first on a
    two-ended chain.  The window is glued in integer form (`_glue`), and
    the ids of each dummy's edges, in port order, stand for the cut
    positions of their stubs, so no label is built.  The count is memoized
    (`hamilton._memo_trace_counts`): a window has a 2- or 3-edge cut at
    every junction, so its cost grows polynomially with the window's
    length where listing its cycles would double per level.

    A one-ended window is glued from its outer end inward, and every
    window of the chain is counted on one memo that the chain keeps
    (`OneEndedChain._window_memo`).  Window k holds window k - 1 but for
    its outermost piece, so once the search has swept past the dummy and
    the outer pieces, its residual problems are ones the shallower windows
    have met, keyed alike (`hamilton._search`): checking depths 0..K costs
    about what the deepest window alone costs, and each window is still
    counted by the Hamilton search on its own glued graph, so nothing from
    the transfer layers it checks enters the count.  A two-ended
    window keeps chain order and a memo of its own.  Numbered from both
    ends inward, its windows do share tables, but the search then carries
    a frontier at each end, and on the benchmark's two-ended chains that
    cost more nodes and time than the shared tables saved (CHANGES.md
    has the figures)."""
    pieces, ifaces, _, dummies = _window(chain, k)
    one_ended = dummies[0] is None
    graph, groups = _glue(pieces, ifaces, not one_ended, True, outer_first=one_ended)
    # the left dummy's group first
    cuts = [chain._directions[side].bound(k, group) for side, group in zip(chain.sides, groups)]
    memo = chain._window_memo if one_ended else None
    return _by_state(_memo_trace_counts(graph, groups, memo), *cuts)


def truncation_consistency(chain: CutChain, k: int) -> ConsistencyReport:
    """Check transfer-matrix predictions against brute force on the level-k
    window (`_window_counts`).  Weights are pushed outward from cut 0
    (`_Direction.push`): on a one-ended chain from the level-0 vector, to
    the count per state at cut k; on a two-ended chain from each central
    state c on both rays, to L_c at left cut k and R_c at right cut k, and
    the window's count with states a and b at its left and right ends is
    the sum over c of L_c[a] * R_c[b].  States with no cycle get 0."""
    states = _states(chain.cut_size)

    def outward(direction: _Direction, weights: dict) -> dict:
        for j in range(k):
            weights = direction.push(weights, j)
        return weights

    counts = _window_counts(chain, k)
    right = chain._directions["right"]
    if isinstance(chain, OneEndedChain):
        w = outward(right, initial_vector(chain))
        predicted = {s: w.get(s, 0) for s in states}
        actual = {s: counts.get((s,), 0) for s in states}
    else:
        left = chain._directions["left"]
        rays = [(outward(left, {c: 1}), outward(right, {c: 1})) for c in states]
        predicted = {
            a: {b: sum(lc.get(a, 0) * rc.get(b, 0) for lc, rc in rays) for b in states}
            for a in states
        }
        actual = {a: {b: counts.get((a, b), 0) for b in states} for a in states}
    return ConsistencyReport(predicted == actual, predicted, actual)


def prefix_counts(chain: OneEndedChain, k_max: int) -> list[int]:
    """Total multiplicity of surviving length-k prefixes, for k = 0..k_max."""
    direction = chain._directions["right"]
    w = direction.seeds(initial_vector(chain))
    out = [sum(w.values())]
    for j in range(k_max):
        w = direction.advance(w, j)
        out.append(sum(w.values()))
    return out


def _level_cut(chain: CutChain, end: str, k: int) -> int:
    """The min cut between the core and the chosen end at level k >= 1:
    the number of edge-disjoint paths from the core to the dummy of the
    level-k window, computed as one max flow, the package's only one.

    The core is the initial piece of a one-ended chain and left piece 1 of
    a two-ended one.  Every vertex of the core is a source, so every cut
    that separates the core from the dummy keeps the whole core on one
    side, and the core may be contracted to one node.  That node is a
    dummy at the core's boundary: the network is the chosen ray's pieces
    beyond the core out to cut k (`_Direction.window`), glued by `_glue`
    as a window between two dummies, and the flow runs from the core-side
    dummy to the end-side one.  In a two-ended chain the pieces on the
    other side of the core reach the chosen dummy only through the core,
    so they carry no flow that the core does not already supply, and they
    are left out.  Where no piece lies beyond the core (the left ray at
    k = 1), the core's own stubs are the whole cut.  `end` is one of
    `chain.sides`.

    Every edge has capacity 1 both ways: edge i is the residual pair of
    arcs 2i (listed u -> v) and 2i + 1 (v -> u), arc a running to
    `head[a]`.  Augmenting paths are shortest (Edmonds-Karp), and the
    search stops once every edge at the end-side dummy carries flow.
    """
    direction = chain._directions[end]
    pieces, matchings, _ = direction.window(k)
    if len(pieces) == 1:
        return chain.cut_size
    beyond = slice(None, -1) if direction.leftward else slice(1, None)
    (n, edges), _ = _glue(pieces[beyond], matchings[beyond], True, True)
    # the left dummy is vertex n - 2 and the right one n - 1
    source, sink = (n - 1, n - 2) if direction.leftward else (n - 2, n - 1)
    head: list[int] = []
    out: list[list[int]] = [[] for _ in range(n)]  # arcs leaving each vertex
    for u, v in edges:
        if u != v:
            out[u].append(len(head))
            out[v].append(len(head) + 1)
            head += (v, u)
    cap = [1] * len(head)
    total = 0
    while total < len(out[sink]):
        via = [-1] * n  # the arc each reached vertex was reached by
        via[source] = -2
        queue = [source]
        for u in queue:
            for a in out[u]:
                v = head[a]
                if cap[a] and via[v] == -1:
                    via[v] = a
                    queue.append(v)
            if via[sink] != -1:
                break
        else:
            return total
        v = sink
        while v != source:
            a = via[v]
            cap[a] -= 1
            cap[a ^ 1] += 1
            v = head[a ^ 1]
        total += 1
    return total


def end_degree(chain: CutChain, end: str = "right") -> int:
    """Minimum cut from a fixed finite core to the chosen end: the limit of
    the level min cuts m_k, exactly, from one max flow at a level that the
    chain's period fixes.

    Min cuts never rise with the level: the dummy at level k+1 contracts
    part of what the dummy at level k contracts.  Let c be the cut size,
    J = len(pre) + 1 the first cut from which cuts repeat with the period
    P, and N(d) the number of vectors in {out, in, unused}^c with d more
    out than in (c = 3: N = 1, 3, 6 for d = 3, 2, 1; c = 2: N = 1, 2 for
    d = 2, 1).  Suppose m_K = d >= 1 at K = J + N(d) * P.  A max flow of
    value d at level K that uses no edge both ways gives each cut up to K
    one of those N(d) orientation states, with net flow d outward.  The
    N(d) + 1 cuts J, J + P, ..., K share a residue, so two of them share a
    state, and the flow between them can be repeated with the period: that
    is a flow of value d to every level, so m_k >= d for all k and the
    limit is d.
    Starting from d = c, the loop takes m = m_K; it stops if m is d, or 0
    (then m_k = 0 from K on), and otherwise sets d = m.  N grows as d
    falls, so K only deepens and the loop ends.

    Raises ChainError if the chain has no such end.
    """
    if end not in chain.sides:
        raise ChainError(f"{_name(chain)} has no {end!r} end, only {', '.join(chain.sides)}")
    direction = chain._directions[end]
    d = chain.cut_size
    while True:
        orientations = sum(sum(v) == d for v in product((1, -1, 0), repeat=chain.cut_size))
        m = _level_cut(chain, end, direction.J + orientations * direction.plen)
        if m in (d, 0):
            return m
        d = m


def witness_two_cycles(
    chain: OneEndedChain,
) -> tuple[LimitCycleCertificate, LimitCycleCertificate]:
    """Two distinct limit-cycle certificates of a Hamiltonian one-ended
    chain: the first two of `_one_ended_certificates`, in every class."""
    if not isinstance(chain, OneEndedChain):
        raise ChainError("witness extraction is defined for one-ended chains")
    certs = list(islice(_one_ended_certificates(chain), 2))
    if not certs:
        raise ChainError("chain limit is not Hamiltonian")
    if len(certs) < 2:
        raise ChainError("analysis found a single limit Hamilton cycle")
    return certs[0], certs[1]


# -- serialization -----------------------------------------------------------


def _piece_to_doc(piece: ChainPiece) -> dict:
    return {
        "graph": piece.graph.to_doc(),
        "left_ports": [list(p) for p in piece.left_ports],
        "right_ports": [list(p) for p in piece.right_ports],
    }


def _piece_from_doc(doc: dict) -> ChainPiece:
    """A piece read straight into its integer form: its graph document is
    read by `multigraph._read_doc` and checked by the one graph checker
    that every `MultiGraph` passes, and no labeled graph is built."""
    graph = _read_doc(doc["graph"])
    return ChainPiece._read(*graph, _pairs(doc["left_ports"]), _pairs(doc["right_ports"]))


def _pairs(entries) -> tuple[tuple[str, str], ...]:
    """The ports or the matching of a chain document: each entry a JSON
    list of exactly two strings, so that no string stands in for a pair."""
    for entry in entries:
        pair = type(entry) is list and len(entry) == 2
        if not (pair and type(entry[0]) is type(entry[1]) is str):
            raise ChainError(f"malformed chain JSON: {entry!r} is not a list of two strings")
    return tuple(map(tuple, entries))


def _tail_to_doc(tail: Tail) -> dict:
    return {
        "pre_period": [_piece_to_doc(p) for p in tail.pre],
        "period": [_piece_to_doc(p) for p in tail.period],
        "entry_interfaces": [[list(m) for m in iface] for iface in tail.entry_ifaces],
        "period_interfaces": [[list(m) for m in iface] for iface in tail.period_ifaces],
    }


def _tail_from_doc(doc: dict) -> Tail:
    return Tail(
        tuple(_piece_from_doc(p) for p in doc["pre_period"]),
        tuple(_piece_from_doc(p) for p in doc["period"]),
        tuple(map(_pairs, doc["entry_interfaces"])),
        tuple(map(_pairs, doc["period_interfaces"])),
    )


def chain_to_json(chain: CutChain) -> str:
    """The chain as JSON text, which `chain_from_json` reads back, written
    by `multigraph._dumps`."""
    if isinstance(chain, OneEndedChain):
        doc = {
            "mode": "one-ended",
            "name": chain.name,
            "pieces": {"initial": _piece_to_doc(chain.initial)},
            "interfaces": {"entry": [list(m) for m in chain.entry_iface]},
            "tail": _tail_to_doc(chain.tail),
        }
    else:
        doc = {
            "mode": "two-ended",
            "name": chain.name,
            "interfaces": {"central": [list(m) for m in chain.central]},
            "left": _tail_to_doc(chain.left),
            "right": _tail_to_doc(chain.right),
        }
    return _dumps(doc)


def chain_from_json(text: str) -> CutChain:
    return chain_from_doc(json.loads(text))


def chain_from_doc(doc) -> CutChain:
    """A chain from a decoded JSON document, as `chain_from_json` reads it."""
    if not isinstance(doc, dict):
        raise ChainError("malformed chain JSON: not an object")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ChainError(f"malformed chain JSON: name {name!r} is not a string")
    try:
        if doc.get("mode") == "one-ended":
            return OneEndedChain(
                _piece_from_doc(doc["pieces"]["initial"]),
                _pairs(doc["interfaces"]["entry"]),
                _tail_from_doc(doc["tail"]),
                name,
            )
        if doc.get("mode") == "two-ended":
            return TwoEndedChain(
                _tail_from_doc(doc["left"]),
                _pairs(doc["interfaces"]["central"]),
                _tail_from_doc(doc["right"]),
                name,
            )
    except (ChainError, GraphError):
        raise
    except (KeyError, TypeError, AttributeError, IndexError, ValueError) as exc:
        raise ChainError(f"malformed chain JSON: {exc!r}") from exc
    raise ChainError(f"unknown chain mode {doc.get('mode')!r}")


def transfer_dot(chain: CutChain, levels: int = 3) -> str:
    """Layered transfer multigraph over cuts F(0) (or F(-levels)) to
    F(levels), levels >= 1: every pair state of every cut, named as witness
    states are (`_Direction.stubs`), and one edge per segment cycle."""
    if levels < 1:
        raise ChainError(f"transfer DOT needs at least 1 level, not {levels}")
    first = 0 if isinstance(chain, OneEndedChain) else -levels

    def node(n: int, s: State) -> str:
        direction = chain._directions["right" if n >= 0 else "left"]
        return _quote(f"F{n}:{{{','.join(direction.stubs(abs(n), s))}}}")

    states = _states(chain.cut_size)
    lines = ["graph transfer {", "  rankdir=LR;"]
    lines += [f"  {node(n, s)};" for n in range(first, levels + 1) for s in states]
    lines += [
        f"  {node(n, p)} -- {node(n + 1, q)};"
        for n in range(first, levels)
        for p, q in product(states, states)
        for _ in range(transfer_layer(chain, n).mult(p, q))
    ]
    lines.append("}")
    return "\n".join(lines)
