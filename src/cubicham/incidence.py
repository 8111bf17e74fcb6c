"""Hamilton incidence multigraph of a graph with respect to two anchor
vertices: a bipartite multiplicity table over edge pairs at each anchor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .hamilton import count_by_trace
from .multigraph import GraphError, MultiGraph, _grid

PairState = frozenset  # of 2 edge ids incident to one anchor


@dataclass(frozen=True)
class IncidenceMultigraph:
    anchor_v: str
    anchor_w: str
    left_states: tuple[PairState, ...]  # pairs at anchor_v
    right_states: tuple[PairState, ...]  # pairs at anchor_w
    table: tuple[tuple[int, ...], ...]  # multiplicity[left][right]

    def multiplicity(self, p: PairState, q: PairState) -> int:
        return self.table[self.left_states.index(p)][self.right_states.index(q)]

    def left_degree(self, p: PairState) -> int:
        return sum(self.table[self.left_states.index(p)])

    def right_degree(self, q: PairState) -> int:
        j = self.right_states.index(q)
        return sum(row[j] for row in self.table)

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.table)

    def to_text(self, G: MultiGraph) -> str:
        def name(state: PairState) -> str:
            return "{" + ",".join(sorted(G.edges[i].label for i in state)) + "}"

        rows = [[""] + [name(q) for q in self.right_states]]
        for p, row in zip(self.left_states, self.table):
            rows.append([name(p)] + [str(x) for x in row])
        return _grid(rows)


def pair_states(G: MultiGraph, anchor: str) -> tuple[PairState, ...]:
    """All 2-subsets of the edges at `anchor`, in edge-id order."""
    ids = sorted(G.edges_at(anchor))
    return tuple(frozenset(c) for c in combinations(ids, 2))


def incidence_multigraph(G: MultiGraph, v: str, w: str) -> IncidenceMultigraph:
    """Multiplicity(p, q) = number of Hamilton cycles through both pairs.

    Computed from a single search: every Hamilton cycle uses exactly one
    edge pair at each anchor, so counting the cycles by their traces at v
    and w reproduces the per-pair filtered counts.
    """
    if v == w:
        raise GraphError("anchors must be distinct")
    if G.degree(v) < 2 or G.degree(w) < 2:
        raise GraphError("anchors must have degree at least 2")
    left = pair_states(G, v)
    right = pair_states(G, w)
    lidx = {p: i for i, p in enumerate(left)}
    ridx = {q: j for j, q in enumerate(right)}
    table = [[0] * len(right) for _ in left]
    for (p, q), count in count_by_trace(G, (G.edges_at(v), G.edges_at(w))).items():
        table[lidx[p]][ridx[q]] = count
    return IncidenceMultigraph(v, w, left, right, tuple(tuple(r) for r in table))


@dataclass(frozen=True)
class PairSumReport:
    # ((side, state a, state b, degree sum), ...) for same-side pairs with odd sum
    violations: tuple[tuple[str, PairState, PairState, int], ...]

    @property
    def all_even(self) -> bool:
        return not self.violations


def check_pair_sum_even(H: IncidenceMultigraph) -> PairSumReport:
    """Audit: same-side state pairs should have even degree sums."""
    bad = []
    for side, states, deg in (
        ("left", H.left_states, H.left_degree),
        ("right", H.right_states, H.right_degree),
    ):
        for a, b in combinations(states, 2):
            s = deg(a) + deg(b)
            if s % 2 == 1:
                bad.append((side, a, b, s))
    return PairSumReport(tuple(bad))


@dataclass(frozen=True)
class UniformParityReport:
    common_parity: int | None  # 0 even, 1 odd, None if mixed
    degrees: tuple[int, ...]

    @property
    def uniform(self) -> bool:
        return self.common_parity is not None


def check_uniform_parity(H: IncidenceMultigraph) -> UniformParityReport:
    """Audit: all state degrees should share one parity."""
    degrees = tuple(H.left_degree(p) for p in H.left_states) + tuple(
        H.right_degree(q) for q in H.right_states
    )
    parities = {d % 2 for d in degrees}
    return UniformParityReport(parities.pop() if len(parities) == 1 else None, degrees)
