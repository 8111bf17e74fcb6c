"""Seeded inputs for the benchmark workloads.

Everything here is drawn from one `random.Random`, so a seed fixes the
inputs. Graphs come from the package's samplers and chains from its
constructors. Apart from the density cap on all-odd graphs (see
`graph_round`), an input is only ever redrawn where a sampler or a
constructor refuses it; nothing is filtered by how the package handles it.
"""

from __future__ import annotations

import random

# One round of the graph stream. Cubic graphs cost about twice as much per
# two more vertices, so the smaller sizes come more often; that spreads a
# run's time over more graphs and steadies its figures.
CUBIC_SIZES = (40, 40, 40, 40, 42, 42, 42, 44, 44, 46, 48, 50, 52, 54, 56)
ODD_SIZES = (12, 14, 16)
PIECE_SIZES = tuple(range(10, 25, 2))


def graph_round(rng: random.Random) -> list:
    """One graph per entry of CUBIC_SIZES and ODD_SIZES, shuffled: random
    cubic graphs with n from 40 to 56 and all-odd graphs with n = 12, 14, 16.

    Every round holds the same sizes, so runs with different seeds do the
    same mix of work. An all-odd draw is kept only up to average degree
    4.5: the number of Hamilton cycles explodes with density (n=16 reaches a
    few hundred thousand), and even a few thousand make one draw weigh more
    in a run than the seed can be allowed to decide. `dense_graph` stands
    for the dense end instead.
    """
    from cubicham.sampling import random_cubic_graph, random_odd_degree_graph

    out = [random_cubic_graph(n, rng) for n in CUBIC_SIZES]
    for n in ODD_SIZES:
        G = random_odd_degree_graph(n, rng)
        while G.m * 2 > 4.5 * n:
            G = random_odd_degree_graph(n, rng)
        out.append(G)
    rng.shuffle(out)
    return out


def dense_graph():
    """The enumerator's dense all-odd case, the same in every run: the
    third draw of `random_odd_degree_graph(n, Random(2))` for n = 12, 14, 16,
    with n=16, m=48 and 22 145 Hamilton cycles."""
    from cubicham.sampling import random_odd_degree_graph

    rng = random.Random(2)
    return [random_odd_degree_graph(n, rng) for n in ODD_SIZES][-1]


def random_piece(rng: random.Random, n: int, left: int, right: int):
    """A chain piece cut out of `random_cubic_graph(n)`.

    Stubs sit on distinct vertices, so the piece's segment minor is simple.
    Removing an edge frees a stub at each of its ends; a piece with three
    stubs in all (an initial piece of a 3-edge chain) instead loses one
    vertex and puts a stub on each of its neighbours.
    """
    from cubicham.chains import ChainPiece
    from cubicham.multigraph import MultiGraph
    from cubicham.sampling import random_cubic_graph

    G = random_cubic_graph(n, rng)
    vertices = list(G.vertices)
    edges = [(e.u, e.v) for e in G.edges]
    if (left + right) % 2:
        gone = rng.choice(vertices)
        vertices.remove(gone)
        freed = [u if v == gone else v for u, v in edges if gone in (u, v)]
        edges = [(u, v) for u, v in edges if gone not in (u, v)]
    else:
        order = list(range(len(edges)))
        rng.shuffle(order)
        used: set[str] = set()
        cut: set[int] = set()
        for i in order:
            if len(cut) == (left + right) // 2:
                break
            u, v = edges[i]
            if u not in used and v not in used:
                used |= {u, v}
                cut.add(i)
        freed = [x for i in sorted(cut) for x in edges[i]]
        edges = [e for i, e in enumerate(edges) if i not in cut]
    rng.shuffle(freed)
    return ChainPiece(
        MultiGraph(vertices, [(None, u, v) for u, v in edges]),
        tuple((f"L{i}", v) for i, v in enumerate(freed[:left])),
        tuple((f"R{i}", v) for i, v in enumerate(freed[left:])),
    )


def _matching(rng: random.Random, c: int) -> tuple:
    """Glue the R-stubs of one piece to the L-stubs of the next, shuffled."""
    left = list(range(c))
    rng.shuffle(left)
    pairs = [(f"R{i}", f"L{j}") for i, j in enumerate(left)]
    rng.shuffle(pairs)
    return tuple(pairs)


def _tail(rng: random.Random, c: int, pre: int, plen: int):
    from cubicham.chains import Tail

    return Tail(
        tuple(random_piece(rng, rng.choice(PIECE_SIZES), c, c) for _ in range(pre)),
        tuple(random_piece(rng, rng.choice(PIECE_SIZES), c, c) for _ in range(plen)),
        tuple(_matching(rng, c) for _ in range(pre)),
        tuple(_matching(rng, c) for _ in range(plen)),
    )


CHAIN_KINDS = (("one-ended", 2), ("one-ended", 3), ("two-ended", 2), ("two-ended", 3))


def random_chain(rng: random.Random, kind: tuple | None = None):
    """A chain of the given kind (mode, interface size), or of a random
    one, with a pre-period of 0-3 pieces and a period of 1-4 pieces, each
    piece cut from a random cubic pairing on 10 to 24 vertices."""
    from cubicham.chains import OneEndedChain, TwoEndedChain

    if kind is None:
        c = rng.choice((2, 3))
        one_ended = rng.random() < 0.5
    else:
        one_ended, c = kind[0] == "one-ended", kind[1]
    if one_ended:
        initial = random_piece(rng, rng.choice(PIECE_SIZES), 0, c)
        tail = _tail(rng, c, rng.randint(0, 3), rng.randint(1, 4))
        return OneEndedChain(initial, _matching(rng, c), tail)
    left = _tail(rng, c, rng.randint(0, 3), rng.randint(1, 4))
    right = _tail(rng, c, rng.randint(0, 3), rng.randint(1, 4))
    return TwoEndedChain(left, _matching(rng, c), right)
