"""Exact generators: the 18-vertex cubic fragment T with three leaves, its
leaf-identified quotient, the self-similar replacement graphs, small classic
cubic graphs, and the built-in cut chains (one- and two-ended ladders, the
replacement limit G, and the grafted variants H and H').

`BUILTIN_GRAPHS` and `BUILTIN_CHAINS` map each built-in name that the
command line accepts to the function that builds it; they are the only
registry of those names.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import ChainPiece, OneEndedChain, Tail, TwoEndedChain
from .multigraph import GraphError, MultiGraph, quotient, relabel_vertices


@dataclass(frozen=True)
class LabeledFragment:
    """A graph together with an ordered list of designated boundary edges."""

    graph: MultiGraph
    boundary: tuple[str, ...]

    def __post_init__(self):
        labels = [e.label for e in self.graph.edges]
        if len(set(self.boundary)) != len(self.boundary):
            raise GraphError("boundary edges must be distinct")
        for b in self.boundary:
            if b not in labels:
                raise GraphError(f"boundary edge {b!r} missing")


_T_LEAVES = ("lx", "ly", "lz")
_T_INTERIOR = ("x", "p", "y", "q", "r", "b", "s", "t", "v", "c", "a", "u", "m", "n", "z")
_T_LEAF_EDGES = (("e_x", "lx", "x"), ("e_y", "y", "ly"), ("e_z", "z", "lz"))
_T_INTERIOR_EDGES = (
    ("x_p", "x", "p"),
    ("p_y", "p", "y"),
    ("x_q", "x", "q"),
    ("q_r", "q", "r"),
    ("r_b", "r", "b"),
    ("b_p", "b", "p"),
    ("q_s", "q", "s"),
    ("s_t", "s", "t"),
    ("t_r", "t", "r"),
    ("f_b", "b", "v"),
    ("f_c", "v", "c"),
    ("y_c", "y", "c"),
    ("t_a", "t", "a"),
    ("f_a", "v", "a"),
    ("s_u", "s", "u"),
    ("u_m", "u", "m"),
    ("m_n", "m", "n"),
    ("c_n", "c", "n"),
    ("a_m", "a", "m"),
    ("u_z", "u", "z"),
    ("n_z", "n", "z"),
)


def tutte_fragment() -> LabeledFragment:
    """18-vertex cubic fragment with three degree-1 leaves lx, ly, lz."""
    G = MultiGraph(_T_LEAVES + _T_INTERIOR, _T_LEAF_EDGES + _T_INTERIOR_EDGES)
    return LabeledFragment(G, ("e_x", "e_y", "e_z"))


def tutte_quotient() -> MultiGraph:
    """The fragment with its three leaves identified into one vertex w."""
    T = tutte_fragment().graph
    Q = quotient(T, [("lx", "ly"), ("lx", "lz")])
    return relabel_vertices(Q, {"lx": "w"})


def replacement_graph(n: int) -> MultiGraph:
    """n-th self-similar replacement graph: start from the leaf-identified
    fragment and n times replace the current vertex v_i by a fresh fragment,
    identifying the fresh leaves with v_i's old neighbours a_i, b_i, c_i.
    """
    if n < 0:
        raise GraphError("replacement depth must be nonnegative")

    def sfx(name: str, i: int) -> str:
        return f"{name}_{i}"

    vertices = [sfx("w", 0)] + [sfx(v, 0) for v in _T_INTERIOR]
    edges = [(sfx(lab, 0), sfx(u, 0), sfx(v, 0)) for lab, u, v in _T_INTERIOR_EDGES]
    edges += [
        (sfx("e_x", 0), sfx("w", 0), sfx("x", 0)),
        (sfx("e_y", 0), sfx("y", 0), sfx("w", 0)),
        (sfx("e_z", 0), sfx("z", 0), sfx("w", 0)),
    ]
    for i in range(1, n + 1):
        gone = sfx("v", i - 1)
        vertices.remove(gone)
        edges = [e for e in edges if gone not in e[1:]]
        vertices += [sfx(v, i) for v in _T_INTERIOR]
        edges += [(sfx(lab, i), sfx(u, i), sfx(v, i)) for lab, u, v in _T_INTERIOR_EDGES]
        edges += [
            (sfx("e_x", i), sfx("a", i - 1), sfx("x", i)),
            (sfx("e_y", i), sfx("b", i - 1), sfx("y", i)),
            (sfx("e_z", i), sfx("c", i - 1), sfx("z", i)),
        ]
    return MultiGraph(vertices, edges)


def k4() -> MultiGraph:
    vs = ("1", "2", "3", "4")
    return MultiGraph(vs, [(f"{u}{v}", u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]])


def petersen() -> MultiGraph:
    vertices = [f"o{i}" for i in range(5)] + [f"i{i}" for i in range(5)]
    edges = []
    for i in range(5):
        edges.append((f"o{i}o{(i + 1) % 5}", f"o{i}", f"o{(i + 1) % 5}"))
        edges.append((f"i{i}i{(i + 2) % 5}", f"i{i}", f"i{(i + 2) % 5}"))
        edges.append((f"o{i}i{i}", f"o{i}", f"i{i}"))
    return MultiGraph(vertices, edges)


def cube() -> MultiGraph:
    vertices = [f"{a}{b}{c}" for a in "01" for b in "01" for c in "01"]
    edges = []
    for u in vertices:
        for i in range(3):
            v = u[:i] + ("1" if u[i] == "0" else "0") + u[i + 1 :]
            if u < v:
                edges.append((f"{u}-{v}", u, v))
    return MultiGraph(vertices, edges)


# -- cut-chain presentations --------------------------------------------------

_IFACE_G = (("f_a", "e_x"), ("f_b", "e_y"), ("f_c", "e_z"))
_IFACE_CROSS = (("e_x", "e_z"), ("e_y", "e_y"), ("e_z", "e_x"))
_IFACE_G_MIRROR = (("e_x", "f_a"), ("e_y", "f_b"), ("e_z", "f_c"))


def _fragment_interior_piece(
    with_v: bool, left_stubs: bool, right_stubs: str
) -> ChainPiece:
    """Fragment interior with e-stubs at x, y, z and f- or e-stubs outward."""
    vertices = tuple(v for v in _T_INTERIOR if with_v or v != "v")
    edges = tuple(
        e for e in _T_INTERIOR_EDGES if with_v or ("v" not in e[1:])
    )
    e_ports = (("e_x", "x"), ("e_y", "y"), ("e_z", "z"))
    f_ports = (("f_a", "a"), ("f_b", "b"), ("f_c", "c"))
    left = e_ports if left_stubs else ()
    right = f_ports if right_stubs == "f" else e_ports
    return ChainPiece(MultiGraph(vertices, edges), left, right)


def _g_initial_piece() -> ChainPiece:
    # leaf-identified fragment with v removed; its f-edges become right stubs
    vertices = ("w",) + tuple(v for v in _T_INTERIOR if v != "v")
    edges = tuple(e for e in _T_INTERIOR_EDGES if "v" not in e[1:]) + (
        ("e_x", "w", "x"),
        ("e_y", "y", "w"),
        ("e_z", "z", "w"),
    )
    return ChainPiece(MultiGraph(vertices, edges), (), (("f_a", "a"), ("f_b", "b"), ("f_c", "c")))


def chain_G() -> OneEndedChain:
    """One-ended limit of the replacement graphs, cut at each replaced vertex."""
    period = _fragment_interior_piece(with_v=False, left_stubs=True, right_stubs="f")
    return OneEndedChain(_g_initial_piece(), _IFACE_G, Tail((), (period,), (), (_IFACE_G,)), "chain_G")


def chain_H() -> OneEndedChain:
    """The replacement limit with its first vertex w replaced by a full
    fragment, glued crosswise (x to z)."""
    initial = _fragment_interior_piece(with_v=True, left_stubs=False, right_stubs="e")
    period = _fragment_interior_piece(with_v=False, left_stubs=True, right_stubs="f")
    return OneEndedChain(initial, _IFACE_CROSS, Tail((), (period,), (), (_IFACE_G,)), "chain_H")


def chain_Hprime() -> TwoEndedChain:
    """Two copies of the replacement limit minus w, joined crosswise."""
    right_piece = _fragment_interior_piece(with_v=False, left_stubs=True, right_stubs="f")
    left_graph = right_piece.graph
    left_piece = ChainPiece(
        left_graph,
        (("f_a", "a"), ("f_b", "b"), ("f_c", "c")),
        (("e_x", "x"), ("e_y", "y"), ("e_z", "z")),
    )
    return TwoEndedChain(
        Tail((), (left_piece,), (), (_IFACE_G_MIRROR,)),
        _IFACE_CROSS,
        Tail((), (right_piece,), (), (_IFACE_G,)),
        "chain_Hprime",
    )


_IFACE_LADDER = (("ru", "lu"), ("rl", "ll"))


def _rung_piece(left_stubs: bool) -> ChainPiece:
    left = (("lu", "u"), ("ll", "l")) if left_stubs else ()
    return ChainPiece(
        MultiGraph(("u", "l"), [("u_l", "u", "l")]),
        left,
        (("ru", "u"), ("rl", "l")),
    )


def chain_ladder() -> OneEndedChain:
    """One-ended cubic ladder; the foot of the first rung is subdivided so
    every vertex is cubic."""
    initial = ChainPiece(
        MultiGraph(
            ("o", "m", "u1", "l1"),
            [
                ("e_1", "o", "u1"),
                ("e_2", "o", "l1"),
                ("o_m", "o", "m"),
                ("f_1", "m", "u1"),
                ("f_2", "m", "l1"),
            ],
        ),
        (),
        (("ru", "u1"), ("rl", "l1")),
    )
    return OneEndedChain(
        initial, _IFACE_LADDER, Tail((), (_rung_piece(True),), (), (_IFACE_LADDER,)), "chain_ladder"
    )


def chain_double_ladder() -> TwoEndedChain:
    """Bi-infinite ladder: rungs in both directions."""
    rung = _rung_piece(True)
    return TwoEndedChain(
        Tail((), (rung,), (), (_IFACE_LADDER,)),
        _IFACE_LADDER,
        Tail((), (rung,), (), (_IFACE_LADDER,)),
        "chain_double_ladder",
    )


BUILTIN_GRAPHS = {
    "tutte-fragment": lambda: tutte_fragment().graph,
    "tutte-quotient": tutte_quotient,
    "k4": k4,
    "petersen": petersen,
    "cube": cube,
}

BUILTIN_CHAINS = {
    "chain-G": chain_G,
    "chain-H": chain_H,
    "chain-Hprime": chain_Hprime,
    "chain-ladder": chain_ladder,
    "chain-double-ladder": chain_double_ladder,
}
