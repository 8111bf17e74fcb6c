import random

import pytest

from cubicham import (
    GraphError,
    check_pair_sum_even,
    check_uniform_parity,
    cube,
    incidence_multigraph,
    k4,
    pair_states,
    random_cubic_hamiltonian,
    tutte_quotient,
)


def _table_by_labels(G, H):
    def name(state):
        return frozenset(G.edges[i].label for i in state)

    out = {}
    for p in H.left_states:
        for q in H.right_states:
            out[(name(p), name(q))] = H.multiplicity(p, q)
    return out


def test_quotient_fragment_incidence_table():
    Q = tutte_quotient()
    H = incidence_multigraph(Q, "w", "v")
    t = _table_by_labels(Q, H)
    f = frozenset
    expected = {
        (f({"e_x", "e_z"}), f({"f_a", "f_b"})): 1,
        (f({"e_x", "e_z"}), f({"f_a", "f_c"})): 1,
        (f({"e_y", "e_z"}), f({"f_a", "f_b"})): 1,
        (f({"e_y", "e_z"}), f({"f_a", "f_c"})): 1,
        (f({"e_y", "e_z"}), f({"f_b", "f_c"})): 2,
    }
    for key, mult in t.items():
        assert mult == expected.get(key, 0)
    assert H.total == 6


def test_quotient_fragment_state_degrees():
    Q = tutte_quotient()
    H = incidence_multigraph(Q, "w", "v")
    assert sorted(H.left_degree(p) for p in H.left_states) == [0, 2, 4]
    assert sorted(H.right_degree(q) for q in H.right_states) == [2, 2, 2]


def test_pair_states_order_and_count():
    Q = tutte_quotient()
    states = pair_states(Q, "w")
    assert len(states) == 3
    assert all(len(s) == 2 for s in states)


def test_audits_pass_on_known_graphs():
    for G, v, w in ((tutte_quotient(), "w", "v"), (k4(), "1", "3"), (cube(), "000", "111")):
        H = incidence_multigraph(G, v, w)
        assert check_pair_sum_even(H).all_even
        assert check_uniform_parity(H).uniform


def test_audits_pass_on_sampled_cubic_hamiltonian():
    rng = random.Random(23)
    for _ in range(10):
        G = random_cubic_hamiltonian(10, rng)
        H = incidence_multigraph(G, "v0", "v3")
        assert check_pair_sum_even(H).all_even
        assert check_uniform_parity(H).uniform


def test_anchor_validation():
    Q = tutte_quotient()
    with pytest.raises(GraphError):
        incidence_multigraph(Q, "w", "w")
    with pytest.raises(GraphError):
        incidence_multigraph(Q, "w", "nope")


def test_renderers():
    Q = tutte_quotient()
    H = incidence_multigraph(Q, "w", "v")
    text = H.to_text(Q)
    assert "{e_y,e_z}" in text and "2" in text
