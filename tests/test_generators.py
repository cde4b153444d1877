import numpy as np
import pytest

import cycleflow as cf

from reference import entropy_production_edge


def test_barbell_structure():
    G = cf.barbell(3, 0.5)
    assert G.n == 6
    assert len(G.edges) == 8
    assert G.edges[("l0", "r0")] == 0.5
    assert G.edges[("r0", "l0")] == 0.5
    assert G.edges[("l1", "l2")] == 1.0
    assert cf.check_strongly_connected(G)


def test_barbell_validation():
    with pytest.raises(ValueError):
        cf.barbell(2, 0.1)
    with pytest.raises(ValueError):
        cf.barbell(4, 0.0)
    with pytest.raises(ValueError):
        cf.barbell(4, 1.0)


def test_barbell_closed_forms_attach():
    forms = cf.barbell_closed_forms(40, 0.1)
    assert forms["pi_ring"] == pytest.approx(1 / 80.2)
    assert forms["w_bridge"] == pytest.approx(0.1 / 80.2)
    G = cf.barbell(40, 0.1)
    pi = cf.stationary_distribution(cf.transition_matrix(G))
    assert pi[G.index("l5")] == pytest.approx(forms["pi_ring"], abs=1e-13)
    assert pi[G.index("r0")] == pytest.approx(forms["pi_center"], abs=1e-13)


def test_barbell_decomposes_into_three_cycles():
    for n, eps in ((4, 0.1), (6, 0.3)):
        G = cf.barbell(n, eps)
        P = cf.transition_matrix(G)
        pi = cf.stationary_distribution(P)
        dec = cf.iterative_decomposition(cf.edge_flow(P, pi), nodes=G.nodes)
        w = 1.0 / (2 * (n + eps))
        assert len(dec.weights) == 3
        assert dec.weight(range(n)) == pytest.approx(w, abs=1e-12)
        assert dec.weight(range(n, 2 * n)) == pytest.approx(w, abs=1e-12)
        assert dec.weight((0, n)) == pytest.approx(eps * w, abs=1e-12)


def test_wheel_switch_structure():
    n, p = 10, 0.7
    G = cf.wheel_switch(n, p)
    assert G.n == 2 * n
    assert len(G.edges) == 2 * n + 4
    assert cf.check_strongly_connected(G)
    # edge weights are the transition probabilities themselves
    P = cf.transition_matrix(G)
    K = G.weight_matrix()
    assert np.allclose(P, K, atol=1e-15)
    assert G.edges[("o1", "i0")] == p
    assert G.edges[("o1", "o2")] == pytest.approx(1 - p)
    assert G.edges[("i6", "o5")] == p


def test_wheel_switch_beta_cycles_are_simple_cycles():
    n = 10
    G = cf.wheel_switch(n, 0.6)
    P = cf.transition_matrix(G)
    pi = cf.stationary_distribution(P)
    dec = cf.iterative_decomposition(cf.edge_flow(P, pi), nodes=G.nodes)
    for beta in cf.wheel_switch_beta_cycles(n):
        idx = cf.canonical_cycle([G.index(v) for v in beta])
        assert dec.weight(idx) > 0


def test_wheel_switch_validation():
    with pytest.raises(ValueError):
        cf.wheel_switch(5, 0.5)   # odd
    with pytest.raises(ValueError):
        cf.wheel_switch(4, 0.5)   # too small
    with pytest.raises(ValueError):
        cf.wheel_switch(10, 1.0)


def test_wheel_switch_beta_weight_monotone_in_p():
    n, T, seed = 10, 10**5, 0
    weights = []
    for p in (0.3, 0.5, 0.7, 0.9):
        G = cf.wheel_switch(n, p)
        P = cf.transition_matrix(G)
        traj = cf.simulate(P, 0, T, seed=seed)
        dec = cf.sample_decomposition(traj, n_nodes=G.n)
        b1 = cf.canonical_cycle([G.index(v) for v in ("o0", "o1", "i0", "i1")])
        weights.append(dec.weights.get(b1, 0.0))
    assert all(a < b for a, b in zip(weights, weights[1:]))


def test_ring():
    G = cf.ring(5)
    assert G.n == 5 and len(G.edges) == 5
    pi = cf.stationary_distribution(cf.transition_matrix(G))
    assert np.allclose(pi, 0.2, atol=1e-12)
    dec = cf.iterative_decomposition(
        cf.edge_flow(cf.transition_matrix(G), pi), nodes=G.nodes)
    assert len(dec.weights) == 1

    two = cf.ring(2)
    P = cf.transition_matrix(two)
    pi2 = cf.stationary_distribution(P)
    assert entropy_production_edge(P, pi2) == 0.0
    with pytest.raises(ValueError):
        cf.ring(1)


def test_generated_graphs_strongly_connected():
    for G in (cf.barbell(3, 0.9), cf.barbell(12, 0.01),
              cf.wheel_switch(6, 0.2), cf.wheel_switch(14, 0.9), cf.ring(2)):
        assert cf.check_strongly_connected(G)
