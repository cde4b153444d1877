import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycleflow as cf

from conftest import random_strong_graph, reciprocal_ring4
from reference import (Lifting, cycle_to_node_matrix, detailed_balance_residual,
                       entropy_production_cycle, entropy_production_edge, node_to_cycle_matrix,
                       spectrum_reversible, verify_spectral_match, walk_matrix)


# ------------------------------------------------------------- the matrices

def test_node_to_cycle_barbell(barbell4):
    G, dec = barbell4.G, barbell4.dec
    B = Lifting(barbell4.dec).B
    l0 = G.index("l0")
    cycles = dec.cycles
    j_ring = cycles.index(tuple(range(4)))
    j_bridge = cycles.index((0, 4))
    eps = 0.1
    assert B[l0, j_ring] == pytest.approx(1 / (1 + eps), abs=1e-12)
    assert B[l0, j_bridge] == pytest.approx(eps / (1 + eps), abs=1e-12)
    l1 = G.index("l1")
    assert B[l1, j_ring] == 1.0


def test_node_to_cycle_chain(chain3):
    b = chain3.G.index("b")
    assert np.allclose(Lifting(chain3.dec).B[b], [0.5, 0.5], atol=1e-12)


def test_node_to_cycle_requires_cover(chain3):
    # drop one cycle: node c is no longer covered
    weights = {(0, 1): 0.25}
    partial = cf.CycleDecomposition(weights=weights, kind="iterative", n_nodes=3)
    with pytest.raises(ValueError, match="covered by no cycle"):
        node_to_cycle_matrix(partial)


def test_cycle_to_node_rows():
    dec = cf.CycleDecomposition(weights={(0, 1): 0.3, (1, 2, 3): 0.1},
                                kind="iterative", n_nodes=4)
    V = cycle_to_node_matrix(dec)
    assert np.allclose(V[0], [0.5, 0.5, 0, 0])
    assert np.allclose(V[1], [0, 1 / 3, 1 / 3, 1 / 3])


def test_ring_lifted_chains_are_uniform():
    lift = Lifting(cf.Pipeline(cf.ring(5)).dec)
    assert lift.B.shape == (5, 1)
    assert np.all(lift.B == 1.0)
    assert np.allclose(lift.P_lift, 0.2, atol=1e-14)
    assert lift.Q_lift.shape == (1, 1)
    assert lift.Q_lift[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_lifted_chain_examples(chain3):
    G = chain3.G
    a, b = G.index("a"), G.index("b")
    lift = Lifting(chain3.dec)
    assert lift.P_lift[b, a] == pytest.approx(0.25, abs=1e-13)
    assert lift.P_lift[b, b] == pytest.approx(0.5, abs=1e-13)
    # cycle chain: two 2-cycles sharing node b
    assert lift.Q_lift[0, 1] == pytest.approx(0.25, abs=1e-13)
    assert np.allclose(lift.mu, [0.5, 0.5], atol=1e-13)


def test_barbell_cycle_chain_entry(barbell4):
    cycles = barbell4.dec.cycles
    j_l = cycles.index(tuple(range(4)))
    j_c = cycles.index((0, 4))
    eps, n = 0.1, 4
    assert Lifting(barbell4.dec).Q_lift[j_l, j_c] == pytest.approx(
        (1 / n) * eps / (1 + eps), abs=1e-13)


def test_mu_is_stationary_for_cycle_chain(barbell4):
    lift = Lifting(barbell4.dec)
    mu, Q = lift.mu, lift.Q_lift
    assert np.abs(mu @ Q - mu).max() <= 1e-12
    assert mu.sum() == pytest.approx(1.0, abs=1e-13)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_lifted_invariants_property(seed):
    pipe = cf.Pipeline(random_strong_graph(np.random.default_rng(seed)))
    lift = Lifting(pipe.dec)
    for M in (lift.B, lift.V, lift.P_lift, lift.Q_lift):
        assert np.abs(M.sum(axis=1) - 1).max() <= 1e-10
    assert detailed_balance_residual(lift.P_lift, pipe.pi) <= 1e-10
    assert detailed_balance_residual(lift.Q_lift, lift.mu) <= 1e-10
    assert np.abs(pipe.pi @ lift.P_lift - pipe.pi).max() <= 1e-8
    assert np.abs(lift.mu @ lift.Q_lift - lift.mu).max() <= 1e-8
    # K's one eigendecomposition is the lifted spectrum, and its vectors over
    # sqrt(mass) are right eigenvectors of the walk on K
    K = pipe.K
    vals, U = K.eigh
    ref = spectrum_reversible(lift.P_lift, lift.pi_lift).real_sorted()
    assert np.abs(np.sort(vals)[::-1] - ref).max() <= 1e-12
    R = U / np.sqrt(K.mass)[:, None]
    assert np.abs(walk_matrix(K) @ R - R * vals).max() <= 1e-10


# ------------------------------------------------------------------ spectra

def test_array_form_on_many_sampled_cycles():
    """The array-form matrices on ~1500 sampled cycles, against loop references."""
    rng = np.random.default_rng(2)
    n = 30
    nodes = [f"x{k}" for k in range(n)]
    edges = {(nodes[k], nodes[(k + 1) % n]): 1.0 for k in range(n)}
    for k in range(n):
        for j in rng.choice(n, 2, replace=False):
            if j != k:
                edges[(nodes[k], nodes[j])] = float(rng.uniform(0.2, 3.0))
    pipe = cf.Pipeline(cf.DirectedGraph(nodes, edges), T=100_000)
    dec = pipe.dec
    assert len(dec.cycles) > 1000

    mass = np.zeros(n)
    I_ref = np.zeros((n, n))
    S_ref = np.zeros((n, n))
    for c, w in dec.weights.items():
        mass[list(c)] += w
        I_ref[np.ix_(c, c)] += w / len(c)
        for x, y in zip(c, c[1:] + c[:1]):
            S_ref[x, y] += w
    assert np.allclose(dec.node_mass(), mass, rtol=1e-12, atol=0)
    I = pipe.K.intensity
    assert np.array_equal(I, I.T)
    assert np.allclose(I, I_ref, rtol=1e-12, atol=1e-15)
    assert np.allclose(I.sum(axis=1), dec.node_mass(), rtol=0, atol=1e-12)
    assert cf.verify_flow_decomposition(dec, S_ref) <= 1e-15

    lift = Lifting(dec)
    for M in (lift.B, lift.V):
        assert np.allclose(M.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    for j, c in enumerate(dec.cycles):
        assert np.allclose(lift.B[list(c), j], dec.weights[c] / mass[list(c)], rtol=1e-12)
        assert np.all(lift.V[j, list(c)] == 1.0 / len(c))
    assert np.count_nonzero(lift.B) == np.count_nonzero(lift.V) == dec.members.size

    assert detailed_balance_residual(lift.P_lift, lift.pi_lift) <= 1e-12
    assert detailed_balance_residual(lift.Q_lift, lift.mu) <= 1e-12
    # the cycle graph is the flux of the cycle chain: symmetric, with rows len * w
    W = cf.cycle_graph(dec).intensity
    assert np.array_equal(W, W.T)
    assert np.allclose(W, (dec.lengths * dec.w)[:, None] * lift.Q_lift,
                       rtol=1e-12, atol=1e-15)
    # each lifted chain is the walk on one of the two undirected graphs
    BV, VB = lift.B @ lift.V, lift.V @ lift.B
    assert np.abs(BV - walk_matrix(pipe.K)).max() <= 1e-13
    assert np.abs(VB - W / W.sum(axis=1)[:, None]).max() <= 1e-13


def test_spectrum_leading_eigenvalue(barbell40):
    # the walk is periodic, so -1 shares the unit modulus with 1
    rep = cf.spectrum(barbell40.P)
    assert abs(abs(rep.eigenvalues[0]) - 1) <= 1e-8
    assert any(abs(z - 1) <= 1e-8 for z in rep.eigenvalues[:4])
    rep_lift = spectrum_reversible(Lifting(barbell40.dec).P_lift, barbell40.pi)
    assert abs(rep_lift.eigenvalues[0] - 1) <= 1e-8
    assert rep_lift.max_imag == 0.0


def test_spectrum_ring_roots_of_unity():
    rep = cf.spectrum(cf.transition_matrix(cf.ring(5)))
    expected = np.exp(2j * np.pi * np.arange(5) / 5)
    got = np.sort_complex(rep.eigenvalues)
    assert np.allclose(np.sort_complex(expected), got, atol=1e-10)


def test_spectrum_top_k():
    P = cf.transition_matrix(cf.ring(6))
    rep = cf.spectrum(P, k=3)
    assert len(rep.eigenvalues) == 3
    with pytest.raises(ValueError):
        cf.spectrum(P, k=7)


def test_barbell_spectral_structure(barbell40):
    rep = spectrum_reversible(Lifting(barbell40.dec).P_lift, barbell40.pi)
    lam = rep.real_sorted()
    n, eps = 40, 0.1
    assert lam[1] == pytest.approx(1 - eps / (n * (1 + eps)), abs=1e-10)
    assert lam[2] == pytest.approx((eps / (1 + eps)) * (1 - 1 / n), abs=1e-10)
    gaps = rep.gaps(8)
    assert int(np.argmax(gaps)) == 1  # the gap after the second eigenvalue
    # the plain walk has near-unit-modulus complex eigenvalues
    rep_walk = cf.spectrum(barbell40.P)
    assert any(abs(z) > 0.99 and abs(z.imag) > 0.1 for z in rep_walk.eigenvalues)


def test_csv_export(barbell4):
    rep = spectrum_reversible(Lifting(barbell4.dec).P_lift, barbell4.pi)
    text = rep.csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "re,im"
    assert len(lines) == barbell4.G.n + 1
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------- spectral correspondence

def test_nonzero_spectra_agree(chain3, barbell4):
    for pipe in (chain3, barbell4):
        lift = Lifting(pipe.dec)
        rep = verify_spectral_match(lift.P_lift, lift.Q_lift, lift.B, lift.V,
                                    pipe.pi, lift.mu)
        assert rep.ok, rep.detail
        assert rep.max_spectrum_diff <= 1e-8


def test_nonzero_spectra_chain_values(chain3):
    lift = Lifting(chain3.dec)
    rep = verify_spectral_match(lift.P_lift, lift.Q_lift, lift.B, lift.V, chain3.pi, lift.mu)
    assert np.allclose(rep.nonzero_cycle, [1.0, 0.5], atol=1e-10)


def test_match_report_detects_mismatch(barbell4):
    # pair the chains of two different bridge weights: same shapes, different spectra
    lift, other = Lifting(barbell4.dec), Lifting(cf.Pipeline(cf.barbell(4, 0.4)).dec)
    rep = verify_spectral_match(lift.P_lift, other.Q_lift, lift.B, lift.V,
                                barbell4.pi, other.mu)
    assert not rep.ok
    assert rep.detail


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_spectral_match_property(seed):
    pipe = cf.Pipeline(random_strong_graph(np.random.default_rng(seed)))
    lift = Lifting(pipe.dec)
    rep = verify_spectral_match(lift.P_lift, lift.Q_lift, lift.B, lift.V, pipe.pi, lift.mu)
    assert rep.ok, rep.detail


# -------------------------------------------------------- entropy production

def test_entropy_zero_for_reversible(chain3):
    assert entropy_production_edge(chain3.P, chain3.pi) == 0.0
    assert entropy_production_cycle(chain3.dec) == 0.0


def test_entropy_infinite_without_reverse_edges(barbell4):
    assert entropy_production_edge(barbell4.P, barbell4.pi) == math.inf
    assert entropy_production_cycle(barbell4.dec) == math.inf


def test_entropy_two_state_chain_is_zero():
    # any two-state chain is detailed balanced, so the rate vanishes
    G = cf.DirectedGraph(["a", "b"], {("a", "b"): 0.8, ("a", "a"): 0.2,
                                      ("b", "a"): 0.4, ("b", "b"): 0.6})
    P = cf.transition_matrix(G)
    pi = cf.stationary_distribution(P)
    assert entropy_production_edge(P, pi) == pytest.approx(0.0, abs=1e-15)


def test_entropy_positive_for_driven_ring():
    G = reciprocal_ring4()
    P = cf.transition_matrix(G)
    pi = cf.stationary_distribution(P)
    ep = entropy_production_edge(P, pi)
    assert 0 < ep < math.inf


def test_entropy_cycle_matches_edge_formula_sampled():
    G = reciprocal_ring4()
    P = cf.transition_matrix(G)
    pi = cf.stationary_distribution(P)
    ep_edge = entropy_production_edge(P, pi)
    traj = cf.simulate(P, 0, 10**6, seed=0)
    dec = cf.sample_decomposition(traj, n_nodes=G.n)
    ep_cycle = entropy_production_cycle(dec)
    assert ep_cycle == pytest.approx(ep_edge, rel=0.05)
