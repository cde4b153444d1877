import logging
import warnings

import numpy as np
import pytest

import cycleflow as cf
from cycleflow.clustering import _soft_memberships, _spectral_embedding, _vertex_centers

from conftest import (mc_hitting_probabilities, random_strong_graph, shared_node_cliques,
                      three_cliques)
from reference import Lifting, spectrum_reversible, walk_matrix


# -------------------------------------------------------- module count choice

def test_estimate_modules_barbell(barbell40):
    lam = spectrum_reversible(Lifting(barbell40.dec).P_lift, barbell40.pi)
    assert cf.estimate_num_modules(lam, 8) == 2


def test_estimate_modules_three_cliques():
    pipe = cf.Pipeline(three_cliques())
    lam = spectrum_reversible(Lifting(pipe.dec).P_lift, pipe.pi)
    assert cf.estimate_num_modules(lam, 8) == 3


def test_estimate_modules_wheel_switch():
    # below the switching threshold the split is outer loop vs inner loop
    pipe = cf.Pipeline(cf.wheel_switch(10, 0.3), T=200_000)
    lam = spectrum_reversible(Lifting(pipe.dec).P_lift, pipe.pi)
    assert cf.estimate_num_modules(lam, 8) == 2


def test_estimate_modules_wheel_switch_high_p():
    # at high switch probability the spectrum spreads evenly over the two
    # 4-cycles and the two arc groups, so the gap rule resolves four blocks,
    # not the two-module structure; two-module runs must pass m explicitly
    pipe = cf.Pipeline(cf.wheel_switch(10, 0.7), T=400_000)
    lam = spectrum_reversible(Lifting(pipe.dec).P_lift, pipe.pi)
    assert cf.estimate_num_modules(lam, 8) == 4


def test_estimate_modules_degenerate_warns(caplog):
    pipe = cf.Pipeline(cf.ring(6))
    lam = spectrum_reversible(Lifting(pipe.dec).P_lift, pipe.pi)
    with caplog.at_level(logging.WARNING, logger="cycleflow.clustering"):
        assert cf.estimate_num_modules(lam, 4) == 2
    assert caplog.messages == ["all spectral gaps equal; defaulting to 2 modules"]
    caplog.clear()
    # two eigenvalues leave one gap, after lambda_1, and none to choose between
    with caplog.at_level(logging.WARNING, logger="cycleflow.clustering"):
        assert cf.estimate_num_modules([1.0, 0.5], 4) == 2
    assert caplog.messages == ["spectrum too short to pick a gap; defaulting to 2 modules"]


def test_estimate_modules_one_candidate_gap_is_no_tie(caplog):
    # with m_max=2, or three eigenvalues, 2 is the only answer: nothing was tied
    with warnings.catch_warnings(), caplog.at_level(logging.WARNING):
        warnings.simplefilter("error")
        assert cf.estimate_num_modules([1.0, 0.9, 0.2, 0.1], 2) == 2
        assert cf.estimate_num_modules([0.1, 1.0, 0.6], 8) == 2
    assert caplog.records == []


def test_estimate_modules_takes_any_order():
    lam = np.array([1.0, 0.97, 0.95, 0.5, 0.45, 0.1])
    for order in (lam, lam[::-1], lam[[3, 0, 5, 1, 4, 2]]):
        assert cf.estimate_num_modules(order, 8) == 3


def test_estimate_modules_rejects_complex():
    with pytest.raises(ValueError, match="needs a real spectrum"):
        cf.estimate_num_modules(np.linalg.eigvals(cf.transition_matrix(cf.ring(5))), 4)


# ----------------------------------------------------------------- the cores

def test_find_cores_barbell_full_rings(barbell40):
    cores = cf.find_cores(barbell40.K, 2, 0.9)
    assert cores.m == 2
    assert cores.transition == ()
    assert set(cores.cores[0]) == set(range(40))
    assert set(cores.cores[1]) == set(range(40, 80))


def test_find_cores_wheel_betas():
    pipe = cf.Pipeline(cf.wheel_switch(10, 0.7), T=10**6)
    cores = cf.find_cores(pipe.K, 2, 0.9)
    G = pipe.G
    beta1 = {G.index(v) for v in ("o0", "o1", "i0", "i1")}
    beta2 = {G.index(v) for v in ("o5", "o6", "i5", "i6")}
    assert {frozenset(cores.cores[0]), frozenset(cores.cores[1])} == \
        {frozenset(beta1), frozenset(beta2)}
    assert len(cores.transition) == 12


def test_find_cores_shared_node_in_transition():
    pipe = cf.Pipeline(shared_node_cliques())
    cores = cf.find_cores(pipe.K, 2, 0.9)
    shared = pipe.G.index("s2")
    assert shared in cores.transition
    assert all(shared not in c for c in cores.cores)


def test_find_cores_validation(barbell4):
    with pytest.raises(ValueError):
        cf.find_cores(barbell4.K, 1, 0.9)
    with pytest.raises(ValueError):
        cf.find_cores(barbell4.K, 2, 0.4)
    with pytest.raises(ValueError):
        cf.find_cores(barbell4.K, 2, 1.0)
    # bad input, not a numerical failure: no threshold gives 9 non-empty cores on 8 nodes
    with pytest.raises(ValueError, match="cannot form 9 modules on 8 nodes"):
        cf.find_cores(barbell4.K, 9, 0.9)


def test_find_cores_refuses_coincident_centers(barbell4, monkeypatch):
    # every row sits at equal distance from two equal centers: no membership exceeds 1/2
    monkeypatch.setattr("cycleflow.clustering._vertex_centers", lambda X, m: X[[0, 0]])
    with pytest.raises(RuntimeError, match="could not form 2 non-empty cores at threshold 0.9"):
        cf.find_cores(barbell4.K, 2, 0.9)


def loop_soft_memberships(X, centers):
    """Reference memberships, row by row: 1/d^2 normalized, or an equal share
    of the centers at distance 0."""
    d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    out = np.zeros((X.shape[0], centers.shape[0]))
    for i in range(X.shape[0]):
        zero = d2[i] <= 1e-300
        if zero.any():
            out[i, zero] = 1.0 / zero.sum()
        else:
            inv = 1.0 / d2[i]
            out[i] = inv / inv.sum()
    return out


@pytest.mark.parametrize("m", [2, 3, 5, 8, 9])
def test_soft_memberships_match_loop(m):
    K = cf.Pipeline(random_strong_graph(np.random.default_rng(m), 60)).K
    X = _spectral_embedding(K, m)
    centers = _vertex_centers(X, m)  # rows of X: those rows sit on a center
    got = _soft_memberships(X, centers)
    assert np.array_equal(got, loop_soft_memberships(X, centers))
    assert np.any(got == 1.0)
    # a row on two equal centers splits evenly between them
    twin = np.vstack([centers, centers[:1]])
    X = np.vstack([X, centers[0] + 1e-9])
    got = _soft_memberships(X, twin)
    assert np.array_equal(got, loop_soft_memberships(X, twin))
    on_twin = np.flatnonzero(np.all(X == centers[0], axis=1))
    assert on_twin.size and np.all(got[on_twin][:, [0, m]] == 0.5)


# ---------------------------------------------------------------- committors

def test_committor_midpoint_symmetry(chain3):
    q = cf.committors(chain3.K, ((0,), (2,)))
    assert q[1, 0] == pytest.approx(0.5, abs=1e-12)
    assert q[0, 0] == 1.0 and q[2, 0] == 0.0


def test_committor_wheel_half_affiliations():
    pipe = cf.Pipeline(cf.wheel_switch(10, 0.7), T=10**6)
    cores = cf.find_cores(pipe.K, 2, 0.9)
    q = cf.committors(pipe.K, cores.cores)
    tr = list(cores.transition)
    assert np.abs(q[tr, :] - 0.5).max() <= 1e-9


def test_committor_barbell_center(barbell40):
    q = cf.committors(barbell40.K, (range(1, 40), range(41, 80)))
    assert q[0, 0] > 0.95
    assert q[40, 1] > 0.95


def test_committor_invariants(barbell40):
    cores = cf.find_cores(barbell40.K, 2, 0.9)
    q = cf.committors(barbell40.K, cores.cores)
    assert np.abs(q.sum(axis=1) - 1).max() <= 1e-10
    assert q.min() >= 0.0 and q.max() <= 1.0


def test_committor_monte_carlo_oracle():
    # estimates from simulated walks of the communication walk match the solve
    pipe = cf.Pipeline(cf.wheel_switch(10, 0.7), T=400_000)
    cores = cf.find_cores(pipe.K, 2, 0.9)
    q = cf.committors(pipe.K, cores.cores)
    walk = walk_matrix(pipe.K)
    for x in list(cores.transition)[:3]:
        est = mc_hitting_probabilities(walk, cores.cores, x, 20_000, seed=7)
        assert np.abs(est - q[x]).max() <= 0.02


def test_committor_automorphism_equivariance(chain3):
    # swapping the ends of the 3-node chain swaps the committors
    q = cf.committors(chain3.K, ((0,), (2,)))
    assert q[1, 0] == pytest.approx(q[1, 1], abs=1e-12)


def test_committor_refusals(chain3):
    with pytest.raises(ValueError, match="cores overlap at node 'b'"):
        cf.committors(chain3.K, ((0, 1), (1, 2)))
    # an index repeated within one core is no overlap
    assert np.array_equal(cf.committors(chain3.K, ((0, 0), (2,))),
                          cf.committors(chain3.K, ((0,), (2,))))
    for bad in (3, -1):  # a negative index would wrap around to the last node
        with pytest.raises(ValueError, match=f"core index {bad} out of range for 3 nodes"):
            cf.committors(chain3.K, ((0,), (2, bad)))
    # two components: the transition pair {c, d} reaches neither core, and its rows
    # would come out [0, 0], which argmax labels 0 as a tie
    K = cf.CommunicationGraph(intensity=np.array(
        [[1, .5, 0, 0], [.5, 1, 0, 0], [0, 0, 1, .5], [0, 0, .5, 1]]), nodes=tuple("abcd"))
    with pytest.raises(RuntimeError, match="transition node 'c' reaches no core"):
        cf.committors(K, ((0,), (1,)))
    # a transition node on its self-loop alone would leave the system exactly singular
    K = cf.CommunicationGraph(intensity=np.array([[1, .5, 0], [.5, 1, 0], [0, 0, 1]]))
    with pytest.raises(RuntimeError, match="transition node '2' reaches no core"):
        cf.committors(K, ((0,), (1,)))
    # c and d reach core b through each other, two steps out; e, alone on its
    # self-loop, is the first node whose component holds no core
    intensity = np.diag([1.0, 1, 1, 1, 1])
    for x, y in ((0, 1), (1, 2), (2, 3)):
        intensity[x, y] = intensity[y, x] = 0.5
    cores = ((0,), (1,))
    with pytest.raises(RuntimeError, match="transition node 'e' reaches no core"):
        cf.committors(cf.CommunicationGraph(intensity=intensity, nodes=tuple("abcde")), cores)
    intensity[3, 4] = intensity[4, 3] = 0.5
    q = cf.committors(cf.CommunicationGraph(intensity=intensity, nodes=tuple("abcde")), cores)
    assert np.allclose(q[2:], [[0, 1]] * 3, atol=1e-12)


# ------------------------------------------------------------ fuzzy partition

def test_fuzzy_partition_barbell(barbell40):
    labels, ties = cf.hard_labels(cf.committors(barbell40.K,
                                                cf.find_cores(barbell40.K, 2, 0.9).cores))
    assert not ties.any()
    assert np.array_equal(labels[:40], np.zeros(40, dtype=int))
    assert np.array_equal(labels[40:], np.ones(40, dtype=int))


def test_fuzzy_partition_ties_on_wheel():
    pipe = cf.Pipeline(cf.wheel_switch(10, 0.7), T=10**6)
    cores = cf.find_cores(pipe.K, 2, 0.9)
    _, ties = cf.hard_labels(cf.committors(pipe.K, cores.cores))
    assert set(np.flatnonzero(ties)) == set(cores.transition)
