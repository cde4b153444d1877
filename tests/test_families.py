"""Graph families whose every stage has a closed form, at any size: symmetric trees
and ring chains.  Their cycles share no edge, so the peel and the walk's loop
erasure give the same cycle set."""

import numpy as np
import pytest

import cycleflow as cf

from conftest import ring_chain, ring_chain_closed_forms, symmetric_tree
from reference import walk_matrix

RING_LENGTHS, RING_EPS = (30, 45, 25, 40), 0.1


def walk_committors(P, cores):
    """Committors of the walk P itself: (I - P) q = 0 off the cores, q = 1 on the target."""
    n, m = P.shape[0], len(cores)
    q = np.zeros((n, m))
    for j, core in enumerate(cores):
        q[list(core), j] = 1.0
    tr = sorted(set(range(n)) - {x for core in cores for x in core})
    q[tr] = np.linalg.solve(np.eye(len(tr)) - P[np.ix_(tr, tr)], P[tr] @ q)
    return q


@pytest.mark.parametrize("n", [50, 800])
def test_symmetric_tree_lifts_to_the_lazy_walk(n):
    G = symmetric_tree(np.random.default_rng(n), n)
    pipe = cf.Pipeline(G)
    assert pipe.dec.lengths.tolist() == [2] * (n - 1)
    K = pipe.K
    lazy = (np.eye(n) + pipe.P) / 2
    assert np.abs(walk_matrix(K) - lazy).max() <= 1e-12
    # P is reversible, so its spectrum is real
    walk = np.sort(np.linalg.eigvals(pipe.P).real)
    assert np.abs(np.sort(np.linalg.eigvalsh(K.normalized)) - (1 + walk) / 2).max() <= 1e-12
    # a lazy walk hits the cores in the same order as the walk itself
    core_sets = ((0,), (n // 2,), (n - 1,))
    assert np.abs(cf.committors(K, core_sets) - walk_committors(pipe.P, core_sets)).max() <= 1e-10


@pytest.fixture(scope="module")
def chain():
    G, rings = ring_chain(RING_LENGTHS, RING_EPS)
    return cf.Pipeline(G), rings


def test_ring_chain_peel_matches_closed_forms(chain):
    pipe, rings = chain
    forms = ring_chain_closed_forms(RING_LENGTHS, RING_EPS)
    dec = pipe.dec
    assert sorted(dec.lengths.tolist()) == [2, 2, 2, 25, 30, 40, 45]
    w_ring = dec.w[dec.lengths > 2]
    w_bridge = dec.w[dec.lengths == 2]
    assert np.abs(w_ring - forms["w_ring"]).max() <= 1e-15
    assert np.abs(w_bridge - forms["w_bridge"]).max() <= 1e-15
    hubs = np.flatnonzero(np.bincount(dec.members[np.repeat(dec.lengths == 2, dec.lengths)],
                                      minlength=dec.n_nodes))
    mass = dec.node_mass()
    assert hubs.size == 2 * (len(rings) - 1)
    assert np.abs(mass[hubs] - forms["hub_mass"]).max() <= 1e-15
    assert np.abs(np.delete(mass, hubs) - forms["w_ring"]).max() <= 1e-15
    # each ring is one cycle, entered at its smallest index
    assert {tuple(r) for r in rings} <= set(dec.weights)


def test_ring_chain_sampled_finds_the_same_cycles(chain):
    pipe, _ = chain
    sampled = cf.Pipeline(pipe.G, T=1_000_000, seed=0).dec
    assert list(sampled.weights) == list(pipe.dec.weights)


def test_ring_chain_modules_are_the_rings(chain):
    pipe, rings = chain
    cores = cf.find_cores(pipe.K, len(rings), 0.9)
    labels, _ = cf.hard_labels(cf.committors(pipe.K, cores.cores))
    assert sorted(cf.modules_from_labels(labels)) == sorted(rings)
    labels, _, _ = cf.maximize("qbar", I=pipe.K.intensity, pi=pipe.pi)
    assert sorted(cf.modules_from_labels(labels)) == sorted(rings)
    # the directed Q cuts the rings up, the over-partitioning Q-bar avoids
    labels, _, _ = cf.maximize("q", P=pipe.P, pi=pipe.pi)
    assert len(cf.modules_from_labels(labels)) > 2 * len(rings)
