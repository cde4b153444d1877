import hashlib
import json
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cycleflow as cf

from conftest import (CROWDED_HUB, DENSE, GRID_CUTS, dict_erasure, random_strong_graph, three_node_chain,
                      two_triangles)
from reference import reverse_cycle


# ------------------------------------------------------------- canonical form

def test_canonical_cycle():
    assert cf.canonical_cycle((2, 0, 1)) == (0, 1, 2)
    assert cf.canonical_cycle((5,)) == (5,)
    with pytest.raises(ValueError):
        cf.canonical_cycle((1, 2, 1))
    with pytest.raises(ValueError):
        cf.canonical_cycle(())


def test_decomposition_rejects_non_positive_and_nan_weights():
    for w in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="non-positive weight"):
            cf.CycleDecomposition(weights={(0, 1): w}, kind="iterative", n_nodes=2)


def test_decomposition_canonicalizes_keys():
    dec = cf.CycleDecomposition(weights={(1, 0): 0.5, (2,): 0.5}, kind="iterative", n_nodes=3)
    assert dec.weights == {(0, 1): 0.5, (2,): 0.5} and dec.cycles == [(0, 1), (2,)]
    assert dec.weight((1, 0)) == dec.weight((0, 1)) == 0.5
    # rotations of one cycle are one cycle: weights and counts add up
    dec = cf.CycleDecomposition(weights={(1, 2, 0): 0.5, (2, 0, 1): 0.25, (3, 1): 0.125},
                                counts={(1, 2, 0): 2, (2, 0, 1): 1, (3, 1): 4},
                                kind="sampled", T=8, n_nodes=4)
    assert dec.weights == {(0, 1, 2): 0.75, (1, 3): 0.125}
    assert dec.counts == {(0, 1, 2): 3, (1, 3): 4}
    assert dec.members.tolist() == [0, 1, 2, 1, 3] and dec.lengths.tolist() == [3, 2]


@pytest.mark.parametrize("key", [(0, 1, 0), (0, 3), (-1, 0), ()],
                         ids=["repeated_node", "index_past_n", "negative_index", "empty"])
def test_decomposition_refuses_malformed_keys(key):
    with pytest.raises(ValueError, match="not a simple cycle on nodes 0..2"):
        cf.CycleDecomposition(weights={(0, 1): 0.5, key: 0.5}, kind="iterative", n_nodes=3)


@pytest.mark.parametrize("counts", [{(1, 0): 3, (2,): 1}, {(0, 1): 3, (2,): 1}, {(1, 0): 3}, {}],
                         ids=["rotated_and_extra", "extra", "rotated", "missing"])
def test_decomposition_refuses_counts_not_keyed_as_weights(counts):
    # a count under a key the weights do not hold has no cycle to add to
    with pytest.raises(ValueError, match="counts must be keyed exactly as weights"):
        cf.CycleDecomposition(weights={(0, 1): 0.5}, counts=counts, kind="sampled",
                              n_nodes=3, T=10)


def test_reverse_cycle_examples():
    assert reverse_cycle((0, 1, 2)) == (0, 2, 1)
    assert reverse_cycle((0, 1)) == (0, 1)
    assert reverse_cycle((3,)) == (3,)


@settings(max_examples=100)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=8, unique=True))
def test_cycle_canonicalization_properties(seq):
    c = cf.canonical_cycle(seq)
    assert set(c) == set(seq)
    assert c[0] == min(seq)
    # rotation invariance
    for k in range(len(seq)):
        rotated = seq[k:] + seq[:k]
        assert cf.canonical_cycle(rotated) == c
    # reversal is an involution
    assert reverse_cycle(reverse_cycle(c)) == c


# ------------------------------------------------------------------- sampling

def test_sample_ring_exact_counts():
    n, k = 4, 7
    P = cf.transition_matrix(cf.ring(n))
    traj = cf.simulate(P, 0, k * n + 1, seed=0)
    dec = cf.sample_decomposition(traj)
    assert dec.cycles == [(0, 1, 2, 3)]
    assert dec.counts[(0, 1, 2, 3)] == k
    assert dec.weights[(0, 1, 2, 3)] == pytest.approx(k / (k * n + 1))


def test_sample_three_node_chain_weights():
    G = three_node_chain()
    P = cf.transition_matrix(G)
    traj = cf.simulate(P, 0, 200_000, seed=1)
    dec = cf.sample_decomposition(traj)
    assert set(dec.cycles) == {(0, 1), (1, 2)}
    assert dec.weights[(0, 1)] == pytest.approx(0.25, rel=0.03)
    assert dec.weights[(1, 2)] == pytest.approx(0.25, rel=0.03)


def test_sample_barbell_converges_to_closed_forms():
    n, eps, T = 4, 0.1, 200_000
    G = cf.barbell(n, eps)
    P = cf.transition_matrix(G)
    traj = cf.simulate(P, 0, T, seed=0)
    dec = cf.sample_decomposition(traj)
    w = 1.0 / (2 * (n + eps))
    assert len(dec.weights) == 3
    assert dec.weight(range(n)) == pytest.approx(w, rel=0.05)
    assert dec.weight((0, n)) == pytest.approx(eps * w, rel=0.05)


def test_sample_rejects_short_trajectory():
    traj = cf.Trajectory(states=np.array([0]))
    with pytest.raises(ValueError):
        cf.sample_decomposition(traj)


def test_sample_handles_self_loops():
    G = cf.DirectedGraph(["a", "b"], {("a", "a"): 1.0, ("a", "b"): 1.0, ("b", "a"): 1.0})
    P = cf.transition_matrix(G)
    traj = cf.simulate(P, 0, 50_000, seed=0)
    dec = cf.sample_decomposition(traj)
    assert (0,) in dec.weights  # the self-loop shows up as a 1-cycle
    assert (0, 1) in dec.weights


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(50, 400))
def test_sampling_step_budget_invariant(seed, T):
    # each trajectory step closes at most one cycle
    rng = np.random.default_rng(seed)
    G = random_strong_graph(rng)
    P = cf.transition_matrix(G)
    traj = cf.simulate(P, int(rng.integers(0, G.n)), T, seed=seed)
    dec = cf.sample_decomposition(traj)
    assert sum(k * len(c) for c, k in dec.counts.items()) <= T


def test_sample_start_independence():
    # same cycle set and close weights from different seeds and start nodes
    G = cf.barbell(4, 0.1)
    P = cf.transition_matrix(G)
    d1 = cf.sample_decomposition(cf.simulate(P, 0, 300_000, seed=0))
    d2 = cf.sample_decomposition(cf.simulate(P, 5, 300_000, seed=9))
    assert set(d1.cycles) == set(d2.cycles)
    for c in d1.cycles:
        assert d1.weights[c] == pytest.approx(d2.weights[c], rel=0.2)


def test_sample_rejects_out_of_range_states():
    for states in ([0, 5, 0, 5, 0], [0, -1, 0, -1, 0]):
        with pytest.raises(ValueError, match="outside 0..1"):
            cf.sample_decomposition(cf.Trajectory(states=np.array(states), nodes=("a", "b")))
    with pytest.raises(ValueError, match="outside"):
        cf.sample_decomposition(cf.Trajectory(states=np.array([1, -1, 1])))


SELF_LOOPS = cf.DirectedGraph(["a", "b", "c"], {
    ("a", "a"): 1.0, ("a", "b"): 1.0, ("b", "b"): 0.5, ("b", "c"): 1.0,
    ("c", "a"): 1.0, ("c", "b"): 1.0})


@pytest.mark.parametrize("G,start,T", [
    (cf.barbell(40, 0.1), 0, 200_000),
    (cf.wheel_switch(10, 0.7), 0, 200_000),
    (random_strong_graph(np.random.default_rng(3), 120), 0, 200_000),
    (SELF_LOOPS, 0, 50_000),
    (cf.barbell(40, 0.1), 57, 100_000),
    (GRID_CUTS, 0, 50_000),
    (CROWDED_HUB, 0, 200_000),
    (DENSE, 0, 100_000),
], ids=["barbell40", "wheel0.7", "random120", "self_loops", "barbell40_mid", "grid_cuts",
        "crowded_hub", "dense"])
def test_sample_matches_dict_erasure(G, start, T):
    traj = cf.simulate(cf.transition_matrix(G), start, T, seed=11)
    dec = cf.sample_decomposition(traj)
    # same counts, the rotations of a cycle counted together, in canonical order
    expected = dict_erasure(traj.states.tolist())
    assert dec.counts == expected and list(dec.counts) == dec.cycles
    # the Pipeline erases the same walk as it is drawn
    streamed = cf.Pipeline(G, T=T, seed=11, start=start).dec
    assert streamed.counts == expected and list(streamed.counts) == streamed.cycles
    assert (streamed.T, streamed.n_nodes, streamed.nodes) == (T, G.n, G.nodes)
    # a Pipeline of the stored walk has no graph side and erases the same states
    stored = cf.Pipeline(traj)
    assert (stored.G, stored.P, stored.pi) == (None, None, None)
    assert stored.dec.counts == expected and stored.dec.T == T


def test_sampling_memory_does_not_grow_with_T():
    G = cf.barbell(40, 0.1)
    cf.Pipeline(G, T=1_000, seed=0).dec  # first-call allocations, outside both peaks

    def peak(T):
        tracemalloc.start()
        try:
            cf.Pipeline(G, T=T, seed=0).dec
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a T-state trajectory would add at least 4 bytes per state (4 MB here)
    assert peak(1_000_000) <= peak(200_000) + 1_000_000


def dict_oracle(states, n_nodes, nodes=None):
    """The sampled decomposition built the dict way: dict_erasure's counts, given as dicts."""
    counts = dict_erasure(states)
    T = len(states)
    return cf.CycleDecomposition(weights={c: k / T for c, k in counts.items()}, counts=counts,
                                 kind="sampled", T=T, n_nodes=n_nodes, nodes=nodes)


def assert_matches_oracle(dec, ref):
    assert list(dec.counts.items()) == list(ref.counts.items())
    assert list(dec.weights.items()) == list(ref.weights.items())
    assert dec.cycles == ref.cycles
    for name in ("w", "k", "lengths", "members", "rows"):
        got, want = getattr(dec, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert (dec.T, dec.n_nodes, dec.nodes) == (ref.T, ref.n_nodes, ref.nodes)
    text = cf.decomposition_to_json(dec)
    assert text == cf.decomposition_to_json(ref) == json_dumps_decomposition(ref)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 40), st.integers(0, 10_000), st.integers(0, 10_000),
       st.integers(2, 3_000))
def test_array_decomposition_matches_dict_oracle(n, graph_seed, walk_seed, T):
    rng = np.random.default_rng(graph_seed)
    G = random_strong_graph(rng, n)
    loops = {(v, v): float(rng.uniform(0.2, 3.0)) for v in G.nodes if rng.random() < 0.3}
    G = cf.DirectedGraph(G.nodes, {**G.edges, **loops})
    start = int(rng.integers(0, n))
    traj = cf.simulate(cf.transition_matrix(G), start, T, seed=walk_seed)
    ref = dict_oracle(traj.states.tolist(), G.n, G.nodes)
    assert_matches_oracle(cf.Pipeline(G, T=T, seed=walk_seed, start=start).dec, ref)
    traj = cf.Trajectory(states=traj.states, nodes=G.nodes)
    assert_matches_oracle(cf.sample_decomposition(traj), ref)


# (walk chunk, excursion byte budget), None for the module's own value
split_sizes = pytest.mark.parametrize(
    "sizes", [(1, 0), (2, 1), (3, None), (1, None), (None, 0), (None, 1), (None, None)],
    ids=lambda p: f"chunk{p[0] or 'default'}-budget{'default' if p[1] is None else p[1]}")


@contextmanager
def patched(sizes):
    """Set the walk chunk (in both modules) and the excursion byte budget to `sizes`;
    hypothesis refuses function-scoped fixtures such as monkeypatch."""
    chunk, budget = sizes
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(cf.graph, "_WALK_CHUNK", chunk)
            mp.setattr(cf.cycles, "_WALK_CHUNK", chunk)
        if budget is not None:
            mp.setattr(cf.cycles, "_EXCURSION_BYTES", budget)
        yield


@split_sizes
@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=2, max_size=60))
@example([0, 0])  # a self-loop at the start
@example([0, 0, 0, 1, 0, 0, 2, 1, 0, 0, 1])  # returns back to back, an open tail
@example([3, 1, 3, 1, 3, 3, 0])
def test_excursion_split_matches_dict_oracle(sizes, states):
    # any sequence of states, with its start often repeated: excursions repeat, follow
    # each other directly, straddle chunks and are erased in every order of flushes
    with patched(sizes):
        for dtype in (np.int32, np.int64):
            dec = cf.sample_decomposition(cf.Trajectory(states=np.array(states, dtype=dtype)))
            assert_matches_oracle(dec, dict_oracle(states, max(states) + 1))


@split_sizes
@settings(max_examples=10, deadline=None)
@given(st.integers(3, 8), st.integers(0, 10_000), st.integers(2, 400))
def test_excursion_split_of_a_walk_matches_dict_oracle(sizes, n, seed, T):
    # a walk with a self-loop at its start, erased as drawn and as stored
    rng = np.random.default_rng(seed)
    G = random_strong_graph(rng, n)
    G = cf.DirectedGraph(G.nodes, {**G.edges, (G.nodes[0], G.nodes[0]): 2.0})
    P = cf.transition_matrix(G)
    with patched(sizes):
        traj = cf.simulate(P, 0, T, seed=seed)
        ref = dict_oracle(traj.states.tolist(), G.n)
        assert_matches_oracle(cf.sample_decomposition(cf.Walk(P, 0, T, seed=seed)), ref)
        assert_matches_oracle(cf.sample_decomposition(traj), ref)


@pytest.mark.parametrize("budget", [0, 1, None])
def test_two_byte_walk_matches_dict_oracle(budget):
    # past 256 nodes a state takes two bytes; the split must fall on whole states
    G = random_strong_graph(np.random.default_rng(4), 300)
    P = cf.transition_matrix(G)
    with patched((None, budget)):
        traj = cf.simulate(P, 7, 40_000, seed=2)
        ref = dict_oracle(traj.states.tolist(), G.n)
        assert_matches_oracle(cf.sample_decomposition(cf.Walk(P, 7, 40_000, seed=2)), ref)
        assert_matches_oracle(cf.sample_decomposition(traj), ref)
        # a state whose low byte is the start's is no return to it
        states = [7, 263, 7, 263, 1, 7, 7, 263, 1, 263]
        dec = cf.sample_decomposition(cf.Trajectory(states=np.array(states), nodes=G.nodes))
        assert_matches_oracle(dec, dict_oracle(states, G.n, G.nodes))


@pytest.mark.parametrize("budget", [4096, None], ids=["budget4096", "budgetdefault"])
def test_sample_memory_of_an_excursion_that_never_ends(budget):
    # the start is left for good: at any byte budget its one excursion is erased as it
    # streams, not held, a byte a state
    P = np.array([[0.0, 1.0], [0.0, 1.0]])
    cf.sample_decomposition(cf.Walk(P, 0, 10, seed=0))  # first-call allocations
    with patched((1024, budget)):
        tracemalloc.start()
        try:
            dec = cf.sample_decomposition(cf.Walk(P, 0, 100_000, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert dec.counts == {(1,): 99_998}
    assert peak < 60_000


def test_sample_memory_of_excursions_that_never_repeat():
    # 300 distinct excursions (0, 1, (2, 1) i times, 0), 90 kB in all: past the byte
    # budget the counted ones are erased and dropped, not held to the end
    states = [0]
    for i in range(1, 301):
        states += [1] + [2, 1] * i + [0]
    traj = cf.Trajectory(states=np.array(states, dtype=np.int32))
    cf.sample_decomposition(cf.Trajectory(states=np.array([0, 1, 0])))  # first-call allocations
    with patched((1024, 4096)):
        tracemalloc.start()
        try:
            dec = cf.sample_decomposition(traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert dec.counts == {(0, 1): 300, (1, 2): 45_150}
    assert peak < 40_000


@pytest.mark.parametrize("states,n_nodes", [
    ([0, 1], 2),
    ([0, 0, 0, 1, 1, 0, 1, 1], 2),
    # past 65,535 a node takes more than two key bytes; (1, 5) and (1, 65_541)
    # would share two-byte keys
    ([1, 65_536, 1, 256, 1, 69_999, 1, 5, 1, 65_541, 1, 300, 65_537, 1], 70_000),
], ids=["no_closure", "self_loops", "wide_keys"])
def test_sample_edge_cases_match_dict_oracle(states, n_nodes):
    dec = cf.sample_decomposition(cf.Trajectory(states=np.array(states)))
    assert_matches_oracle(dec, dict_oracle(states, n_nodes))


def test_sample_memory_stays_ragged():
    # one 4,000-node cycle, then 10,000 distinct 3-cycles (0, a, b): padding every
    # cycle to the longest would take 10k x 4k nodes, 160 MB at 4 bytes a node
    loop = list(range(4_000)) + [0]
    triangles = [v for a in range(1, 101) for b in range(101, 201) for v in (a, b, 0)]
    traj = cf.Trajectory(states=np.array(loop + triangles))
    tracemalloc.start()
    try:
        dec = cf.sample_decomposition(traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dec.lengths.size == 10_001 and dec.lengths.max() == 4_000
    assert peak < 16_000_000


def test_sample_walk_checks_index_space():
    # a walk's index space is its P's, even where the walk visits fewer nodes
    walk = cf.Walk(cf.transition_matrix(cf.ring(3)), 0, 10, seed=0)
    with pytest.raises(ValueError, match="at least 2 states"):
        cf.sample_decomposition(cf.Walk(walk.P, 0, 1, seed=0))
    assert cf.sample_decomposition(walk).counts == {(0, 1, 2): 3}
    assert cf.sample_decomposition(cf.Walk(walk.P, 0, 2, seed=0)).n_nodes == 3


def test_simulated_walk_keeps_its_index_space():
    # eight states of barbell(5) never reach its top-index node: the trajectory
    # still spans P's nodes
    P = cf.transition_matrix(cf.barbell(5, 0.1))
    traj = cf.simulate(P, 0, 8, seed=0)
    assert traj.states.max() < P.shape[0] - 1
    assert traj.nodes == tuple(str(i) for i in range(P.shape[0]))
    dec = cf.sample_decomposition(traj)
    walked = cf.sample_decomposition(cf.Walk(P, 0, 8, seed=0))
    assert dec.n_nodes == walked.n_nodes == P.shape[0]
    assert dec.counts == walked.counts and dec.T == walked.T
    assert cf.decomposition_to_json(dec) == cf.decomposition_to_json(walked)


def test_node_ids_must_match_the_index_space():
    def refused(build):
        with pytest.raises(ValueError, match="2 node ids for 3 nodes"):
            build()

    refused(lambda: cf.CycleDecomposition({(0, 1): 0.5}, kind="iterative", n_nodes=3,
                                          nodes=("a", "b")))
    P = cf.transition_matrix(cf.ring(3))
    refused(lambda: cf.sample_decomposition(cf.Walk(P, 0, 10, seed=0, nodes=("a", "b"))))
    refused(lambda: cf.iterative_decomposition(cf.edge_flow(P, cf.stationary_distribution(P)),
                                               nodes=("a", "b")))
    part = cf.sample_decomposition(cf.Walk(P, 0, 10, seed=0))
    part.nodes = ("a", "b")  # set after construction: the merge checks its own result
    refused(lambda: cf.merge_decompositions([part]))


def test_merge_decompositions():
    P = cf.transition_matrix(cf.ring(3))
    parts = [cf.sample_decomposition(cf.simulate(P, 0, 301, seed=s))
             for s in (0, 1, 2)]
    merged = cf.merge_decompositions(parts)
    assert merged.T == sum(p.T for p in parts)
    assert merged.counts[(0, 1, 2)] == sum(p.counts[(0, 1, 2)] for p in parts)
    # associative and order independent
    other = cf.merge_decompositions([parts[2], cf.merge_decompositions(parts[:2])])
    assert other.weights == merged.weights

    # counts add, in canonical order; any order or nesting of the parts gives the same arrays
    G = random_strong_graph(np.random.default_rng(5), 12)
    P = cf.transition_matrix(G)
    parts = [cf.sample_decomposition(cf.simulate(P, s, 400, seed=s))
             for s in (0, 1, 2)]
    assert all(part.n_nodes == G.n for part in parts)  # each walk visits every node
    expected = {}
    for part in parts:
        for c, k in part.counts.items():
            expected[c] = expected.get(c, 0) + k
    merged = cf.merge_decompositions(parts)
    assert merged.counts == expected and list(merged.counts) == merged.cycles
    assert merged.cycles == sorted(expected)
    assert merged.w.tolist() == [expected[c] / 1200 for c in merged.cycles]
    for regrouped in ([parts[2], parts[0], parts[1]],
                      [parts[1], cf.merge_decompositions([parts[2], parts[0]])],
                      [cf.merge_decompositions([parts[0], parts[1]]), parts[2]],
                      [cf.merge_decompositions([cf.merge_decompositions([parts[2]]),
                                                parts[1]]), parts[0]]):
        other = cf.merge_decompositions(regrouped)
        for name in ("members", "lengths", "k", "w"):
            got, want = getattr(other, name), getattr(merged, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    it = cf.iterative_decomposition(cf.edge_flow(P, cf.stationary_distribution(P)))
    with pytest.raises(ValueError):
        cf.merge_decompositions([parts[0], it])
    with pytest.raises(ValueError, match="nothing to merge"):
        cf.merge_decompositions([])
    wider = cf.sample_decomposition(cf.Trajectory(states=np.array([0, G.n, 0])))
    named = cf.sample_decomposition(cf.Trajectory(states=np.array([0, 1, 0]), nodes=G.nodes))
    for other in (wider, named):
        with pytest.raises(ValueError, match="different node sets"):
            cf.merge_decompositions([parts[0], other])


# ------------------------------------------------------------ iterative peel

def dense_peel(F, tol=None):
    """Reference peel: rescans the dense residual for every cycle."""
    F = np.array(F, dtype=float, copy=True)
    n = F.shape[0]
    if tol is None:
        cons = float(np.max(np.abs(F.sum(axis=0) - F.sum(axis=1))))
        tol = max(1e-12 * float(F.max()), 8.0 * cons)
    weights = {}
    for _ in range(2 * int(np.count_nonzero(F)) + n + 1):
        live = np.flatnonzero(F.max(axis=1) > tol)
        if live.size == 0:
            break
        x = int(live[0])
        path = [x]
        seen = {x: 0}
        cyc_nodes = None
        while True:
            y = int(np.argmax(F[x]))
            if F[x, y] <= 0.0:
                if len(path) < 2 or F[path[-2], x] > tol:
                    raise RuntimeError("residual flow lost conservation during peeling")
                F[path[-2], x] = 0.0
                break
            if y in seen:
                cyc_nodes = path[seen[y]:]
                break
            seen[y] = len(path)
            path.append(y)
            x = y
        if cyc_nodes is None:
            continue
        succ = cyc_nodes[1:] + cyc_nodes[:1]
        w = float(F[cyc_nodes, succ].min())
        F[cyc_nodes, succ] -= w
        if w > tol:
            cyc = cf.canonical_cycle(cyc_nodes)
            weights[cyc] = weights.get(cyc, 0.0) + w
    else:
        raise RuntimeError("cycle peeling did not terminate")
    return weights


def assert_peel_matches_dense(F, tol=None):
    F0 = F.copy()
    dec = cf.iterative_decomposition(F, tol=tol)
    np.testing.assert_array_equal(F, F0)  # the peel works on its own residual
    ref = dense_peel(F, tol)
    assert dec.weights == ref
    assert list(dec.weights) == dec.cycles
    return dec


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 60))
def test_iterative_matches_dense_peel_random(seed, n):
    G = random_strong_graph(np.random.default_rng(seed), n)
    P = cf.transition_matrix(G)
    assert_peel_matches_dense(cf.edge_flow(P, cf.stationary_distribution(P)))


@pytest.mark.parametrize("G", [cf.barbell(40, 0.1), cf.wheel_switch(10, 0.3),
                               cf.wheel_switch(10, 0.7)],
                         ids=["barbell40", "wheel0.3", "wheel0.7"])
def test_iterative_matches_dense_peel_benchmarks(G):
    P = cf.transition_matrix(G)
    assert_peel_matches_dense(cf.edge_flow(P, cf.stationary_distribution(P)))


@pytest.mark.parametrize("seed", [1, 12])
def test_iterative_matches_dense_peel_at_benchmark_scale(seed):
    # the random-peeled benchmark input: ~1.5k edges, ~1k cycles of ~25 nodes
    G = random_strong_graph(np.random.default_rng(seed), 500, extra=1000)
    P = cf.transition_matrix(G)
    dec = assert_peel_matches_dense(cf.edge_flow(P, cf.stationary_distribution(P)))
    assert len(dec.weights) > 500


def test_iterative_ties_go_to_smallest_node():
    # node 0 sends equal flow around three 2-cycles, and the triangles of
    # two_triangles tie everywhere: the lowest-index successor wins
    star = cf.DirectedGraph(["a", "b", "c", "d"],
                            {(x, y): 1.0 for x, y in ("ab", "ba", "ac", "ca", "ad", "da")})
    P = cf.transition_matrix(star)
    dec = assert_peel_matches_dense(cf.edge_flow(P, cf.stationary_distribution(P)))
    assert dec.weights == pytest.approx(dict.fromkeys([(0, 1), (0, 2), (0, 3)], 1 / 6))
    assert list(dec.weights) == dec.cycles
    P = cf.transition_matrix(two_triangles())
    assert_peel_matches_dense(cf.edge_flow(P, cf.stationary_distribution(P)))


def test_iterative_drops_dust_and_reports_lost_conservation():
    F = np.zeros((5, 5))
    F[3, 4] = F[4, 3] = 1.0
    # 0 -> 1 is above tol; at 1 the walk first takes the dust edge into the
    # dead end 2, drops it, then closes (0, 1) below tol
    F[0, 1], F[1, 2], F[1, 0] = 1.5e-13, 1.0e-13, 0.9e-13
    dec = assert_peel_matches_dense(F, tol=1e-13)
    assert dec.weights == {(3, 4): 1.0}
    # a dead end behind an edge above tol is not dust
    F[1, 2] = 1e-9
    for peel in (cf.iterative_decomposition, dense_peel):
        with pytest.raises(RuntimeError, match="lost conservation"):
            peel(F, tol=1e-13)


def test_iterative_barbell_exact():
    for n, eps in ((4, 0.1), (40, 0.1)):
        G = cf.barbell(n, eps)
        P = cf.transition_matrix(G)
        pi = cf.stationary_distribution(P)
        F = cf.edge_flow(P, pi)
        dec = cf.iterative_decomposition(F, nodes=G.nodes)
        w = 1.0 / (2 * (n + eps))
        assert sorted(dec.weights.values()) == pytest.approx(
            sorted([w, w, eps * w]), abs=1e-14)
        assert cf.verify_flow_decomposition(dec, F) <= 1e-12 * F.max()


def test_iterative_ring_and_chain(chain3):
    ring = cf.ring(6)
    P = cf.transition_matrix(ring)
    F = cf.edge_flow(P, cf.stationary_distribution(P))
    dec = cf.iterative_decomposition(F)
    assert dec.cycles == [tuple(range(6))]
    assert dec.weights[tuple(range(6))] == pytest.approx(1 / 6, abs=1e-14)

    dec3 = chain3.dec
    assert set(dec3.cycles) == {(0, 1), (1, 2)}
    assert dec3.weights[(0, 1)] == pytest.approx(0.25, abs=1e-14)


def test_iterative_rejects_bad_flow():
    F = np.array([[0.0, 1.0], [0.1, 0.0]])  # not conservative
    with pytest.raises(ValueError, match="conservative"):
        cf.iterative_decomposition(F)
    with pytest.raises(ValueError):
        cf.iterative_decomposition(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        cf.iterative_decomposition(-np.eye(2))
    # an infinite flow would peel to nothing, a NaN one would never finish
    with pytest.raises(ValueError, match="finite"):
        cf.iterative_decomposition(np.full((2, 2), np.inf))
    F = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, np.nan]])
    with pytest.raises(ValueError, match="finite"):
        cf.iterative_decomposition(F)
    with pytest.raises(ValueError, match="square"):
        cf.iterative_decomposition(np.ones((2, 3)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_iterative_reproduces_flow_property(seed):
    G = random_strong_graph(np.random.default_rng(seed))
    P = cf.transition_matrix(G)
    pi = cf.stationary_distribution(P)
    F = cf.edge_flow(P, pi)
    dec = cf.iterative_decomposition(F, nodes=G.nodes)
    # discarded sub-tolerance dust can stack a few times on one edge
    assert cf.verify_flow_decomposition(dec, F) <= max(5 * dec.tol, 1e-10 * F.max())
    # node mass identity: cycle weights through a node sum to its mass
    assert np.abs(dec.node_mass() - pi).max() <= 1e-10


# ------------------------------------------------------------------- verify

def test_verify_perturbation_is_reported(chain3):
    weights = dict(chain3.dec.weights)
    delta = 1e-3
    weights[(0, 1)] += delta
    bent = cf.CycleDecomposition(weights=weights, kind="iterative", n_nodes=3)
    assert cf.verify_flow_decomposition(bent, chain3.F) == pytest.approx(delta, abs=1e-15)


def test_reverse_ring_not_in_decomposition(barbell4):
    ring_l = tuple(range(4))
    assert reverse_cycle(ring_l) not in barbell4.dec.weights
    assert barbell4.dec.weight(reverse_cycle(ring_l)) == 0.0


# -------------------------------------------------------------------- export

def test_decomposition_json_sorted(barbell4):
    text = cf.decomposition_to_json(barbell4.dec)
    obj = json.loads(text)
    weights = [c["weight"] for c in obj["cycles"]]
    assert weights == sorted(weights, reverse=True)
    assert obj["kind"] == "iterative"
    assert obj["cycles"][0]["cycle"][0].startswith(("l", "r"))
    # deterministic
    assert text == cf.decomposition_to_json(barbell4.dec)


def json_dumps_decomposition(dec, extra=None):
    """Reference writer: the whole object through json.dumps(..., sort_keys=True, indent=2)."""
    order = sorted(dec.weights, key=lambda c: (-dec.weights[c], c))
    items = []
    for c in order:
        entry = {"cycle": [dec.nodes[v] for v in c], "weight": float(dec.weights[c])}
        if dec.counts is not None:
            entry["count"] = dec.counts.get(c, 0)
        items.append(entry)
    obj = {"kind": dec.kind, "n_nodes": dec.n_nodes, "cycles": items}
    if dec.T is not None:
        obj["T"] = dec.T
    if extra:
        obj.update(extra)
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ids that json must escape, or writes as \u escapes
ODD_IDS = cf.DirectedGraph(['a"q', "b\\s", "ü", "节点"], {
    ('a"q', "b\\s"): 1.0, ("b\\s", "ü"): 2.0, ("ü", "节点"): 1.5, ("节点", 'a"q'): 1.0,
    ("ü", 'a"q'): 0.5, ("b\\s", 'a"q'): 0.7, ("节点", "节点"): 0.3})
NESTED_EXTRA = {
    "config": {"T": 2000, "start": None, "tol": 1e-12,
               "nested": {"b": [1.5, None, 3], "a": {}, "c": "ü"}},
    "flow_residual": 2.7755575615628914e-17, "input_sha256": "0" * 64, "max_flow": None}


@pytest.mark.parametrize("make_dec,extra", [
    (lambda: cf.Pipeline(ODD_IDS, T=2000, seed=1).dec, None),
    (lambda: cf.Pipeline(ODD_IDS, T=2000, seed=1).dec, NESTED_EXTRA),
    (lambda: cf.Pipeline(ODD_IDS).dec, NESTED_EXTRA),
    (lambda: cf.Pipeline(cf.barbell(4, 0.1)).dec, None),
    (lambda: cf.sample_decomposition(cf.Trajectory(states=np.array([0, 1]), nodes=("a", "b"))),
     NESTED_EXTRA),
    (lambda: cf.sample_decomposition(cf.Trajectory(
        states=cf.simulate(cf.transition_matrix(ODD_IDS), 0, 500, seed=2).states)), {}),
    (lambda: cf.CycleDecomposition(weights={(0, 1): float("inf"), (2,): 0.5},
                                   kind="iterative", n_nodes=3),
     {"max_flow": float("-inf"), "cycles_seen": [float("nan")]}),
    # equal weights, inserted out of canonical order
    (lambda: cf.CycleDecomposition(weights={(1, 2): 0.25, (0, 1): 0.25, (0, 2): 0.5, (2,): 0.25},
                                   kind="iterative", n_nodes=3), None),
    # rotations of one cycle, given as two keys
    (lambda: cf.CycleDecomposition(weights={(1, 2, 0): 0.5, (2, 0, 1): 0.25},
                                   kind="iterative", n_nodes=3), None),
    # a nested "cycles" key, and a string holding the top-level line the writer splices at
    (lambda: cf.Pipeline(cf.barbell(4, 0.1)).dec,
     {"config": {"cycles": None}, "note": '\n  "cycles": null'}),
], ids=["sampled", "sampled_extra", "iterative_extra", "iterative", "empty", "nodes_none",
        "non_finite", "ties", "rotated_keys", "splice_lookalikes"])
def test_decomposition_json_matches_json_dumps(make_dec, extra, request):
    dec = make_dec()
    text = cf.decomposition_to_json(dec, extra)
    assert text == json_dumps_decomposition(dec, extra)
    if request.node.callspec.id == "rotated_keys":
        assert json.loads(text)["cycles"] == [{"cycle": ["0", "1", "2"], "weight": 0.75}]
    assert "inf," not in text and "nan" not in text


RANDOM60 = random_strong_graph(np.random.default_rng(12), 60, extra=120)


@pytest.mark.parametrize("make_dec,n_cycles,digest", [
    (lambda: cf.Pipeline(cf.barbell(6, 0.1), T=20_000, seed=12).dec, 3,
     "14b48eb9bac9d1e945e4a3e22ddcfad2f8c36854e78cb3eddd0860028a4a2b49"),
    (lambda: cf.Pipeline(RANDOM60, T=20_000, seed=12).dec, 1002,
     "f3d0a0b475a674248ef403e333d371ed7469552f1ae0a470e15105a33c75c11b"),
    (lambda: cf.sample_decomposition(cf.Trajectory(
        states=cf.simulate(cf.transition_matrix(RANDOM60), 0, 20_000, seed=13).states,
        nodes=RANDOM60.nodes)), 990,
     "2da681802834d0a707f651da9ea7d6452c3db47b852e7731d0dff8c304face50"),
], ids=["barbell6", "random60", "trajectory"])
def test_sampled_json_is_pinned(make_dec, n_cycles, digest):
    # Sampled decompositions depend only on PCG64, division and the float kernel, not
    # on LAPACK or BLAS, so their text is the same on every host: a change to how the
    # cycle set is built or ordered must leave these digests alone.
    dec = make_dec()
    assert dec.lengths.size == n_cycles
    assert hashlib.sha256(cf.decomposition_to_json(dec).encode()).hexdigest() == digest
