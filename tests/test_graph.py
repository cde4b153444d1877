import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycleflow as cf

from conftest import random_strong_graph, three_node_chain


# ---------------------------------------------------------------- validation

def test_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        cf.DirectedGraph(["a"], {})
    with pytest.raises(ValueError):
        cf.DirectedGraph(["a", "a"], {("a", "a"): 1.0})
    with pytest.raises(ValueError):
        cf.DirectedGraph(["a", "b"], {("a", "b"): 0.0})
    with pytest.raises(ValueError):
        cf.DirectedGraph(["a", "b"], {("a", "b"): -1.0})
    with pytest.raises(ValueError):
        cf.DirectedGraph(["a", "b"], {("a", "c"): 1.0})
    with pytest.raises(ValueError):
        cf.DirectedGraph(["a", "b"], {})


def test_self_loops_allowed():
    G = cf.DirectedGraph(["a", "b"], {("a", "b"): 1.0, ("b", "a"): 1.0, ("a", "a"): 0.5})
    assert G.edges[("a", "a")] == 0.5


def test_from_edge_list_aggregates_duplicates():
    G = cf.DirectedGraph.from_edge_list([("a", "b", 1.0), ("a", "b", 2.0), ("b", "a", 1.0)])
    assert G.edges[("a", "b")] == 3.0


# ------------------------------------------------------- strong connectivity

def test_strongly_connected_examples():
    ring3 = cf.ring(3)
    assert cf.check_strongly_connected(ring3)
    one_way = cf.DirectedGraph(["a", "b"], {("a", "b"): 1.0})
    assert not cf.check_strongly_connected(one_way)
    assert cf.check_strongly_connected(cf.barbell(4, 0.1))


def test_transition_matrix_rejects_sink_and_disconnected():
    one_way = cf.DirectedGraph(["a", "b"], {("a", "b"): 1.0})
    with pytest.raises(ValueError, match="sink"):
        cf.transition_matrix(one_way)
    # every node has out-degree but the graph is still not strongly connected
    G = cf.DirectedGraph(
        ["a", "b", "c", "d"],
        {("a", "b"): 1.0, ("b", "a"): 1.0, ("c", "d"): 1.0, ("d", "c"): 1.0,
         ("a", "c"): 1.0})
    with pytest.raises(ValueError, match="strongly connected"):
        cf.transition_matrix(G)


# ----------------------------------------------------------- walk quantities

def test_transition_matrix_examples():
    n, eps = 4, 0.1
    G = cf.barbell(n, eps)
    P = cf.transition_matrix(G)
    l0, r0, l1 = G.index("l0"), G.index("r0"), G.index("l1")
    assert P[l0, r0] == pytest.approx(eps / (1 + eps), abs=1e-15)
    assert P[l0, l1] == pytest.approx(1 / (1 + eps), abs=1e-15)

    two = cf.DirectedGraph(["a", "b"], {("a", "b"): 1.0, ("b", "a"): 1.0})
    P2 = cf.transition_matrix(two)
    assert P2[0, 1] == 1.0 and P2[1, 0] == 1.0

    chain = three_node_chain()
    P3 = cf.transition_matrix(chain)
    b = chain.index("b")
    assert P3[b, chain.index("a")] == 0.5
    assert P3[b, chain.index("c")] == 0.5


def test_stationary_closed_forms():
    for n, eps in ((4, 0.1), (40, 0.1), (8, 0.01)):
        G = cf.barbell(n, eps)
        pi = cf.stationary_distribution(cf.transition_matrix(G))
        w = 1.0 / (2 * (n + eps))
        assert pi[G.index("l1")] == pytest.approx(w, abs=1e-13)
        assert pi[G.index("l0")] == pytest.approx((1 + eps) * w, abs=1e-13)

    ring = cf.ring(7)
    pi = cf.stationary_distribution(cf.transition_matrix(ring))
    assert np.allclose(pi, 1 / 7, atol=1e-12)

    chain = three_node_chain()
    pi = cf.stationary_distribution(cf.transition_matrix(chain))
    assert np.allclose(pi, [0.25, 0.5, 0.25], atol=1e-12)


def test_stationary_slow_chain_above_2000_states():
    # 2002 states on two long rings that mix very slowly: the direct solve
    # is exact to rounding at this size too
    n, eps = 1001, 0.1
    G = cf.barbell(n, eps)
    P = cf.transition_matrix(G)
    pi = cf.stationary_distribution(P)
    assert np.abs(pi @ P - pi).sum() <= 1e-12
    w = 1.0 / (2 * (n + eps))
    assert pi[G.index("l1")] == pytest.approx(w, rel=1e-12)
    assert pi[G.index("r7")] == pytest.approx(w, rel=1e-12)
    assert pi[G.index("l0")] == pytest.approx((1 + eps) * w, rel=1e-12)


def test_stationary_rejects_nan():
    # NaN compares false both ways, so each check must be one that NaN fails
    with pytest.raises(RuntimeError, match="NaN vector"):
        cf.stationary_distribution(np.array([[0.0, 1.0], [np.nan, 0.0]]))
    # the solve replaces the last column's equation, so only the residual sees this NaN
    with pytest.raises(RuntimeError, match="residual nan"):
        cf.stationary_distribution(np.array([[0.0, np.nan], [1.0, 0.0]]))


def test_stationary_solve_to_rounding_on_dense_random_graph():
    # 500 nodes, 1449 edges: a solve that stops at an l1 step of 1e-12 leaves
    # ~6e-13 here, and the peel tolerance (8x the conservation error) inherits it
    G = random_strong_graph(np.random.default_rng(3), n=500)
    P = cf.transition_matrix(G)
    pi = cf.stationary_distribution(P)
    assert np.abs(pi @ P - pi).sum() <= 1e-13
    F = cf.edge_flow(P, pi)
    assert cf.verify_flow_decomposition(cf.Pipeline(G).dec, F) <= 1e-13


def test_edge_flow_examples(chain3):
    a, b, c = (chain3.G.index(v) for v in "abc")
    assert chain3.F[a, b] == pytest.approx(0.25, abs=1e-14)
    assert chain3.F[b, a] == pytest.approx(0.25, abs=1e-14)
    assert chain3.F[b, c] == pytest.approx(0.25, abs=1e-14)
    assert chain3.F[c, b] == pytest.approx(0.25, abs=1e-14)

    ring = cf.ring(5)
    P = cf.transition_matrix(ring)
    pi = cf.stationary_distribution(P)
    F = cf.edge_flow(P, pi)
    assert np.allclose(F[F > 0], 0.2, atol=1e-13)

    n, eps = 4, 0.1
    G = cf.barbell(n, eps)
    P = cf.transition_matrix(G)
    pi = cf.stationary_distribution(P)
    F = cf.edge_flow(P, pi)
    assert F[G.index("l0"), G.index("r0")] == pytest.approx(
        eps / (2 * (n + eps)), abs=1e-14)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_flow_conservation_property(seed):
    G = random_strong_graph(np.random.default_rng(seed))
    P = cf.transition_matrix(G)
    pi = cf.stationary_distribution(P)
    F = cf.edge_flow(P, pi)
    assert np.abs(P.sum(axis=1) - 1).max() <= 1e-12
    assert cf.flow_conservation_residual(F) <= 1e-10


# ------------------------------------------------------------------ simulate

def test_simulate_deterministic_ring():
    P = cf.transition_matrix(cf.ring(3))
    traj = cf.simulate(P, 0, 4, seed=0)
    assert traj.states.tolist() == [0, 1, 2, 0]

    P2 = cf.transition_matrix(cf.DirectedGraph(["a", "b"], {("a", "b"): 1, ("b", "a"): 1}))
    assert cf.simulate(P2, 0, 3, seed=5).states.tolist() == [0, 1, 0]


def test_simulate_reproducible_and_valid():
    G = cf.barbell(4, 0.1)
    P = cf.transition_matrix(G)
    t1 = cf.simulate(P, 0, 5000, seed=42)
    t2 = cf.simulate(P, 0, 5000, seed=42)
    assert np.array_equal(t1.states, t2.states)
    t3 = cf.simulate(P, 0, 5000, seed=43)
    assert not np.array_equal(t1.states, t3.states)
    # every consecutive pair is an edge
    s = t1.states
    assert np.all(P[s[:-1], s[1:]] > 0)


def test_simulate_occupation_matches_stationary():
    G = cf.barbell(4, 0.1)
    P = cf.transition_matrix(G)
    pi = cf.stationary_distribution(P)
    traj = cf.simulate(P, 0, 10**6, seed=0)
    freq = np.bincount(traj.states, minlength=G.n) / traj.length
    assert np.abs(freq - pi).max() <= 0.01


def reference_walk(P, start, length, seed):
    """Reference walk: all uniforms in one draw, then one inverse-CDF step each."""
    rng = np.random.default_rng(seed)
    cum = np.cumsum(P, axis=1)
    cum /= cum[:, -1:]
    out = [start]
    for u in rng.random(length - 1):
        # a zero-probability column repeats its left neighbour's value, so it is never picked
        out.append(int(np.searchsorted(cum[out[-1]], u, side="right")))
    return np.array(out)


SELF_LOOPS = cf.DirectedGraph(["a", "b", "c"], {
    ("a", "a"): 1.0, ("a", "b"): 1.0, ("b", "c"): 1.0, ("c", "a"): 1.0, ("c", "c"): 0.5})


def test_simulate_independent_of_chunk_size():
    # several uniform chunks plus a ragged tail: x must carry across boundaries;
    # rows with a single successor skip the search but still consume their uniform
    length = 3 * 65536 + 5
    for G, single in ((cf.wheel_switch(10, 0.7), 16), (cf.barbell(40, 0.1), 78),
                      (SELF_LOOPS, 1)):
        P = cf.transition_matrix(G)
        assert np.sum(np.count_nonzero(P, axis=1) == 1) == single
        traj = cf.simulate(P, 1, length, seed=3)
        assert traj.length == length
        assert np.array_equal(traj.states, reference_walk(P, 1, length, seed=3))


def test_simulate_rejects_bad_length(monkeypatch):
    # and a start out of range, and a row with no successors, in simulate and Walk alike
    P = cf.transition_matrix(cf.ring(3))
    dead = P.copy()
    dead[1] = 0.0

    def no_draws(seed):
        raise AssertionError("a generator was made before the input was checked")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    for args, message in (((P, 0, 0), "trajectory length must be >= 1"),
                          ((P, 3, 5), "start index 3 out of range"),
                          ((P, -1, 5), "start index -1 out of range"),
                          ((dead, 0, 5), "state 1 has no successors")):
        with pytest.raises(ValueError, match=message):
            cf.simulate(*args, seed=0)
        with pytest.raises(ValueError, match=message):
            cf.Walk(*args, seed=0)


def test_walk_chunks():
    P = cf.transition_matrix(cf.barbell(40, 0.1))
    walk = cf.Walk(P, 5, 2 * 65536 + 3, seed=9)
    chunks = list(walk.chunks())
    # the states after the start, in lists of up to 65,536
    assert [len(c) for c in chunks] == [65536, 65536, 2]
    # each pass over a walk draws it afresh from its seed
    assert list(walk.chunks()) == chunks
    assert list(cf.Walk(P, 5, 1, seed=9).chunks()) == []


# ----------------------------------------------------------------------- i/o

def test_edge_list_roundtrip(tmp_path):
    G = cf.barbell(3, 0.5)
    path = tmp_path / "g.tsv"
    cf.write_edge_list(G, path)
    H = cf.read_edge_list(path)
    assert H.nodes == tuple(sorted(G.nodes))
    assert H.edges == G.edges


def test_edge_list_comments_and_aggregation(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("# header\na\tb\t1.0\n\nb\ta\t2.0\na\tb\t0.5\n")
    G = cf.read_edge_list(path)
    assert G.edges[("a", "b")] == 1.5


def test_edge_list_malformed(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a b 1.0\n")
    with pytest.raises(ValueError):
        cf.read_edge_list(path)
    path.write_text("a\tb\tnotanumber\n")
    with pytest.raises(ValueError):
        cf.read_edge_list(path)


UNREADABLE_IDS = ["", "#a", " a", "a ", "a\tb", "a\rb", "a\nb", "a\u2028"]


@pytest.mark.parametrize("bad", UNREADABLE_IDS)
def test_write_edge_list_rejects_ids_that_do_not_read_back(tmp_path, bad):
    # written, `#a` would start a comment line and ` a` would be stripped to `a`
    G = cf.DirectedGraph([bad, "b"], {(bad, "b"): 1.0, ("b", bad): 1.0})
    path = tmp_path / "g.tsv"
    with pytest.raises(ValueError, match="would not read back"):
        cf.write_edge_list(G, path)
    assert not path.exists()


@pytest.mark.parametrize("bad", UNREADABLE_IDS)
def test_write_trajectory_rejects_ids_that_do_not_read_back(tmp_path, bad):
    traj = cf.Trajectory(states=np.array([1, 0, 1]), nodes=("b", bad))
    path = tmp_path / "traj.txt"
    with pytest.raises(ValueError, match="would not read back"):
        cf.write_trajectory(traj, path)
    assert not path.exists()


def test_writers_keep_inner_spaces_and_hashes(tmp_path):
    ids = ["a b", "c#", "节点", 'q"\\']
    G = cf.DirectedGraph(ids, {(ids[k], ids[(k + 1) % 4]): 1.0 + k for k in range(4)})
    cf.write_edge_list(G, tmp_path / "g.tsv")
    H = cf.read_edge_list(tmp_path / "g.tsv")
    assert H.nodes == tuple(sorted(ids)) and H.edges == G.edges
    traj = cf.Trajectory(states=np.array([0, 1, 2, 3, 0]), nodes=tuple(ids))
    cf.write_trajectory(traj, tmp_path / "t.txt")
    assert cf.read_trajectory(tmp_path / "t.txt", nodes=tuple(ids)).as_ids() == traj.as_ids()


def test_trajectory_roundtrip(tmp_path):
    P = cf.transition_matrix(cf.ring(4))
    traj = cf.simulate(P, 0, 9, seed=0)
    traj = cf.Trajectory(states=traj.states, nodes=cf.ring(4).nodes)
    path = tmp_path / "traj.txt"
    cf.write_trajectory(traj, path)
    back = cf.read_trajectory(path)
    assert back.as_ids() == traj.as_ids()
