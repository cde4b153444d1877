import re
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycleflow as cf

from conftest import CROWDED_HUB, DENSE, GRID_CUTS, random_strong_graph, three_node_chain
from cycleflow.graph import _bin_grid, _bins


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


def test_graph_repr():
    assert repr(cf.barbell(4, 0.1)) == "DirectedGraph(n=8, edges=10)"  # two directed 4-rings, a 2-way bridge


def test_self_loops_allowed():
    G = cf.DirectedGraph(["a", "b"], {("a", "b"): 1.0, ("b", "a"): 1.0, ("a", "a"): 0.5})
    assert G.edges[("a", "a")] == 0.5


# every node-indexed object, built on a 2-node walk with the given ids
NODE_INDEXED = {
    "DirectedGraph": lambda ids: cf.DirectedGraph(ids, {(ids[0], ids[1]): 1.0,
                                                        (ids[1], ids[0]): 1.0}),
    "Trajectory": lambda ids: cf.Trajectory(states=np.array([0, 1, 0, 1]), nodes=ids),
    "Walk": lambda ids: cf.Walk(np.array([[0.0, 1.0], [1.0, 0.0]]), 0, 4, seed=0, nodes=ids),
    "CycleDecomposition": lambda ids: cf.CycleDecomposition({(0, 1): 0.5}, kind="iterative",
                                                            n_nodes=2, nodes=ids),
    "CommunicationGraph": lambda ids: cf.CommunicationGraph(
        np.array([[0.0, 1.0], [1.0, 0.0]]), nodes=ids),
}


@pytest.mark.parametrize("build", NODE_INDEXED.values(), ids=NODE_INDEXED.keys())
def test_node_ids_are_distinct_strings(build):
    assert build((7, 8.5)).nodes == ("7", "8.5")
    with pytest.raises(ValueError, match="duplicate node id 'a'"):
        build(("a", "a"))
    # equal only once str()-ed
    with pytest.raises(ValueError, match="duplicate node id '1'"):
        build((1, "1"))


def test_writers_take_ids_that_were_not_strings(tmp_path):
    traj = NODE_INDEXED["Trajectory"]((7, 8))
    cf.write_trajectory(traj, tmp_path / "t.txt")
    assert cf.read_trajectory(tmp_path / "t.txt").as_ids() == ["7", "8", "7", "8"]
    assert cf.read_trajectory(tmp_path / "t.txt", nodes=(8, 7)).states.tolist() == [1, 0, 1, 0]
    assert cf.export_graph(NODE_INDEXED["CommunicationGraph"]((7, 8)), "tsv") == "7\t8\t1.0\n"


def test_edge_keys_equal_as_strings_are_refused():
    # one would silently replace the other's weight
    with pytest.raises(ValueError, match=r"edge \(1, 2\) is keyed twice"):
        cf.DirectedGraph(["1", "2"], {(1, 2): 1.0, ("1", "2"): 5.0, ("2", "1"): 1.0})


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


def test_transition_matrix_rejects_overflowing_out_weight():
    # each weight is finite, their sum is not: P's row would come out all zeros
    G = cf.DirectedGraph(["a", "b", "c"], {("a", "b"): 1.7e308, ("a", "c"): 1.7e308,
                                           ("b", "a"): 1.0, ("c", "a"): 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="node 'a' has out-weights summing to inf"):
            cf.transition_matrix(G)


def test_duplicate_edges_summing_to_inf_are_refused(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("a\tb\t1e308\na\tb\t1e308\nb\ta\t1.0\n")
    with pytest.raises(ValueError, match=r"weight inf; weights must be finite and positive"):
        cf.read_edge_list(path)


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


@pytest.mark.parametrize("P", [
    np.eye(2),
    np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float),
], ids=["two-absorbing-states", "two-disjoint-2-cycles"])
def test_stationary_refuses_reducible_chain(P):
    # every mix of the classes' stationary vectors is stationary: no unique pi to return
    with pytest.raises(np.linalg.LinAlgError):
        cf.stationary_distribution(P)


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


def bin_source(walk):
    """Where a walk's bins come from: its grid, np.searchsorted, or a search of each row."""
    t = walk._table
    return "rows" if t.search is not None else "grid" if t.grid is not None else "searchsorted"


def test_simulate_independent_of_chunk_size():
    # several uniform chunks plus a ragged tail: x must carry across boundaries;
    # every step consumes one uniform, rows with a single successor too.  The graphs
    # take each of the three ways to a bin.
    length = 3 * 65536 + 5
    for G, single, source in ((cf.wheel_switch(10, 0.7), 16, "grid"), (cf.barbell(40, 0.1), 78, "grid"),
                              (SELF_LOOPS, 1, "grid"), (GRID_CUTS, 3, "grid"),
                              (CROWDED_HUB, 21, "searchsorted"), (DENSE, 0, "rows")):
        P = cf.transition_matrix(G)
        assert np.sum(np.count_nonzero(P, axis=1) == 1) == single
        assert bin_source(cf.Walk(P, 1, length, seed=3)) == source
        traj = cf.simulate(P, 1, length, seed=3)
        assert traj.length == length
        assert np.array_equal(traj.states, reference_walk(P, 1, length, seed=3))


def spread_and_cluster(spread, cluster):
    """`spread` cuts far apart, and `cluster` cuts within 1e-6 above 0.3."""
    return np.sort(np.concatenate([np.linspace(0.05, 0.95, spread + 1)[1:] - 0.01,
                                   0.3 + 1e-7 * np.arange(1, cluster + 1)]))


@pytest.mark.parametrize("cuts,grid", [
    (np.array([]), True),
    (np.array([0.25, 0.75]), True),  # on grid points
    (np.array([np.nextafter(0.0, 1.0), 0.5, np.nextafter(1.0, 0.0)]), True),
    (np.unique(np.random.default_rng(0).random(234)), True),
    # 8 cuts, which a binary search takes 4 compares over: a cell of 4 keeps the grid, 5 do not
    (spread_and_cluster(4, 4), True),
    (spread_and_cluster(3, 5), False),
    (0.5 + 1e-4 * np.arange(20), False),
    (cf.Walk(cf.transition_matrix(CROWDED_HUB), 0, 2, seed=0)._table.cuts, False),
], ids=["none", "on_grid_points", "extremes", "uniform234", "cluster_at_limit",
        "cluster_past_limit", "crowded", "crowded_hub"])
def test_bins_match_searchsorted(cuts, grid):
    assert (_bin_grid(cuts) is not None) == grid
    above, below = np.nextafter(cuts, 1.0), np.nextafter(cuts, 0.0)
    points = np.arange(1 << 12) / (1 << 12)  # c/M for every power of two M up to 2^12
    us = np.concatenate([cuts, above, below, points, [0.0, np.nextafter(1.0, 0.0)],
                         np.random.default_rng(1).random(10_000)])
    us = us[(us >= 0.0) & (us < 1.0)]
    assert np.array_equal(_bins(cuts, _bin_grid(cuts), us), np.searchsorted(cuts, us, side="right"))


def test_walk_table_memory():
    # 800 rows of 643 bins; a fresh int object in every entry would take about 3x
    P = cf.transition_matrix(random_strong_graph(np.random.default_rng(7), 800))
    tracemalloc.start()
    try:
        cf.Walk(P, 0, 2, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000


def test_dense_walk_memory():
    # 300 rows and about 56k cuts: a table would take about 135 MB, so each row is searched
    P = cf.transition_matrix(random_strong_graph(np.random.default_rng(7), 300, extra=90_000))
    tracemalloc.start()
    try:
        walk = cf.Walk(P, 0, 2, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000
    assert bin_source(walk) == "rows"


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


def test_node_ids_are_checked_on_construction():
    # refused before a step is drawn: a walk of 1e9 steps would not finish
    P = cf.transition_matrix(cf.barbell(40, 0.1))
    with pytest.raises(ValueError, match="2 node ids for 80 nodes"):
        cf.Walk(P, 0, 10**9, 0, nodes=("a", "b"))
    # a stored walk's states must lie in its index space, that of its ids
    with pytest.raises(ValueError, match=r"states span 0\.\.3, outside 0\.\.1"):
        cf.Trajectory(states=np.array([0, 3, 0]), nodes=("a", "b"))
    # states must be integer indices: a float one would be truncated
    with pytest.raises(ValueError, match="integer node indices, not float64"):
        cf.Trajectory(states=np.array([0.5, 1.7, 0.5]))
    for dtype in (np.int32, np.int64):
        assert cf.Trajectory(states=np.array([0, 2, 0], dtype=dtype)).nodes == ("0", "1", "2")
    # an empty one spans no node, and the sampler refuses it as too short
    empty = cf.Trajectory(states=np.array([], dtype=np.int32))
    assert empty.nodes == () and empty.as_ids() == []
    with pytest.raises(ValueError, match="at least 2 states"):
        cf.sample_decomposition(empty)


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
    path.write_text("# comments\n\n# only\n")
    with pytest.raises(ValueError, match="no edges found"):
        cf.read_edge_list(path)


@pytest.mark.parametrize("weight", ["0", "-1", "-0.0", "nan", "inf", "1e999", "notanumber"])
def test_edge_list_refuses_a_line_weight_by_its_line(tmp_path, weight):
    # refused on its own line, not once summed: 2 - 1 would read as a valid 1
    path = tmp_path / "g.tsv"
    path.write_text(f"# edges\na\tb\t2\nb\ta\t1\na\tb\t{weight}\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:4: bad weight {weight!r}; weights must be finite and positive")):
        cf.read_edge_list(path)


# `#a` would start a comment line, ` a` be stripped to `a`, a leading U+FEFF be dropped
# as a byte-order mark, and a lone surrogate cannot be written as UTF-8
UNREADABLE_IDS = ["", "#a", " a", "a ", "a\tb", "a\rb", "a\nb", "a\u2028", "\ufeffa", "\ud800"]


@pytest.mark.parametrize("bad", UNREADABLE_IDS)
def test_write_edge_list_rejects_ids_that_do_not_read_back(bad):
    # no graph holds such an id, so no edge list can be written with one
    with pytest.raises(ValueError, match="would not read back"):
        cf.DirectedGraph([bad, "b"], {(bad, "b"): 1.0, ("b", bad): 1.0})


@pytest.mark.parametrize("bad", UNREADABLE_IDS)
def test_write_trajectory_rejects_ids_that_do_not_read_back(bad):
    with pytest.raises(ValueError, match="would not read back"):
        cf.Trajectory(states=np.array([1, 0, 1]), nodes=("b", bad))


# the other three node-indexed classes; a graph and a trajectory are the two tests above
_CONSTRUCTORS = {
    "walk": lambda ids: cf.Walk(np.array([[0.0, 1.0], [1.0, 0.0]]), 0, 3, 0, nodes=ids),
    "decomposition": lambda ids: cf.CycleDecomposition({(0, 1): 1.0}, "iterative", 2,
                                                       nodes=ids),
    "commgraph": lambda ids: cf.CommunicationGraph(np.ones((2, 2)), nodes=ids),
}


@pytest.mark.parametrize("bad", UNREADABLE_IDS)
@pytest.mark.parametrize("kind", list(_CONSTRUCTORS))
def test_constructors_refuse_ids_that_do_not_read_back(kind, bad):
    # one rule where ids are made (`_node_ids`), so no writer checks them
    with pytest.raises(ValueError, match=re.escape(f"node id {bad!r} would not read back")):
        _CONSTRUCTORS[kind]((bad, "b"))
    assert _CONSTRUCTORS[kind](("a b", "b#\ufeff")).nodes == ("a b", "b#\ufeff")


# ids with what a field may carry: inner spaces, `#` and U+FEFF past the first character,
# quotes, commas, backslashes, line separators that are not line ends, non-ASCII text
_ID = st.text(st.sampled_from(" #\ufeff\"',\\\u2028\x85ab\u00e9\u8282")
              | st.characters(codec="utf-8", exclude_characters="\t\r\n"),
              min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ID, min_size=2, max_size=5, unique=True),
       st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=5, max_size=5),
       st.lists(st.integers(0, 4), min_size=1, max_size=20))
def test_what_constructs_reads_back(ids, weights, states):
    """Any graph or trajectory that constructs writes and reads back: equal ids, edges
    and states."""
    edges = {(ids[k], ids[(k + 1) % len(ids)]): weights[k] for k in range(len(ids))}
    try:
        G = cf.DirectedGraph(ids, edges)
    except ValueError as exc:
        assert "would not read back" in str(exc)
        return
    traj = cf.Trajectory(states=np.array([s % len(ids) for s in states]), nodes=tuple(ids))
    with tempfile.TemporaryDirectory() as tmp:
        cf.write_edge_list(G, f"{tmp}/g.tsv")
        H = cf.read_edge_list(f"{tmp}/g.tsv")
        assert H.nodes == tuple(sorted(ids)) and H.edges == G.edges
        cf.write_trajectory(traj, f"{tmp}/t.txt")
        assert cf.read_trajectory(f"{tmp}/t.txt").as_ids() == traj.as_ids()
        back = cf.read_trajectory(f"{tmp}/t.txt", nodes=tuple(ids))
        assert back.nodes == traj.nodes and back.states.tolist() == traj.states.tolist()


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
    # without node ids, a state is named by its index
    assert cf.Trajectory(states=traj.states).as_ids() == [str(s) for s in traj.states]


def test_read_trajectory_refusals(tmp_path):
    path = tmp_path / "traj.txt"
    path.write_text("# comments only\n\n")
    with pytest.raises(ValueError, match="empty trajectory"):
        cf.read_trajectory(path)
    path.write_text("a\nb\nc\n")
    with pytest.raises(ValueError, match="unknown node id 'c'"):
        cf.read_trajectory(path, nodes=("a", "b"))
    # a line of two fields is named by its line number, past blank and comment lines
    path.write_text("a\n\n# x\ty\n b \na\tb\n")
    with pytest.raises(ValueError, match=r"traj\.txt:5: expected one node id per line"):
        cf.read_trajectory(path)


def test_read_trajectory_tab_in_a_comment(tmp_path, monkeypatch):
    plain, tabbed = tmp_path / "plain.txt", tmp_path / "tabbed.txt"
    plain.write_text("# a walk\nb\na\n b\n")
    tabbed.write_text("# a\twalk\nb\na\n b\n")
    # read and split once, as a file without the tab is, not line by line; a line of
    # two fields is still named by its number (test_read_trajectory_refusals)
    expected = cf.read_trajectory(plain)
    monkeypatch.setattr(cf.graph, "_read_fields", None)
    traj = cf.read_trajectory(tabbed)
    assert traj.nodes == expected.nodes == ("a", "b")
    assert traj.states.tolist() == expected.states.tolist() == [1, 0, 1]


def test_read_trajectory_lines(tmp_path):
    # CRLF and lone CR end lines; blank, whitespace-only and comment lines are skipped;
    # each id is stripped, and a tab only at a line's end or in a comment is no field
    path = tmp_path / "traj.txt"
    path.write_bytes(b"# walk\r\nb\r\n\r\n  a  \r\n\t\r  # c\tc\rb\t\na b\n#\n\xe8\x8a\x82\n\nb")
    traj = cf.read_trajectory(path)
    assert traj.nodes == ("a", "a b", "b", "\u8282")
    assert traj.as_ids() == ["b", "a", "b", "a b", "\u8282", "b"]
    assert traj.states.dtype == np.int32
    path.write_bytes(b"b\r\na\r\n")
    assert cf.read_trajectory(path).as_ids() == ["b", "a"]
