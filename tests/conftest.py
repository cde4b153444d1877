"""Shared graph builders, reference loops and fixtures for the test suite."""

import json

import numpy as np
import pytest

import cycleflow as cf

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def three_node_chain():
    """a <-> b <-> c with unit weights; every edge lies on exactly one 2-cycle."""
    return cf.DirectedGraph(
        ["a", "b", "c"],
        {("a", "b"): 1.0, ("b", "a"): 1.0, ("b", "c"): 1.0, ("c", "b"): 1.0})


def two_triangles(bridge=0.1):
    """Two bidirectional 3-cliques joined by one weak reciprocal edge."""
    nodes = [f"t{k}" for k in range(6)]
    edges = {}
    for tri in ((0, 1, 2), (3, 4, 5)):
        for a in tri:
            for b in tri:
                if a != b:
                    edges[(f"t{a}", f"t{b}")] = 1.0
    edges[("t2", "t3")] = bridge
    edges[("t3", "t2")] = bridge
    return cf.DirectedGraph(nodes, edges)


def three_cliques(bridge=0.05):
    """Three bidirectional 3-cliques joined in a weak ring."""
    nodes = [f"c{k}" for k in range(9)]
    edges = {}
    for tri in ((0, 1, 2), (3, 4, 5), (6, 7, 8)):
        for a in tri:
            for b in tri:
                if a != b:
                    edges[(f"c{a}", f"c{b}")] = 1.0
    for a, b in ((2, 3), (5, 6), (8, 0)):
        edges[(f"c{a}", f"c{b}")] = bridge
        edges[(f"c{b}", f"c{a}")] = bridge
    return cf.DirectedGraph(nodes, edges)


def shared_node_cliques():
    """Two bidirectional 3-cliques sharing one node."""
    nodes = [f"s{k}" for k in range(5)]
    edges = {}
    for tri in ((0, 1, 2), (2, 3, 4)):
        for a in tri:
            for b in tri:
                if a != b:
                    edges[(f"s{a}", f"s{b}")] = 1.0
    return cf.DirectedGraph(nodes, edges)


def reciprocal_ring4(seed=1):
    """All-reciprocal 4-ring with a strong clockwise drift; finite entropy production."""
    rng = np.random.default_rng(seed)
    nodes = ["a", "b", "c", "d"]
    edges = {}
    for x, y in (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")):
        edges[(x, y)] = float(rng.uniform(2.0, 4.0))
        edges[(y, x)] = float(rng.uniform(0.3, 1.0))
    return cf.DirectedGraph(nodes, edges)


def star(weights):
    """Hub `h` with out-edges of the given weights to leaves l00, l01, ..., each leaf
    stepping back to h: the walk's cuts are the hub's cumulative probabilities."""
    leaves = [f"l{k:02d}" for k in range(len(weights))]
    edges = {("h", v): w for v, w in zip(leaves, weights)}
    return cf.DirectedGraph(["h", *leaves], {**edges, **{(v, "h"): 1.0 for v in leaves}})


# cuts 0.25 and 0.75: each sits exactly on a point of the walk's bin grid
GRID_CUTS = star([1.0, 2.0, 1.0])
# 20 cuts within 2e-3 below 1: they crowd one grid cell, so the bins come from a search
CROWDED_HUB = star([1.0] + [1e-4] * 20)


def random_strong_graph(rng, n=None, extra=None):
    """Random strongly connected graph: a random ring plus random extra edges.

    `extra` fixes the number of extra-edge draws, otherwise drawn below 2n;
    with n=500 and extra=1000 this is the benchmark's random-peeled input.
    """
    if n is None:
        n = int(rng.integers(3, 8))
    nodes = [f"x{k}" for k in range(n)]
    perm = rng.permutation(n)
    edges = {}
    for i in range(n):
        a, b = perm[i], perm[(i + 1) % n]
        edges[(f"x{a}", f"x{b}")] = float(rng.uniform(0.2, 3.0))
    for _ in range(int(rng.integers(0, 2 * n)) if extra is None else extra):
        a, b = rng.integers(0, n, 2)
        if a != b:
            edges[(f"x{a}", f"x{b}")] = float(rng.uniform(0.2, 3.0))
    return cf.DirectedGraph(nodes, edges)



# 12 nodes, 88 edges: its 76 cuts would make a table of more than four entries per
# entry of P, so a walk on it searches each row instead
DENSE = random_strong_graph(np.random.default_rng(5), 12, extra=144)

def dict_erasure(states):
    """Reference loop erasure: chain positions in a dict, each closure canonicalized."""
    counts = {}
    eta = [states[0]]
    pos = {states[0]: 0}
    for x in states[1:]:
        p = pos.get(x)
        if p is None:
            pos[x] = len(eta)
            eta.append(x)
            continue
        tail = eta[p + 1:]
        cyc = cf.canonical_cycle((x, *tail))
        counts[cyc] = counts.get(cyc, 0) + 1
        for y in tail:
            del pos[y]
        del eta[p + 1:]
    return counts


def reference_edges(M, include_self_loops):
    """(i, j, M[i, j]) over the non-zero upper triangle, row by row in index order."""
    first = 0 if include_self_loops else 1
    for i in range(M.shape[0]):
        cols = np.flatnonzero(M[i, i + first:]) + i + first
        yield from zip([i] * cols.size, cols.tolist(), M[i, cols].tolist())


def reference_export(graph, fmt, include_self_loops=True):
    """Reference export: one line per edge, each weight rendered on its own;
    JSON through json.dumps of the whole object."""
    M = graph.intensity
    ids = graph.node_ids()
    edges = list(reference_edges(M, include_self_loops))
    if fmt == "tsv":
        return "\n".join(f"{ids[i]}\t{ids[j]}\t{w!r}" for i, j, w in edges) + "\n"
    if fmt == "dot":
        lines = [f'  "{ids[i]}" -- "{ids[j]}" [weight={w!r}];' for i, j, w in edges]
        return "\n".join(["graph G {", *lines, "}"]) + "\n"
    obj = {"nodes": list(ids),
           "edges": [{"source": ids[i], "target": ids[j], "weight": w} for i, j, w in edges]}
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def mc_hitting_probabilities(P_walk, cores, start, n_walkers, seed, max_steps=100_000):
    """Monte-Carlo estimate of the probability of reaching each core first."""
    rng = np.random.default_rng(seed)
    n = P_walk.shape[0]
    target = np.full(n, -1, dtype=int)
    for j, core in enumerate(cores):
        target[list(core)] = j
    if target[start] >= 0:
        out = np.zeros(len(cores))
        out[target[start]] = 1.0
        return out
    cum = np.cumsum(P_walk, axis=1)
    cum[:, -1] = 1.0
    state = np.full(n_walkers, start, dtype=np.int64)
    hit = np.full(n_walkers, -1, dtype=np.int64)
    alive = np.arange(n_walkers)
    for _ in range(max_steps):
        u = rng.random(alive.size)
        cur = state[alive]
        nxt = np.empty(alive.size, dtype=np.int64)
        for x in np.unique(cur):
            mask = cur == x
            nxt[mask] = np.searchsorted(cum[x], u[mask], side="right")
        state[alive] = nxt
        absorbed = target[nxt] >= 0
        hit[alive[absorbed]] = target[nxt[absorbed]]
        alive = alive[~absorbed]
        if alive.size == 0:
            break
    assert alive.size == 0, "walkers failed to absorb"
    return np.bincount(hit, minlength=len(cores)) / n_walkers


@pytest.fixture(scope="session")
def barbell4():
    return cf.Pipeline(cf.barbell(4, 0.1))


@pytest.fixture(scope="session")
def barbell40():
    return cf.Pipeline(cf.barbell(40, 0.1))


@pytest.fixture(scope="session")
def chain3():
    return cf.Pipeline(three_node_chain())
