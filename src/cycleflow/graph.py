"""Directed weighted graphs, the random walk they induce, and trajectory simulation.

Node identifiers are strings; they are mapped once to dense indices 0..n-1
and every numerical routine works on indices.  Every node-indexed object, a
graph, walk, trajectory, decomposition or communication graph, holds one id per
index in its `nodes` tuple; one left unnamed calls each node by its index.
Graphs, transition matrices, stationary vectors and flows are immutable after
construction.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._floattext import reprs

__all__ = [
    "DirectedGraph",
    "Trajectory",
    "Walk",
    "check_strongly_connected",
    "transition_matrix",
    "stationary_distribution",
    "edge_flow",
    "flow_conservation_residual",
    "simulate",
    "read_edge_list",
    "write_edge_list",
    "read_trajectory",
    "write_trajectory",
]

# Steps per chunk of a `Walk`: bounds its working lists to 64k.
_WALK_CHUNK = 1 << 16
# A `Walk`'s table holds at most this many entries per entry of P (8 bytes each,
# as P's); a denser graph's walk searches each row instead.
_TABLE_PER_P = 4


def _node_ids(nodes, n: int) -> tuple[str, ...]:
    """`nodes` as a tuple, each index as a string when None; raises ValueError unless
    it holds one id per node."""
    ids = tuple(map(str, range(n))) if nodes is None else tuple(nodes)
    if len(ids) != n:
        raise ValueError(f"{len(ids)} node ids for {n} nodes")
    return ids


class DirectedGraph:
    """Directed graph with strictly positive edge weights.

    Parameters
    ----------
    nodes : sequence of str
        Node identifiers, at least two, no duplicates.  Their order fixes
        the index space.
    edges : mapping (src, dst) -> weight
        Directed edges with weight > 0.  Self-loops are allowed; duplicate
        directed edges are not (aggregate before constructing).
    """

    def __init__(self, nodes, edges):
        nodes = tuple(str(v) for v in nodes)
        if len(nodes) < 2:
            raise ValueError("graph needs at least 2 nodes")
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node identifiers")
        self.nodes = nodes
        self._index = {v: i for i, v in enumerate(nodes)}
        edge_map = {}
        for (x, y), w in dict(edges).items():
            x, y = str(x), str(y)
            if x not in self._index or y not in self._index:
                raise ValueError(f"edge ({x}, {y}) references unknown node")
            w = float(w)
            if not math.isfinite(w) or w <= 0.0:
                raise ValueError(f"edge ({x}, {y}) has weight {w}; "
                                 "weights must be finite and positive")
            edge_map[(x, y)] = w
        if not edge_map:
            raise ValueError("graph has no edges")
        self.edges = edge_map

    @property
    def n(self) -> int:
        return len(self.nodes)

    def index(self, node: str) -> int:
        return self._index[node]

    def weight_matrix(self) -> np.ndarray:
        """Dense n x n matrix K with K[i, j] = weight of edge (i, j), 0 if absent."""
        K = np.zeros((self.n, self.n))
        for (x, y), w in self.edges.items():
            K[self._index[x], self._index[y]] = w
        return K

    @classmethod
    def from_edge_list(cls, triples):
        """Build a graph from (src, dst, weight) triples.

        Duplicate directed edges are aggregated by summing their weights;
        nodes are taken in sorted order of their identifiers.
        """
        agg: dict[tuple[str, str], float] = {}
        names = set()
        for x, y, w in triples:
            x, y = str(x), str(y)
            names.add(x)
            names.add(y)
            agg[(x, y)] = agg.get((x, y), 0.0) + float(w)
        return cls(sorted(names), agg)

    def __repr__(self):
        return f"DirectedGraph(n={self.n}, edges={len(self.edges)})"


@dataclass(frozen=True)
class Trajectory:
    """A realization of the walk as a sequence of node indices.

    The index space is `nodes`, else 0 up to the largest state; states of a
    non-integer dtype, or outside the index space, are refused on construction.
    """

    states: np.ndarray
    nodes: tuple[str, ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        if not np.issubdtype(self.states.dtype, np.integer):
            raise ValueError("trajectory states must be integer node indices, "
                             f"not {self.states.dtype}")
        lo, hi = (int(self.states.min()), int(self.states.max())) if self.states.size else (0, -1)
        n = hi + 1 if self.nodes is None else len(self.nodes)
        if lo < 0 or hi >= n:
            raise ValueError(f"trajectory states span {lo}..{hi}, outside 0..{n - 1}")
        object.__setattr__(self, "nodes", _node_ids(self.nodes, n))

    @property
    def length(self) -> int:
        return int(self.states.shape[0])

    def as_ids(self):
        return [self.nodes[s] for s in self.states.tolist()]


def check_strongly_connected(G: DirectedGraph) -> bool:
    """True iff a directed path exists between every ordered node pair."""
    succ = [[] for _ in range(G.n)]
    pred = [[] for _ in range(G.n)]
    for (x, y) in G.edges:
        i, j = G.index(x), G.index(y)
        succ[i].append(j)
        pred[j].append(i)

    def reaches_all(adj):
        seen = np.zeros(G.n, dtype=bool)
        seen[0] = True
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return bool(seen.all())

    return reaches_all(succ) and reaches_all(pred)


def transition_matrix(G: DirectedGraph) -> np.ndarray:
    """Row-stochastic walk matrix: each row of K divided by its out-weight.

    Rejects graphs with a sink or, more generally, graphs that are not
    strongly connected (the walk would not be ergodic), out-weights summing
    beyond the float range, and edge probabilities below it.
    """
    K = G.weight_matrix()
    with np.errstate(over="ignore"):
        out = K.sum(axis=1)
    sinks = np.flatnonzero(out == 0.0)
    if sinks.size:
        raise ValueError(
            f"node {G.nodes[sinks[0]]!r} has zero out-degree (sink); "
            "the graph is not strongly connected"
        )
    overflow = np.flatnonzero(~np.isfinite(out))
    if overflow.size:
        raise ValueError(f"node {G.nodes[overflow[0]]!r} has out-weights summing to "
                         f"{out[overflow[0]]}; the sum must be finite")
    if not check_strongly_connected(G):
        raise ValueError("graph is not strongly connected")
    P = K / out[:, None]
    # each edge is one positive entry of K; one whose quotient underflows leaves the walk
    if np.count_nonzero(P) < len(G.edges):
        x, y = np.argwhere((P == 0.0) & (K > 0.0))[0]
        raise ValueError(f"edge ({G.nodes[x]}, {G.nodes[y]}) has probability {K[x, y]} / "
                         f"{out[x]}, which underflows to 0; it must be a positive float")
    return P


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Stationary distribution pi with pi^T P = pi^T.

    One dense solve of (P^T - Id) pi = 0 with its last equation replaced by
    sum(pi) = 1, a nonsingular system for an irreducible P.  Raises
    numpy.linalg.LinAlgError when it is singular, as for a reducible P, whose
    stationary vector is not unique, and RuntimeError if the l1 residual
    |pi P - pi| exceeds 1e-8 or is NaN.
    """
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.maximum(np.linalg.solve(A, b), 0.0)
    s = pi.sum()
    if not s > 0:
        raise RuntimeError("stationary solve produced a non-positive or NaN vector")
    pi /= s
    res = float(np.abs(pi @ P - pi).sum())
    if not res <= 1e-8:
        raise RuntimeError(f"stationary solve failed, residual {res:.3e}")
    return pi


def edge_flow(P: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Stationary probability flow F[i, j] = pi[i] * P[i, j]."""
    return np.asarray(pi)[:, None] * np.asarray(P)


def flow_conservation_residual(F: np.ndarray) -> float:
    """Max over nodes of |inflow - outflow|; ~0 for a stationary flow."""
    return float(np.max(np.abs(F.sum(axis=0) - F.sum(axis=1))))


def _bin_grid(cuts: np.ndarray):
    """The power-of-two grid that `_bins` reads bins off, for sorted unique `cuts`.

    Cell c of the M cells holds the uniforms in [c/M, (c+1)/M): `base[c]` counts
    the cuts at or below c/M, and at most `passes` cuts lie inside any cell.  None
    when the densest cell holds more cuts than a binary search over all of them
    compares.
    """
    m = cuts.size
    M = 1 << (m.bit_length() + 2)
    edges = np.arange(M + 1) / M  # exact: M is a power of two
    base = np.searchsorted(cuts, edges[:-1], side="right")
    passes = int((np.searchsorted(cuts, edges[1:], side="left") - base).max())
    if passes > m.bit_length():
        return None
    # past the last cut a pass reads 2.0, which no uniform reaches; a bin is at most m
    return M, base.astype(np.min_scalar_type(m)), np.append(cuts, 2.0), passes


def _bins(cuts: np.ndarray, grid, us: np.ndarray) -> np.ndarray:
    """Each uniform's bin, the number of cuts at or below it, in the smallest unsigned
    dtype that holds the bins: `np.searchsorted(cuts, us, side="right")`, read off
    `grid` unless it is None."""
    if grid is None:
        return np.searchsorted(cuts, us, side="right").astype(np.min_scalar_type(cuts.size))
    M, base, padded, passes = grid
    # u*M is exact, so each u lands in its own cell: cast as it is computed, no float copy
    g = base[np.multiply(us, M, out=np.empty(us.size, dtype=np.min_scalar_type(M - 1)),
                         casting="unsafe")]
    for _ in range(passes):
        g += padded[g] <= us
    return g


class _Table(NamedTuple):
    """How a `Walk` steps: from x on bin g to `rows[x][g]`.

    With `cuts`, a uniform's bin is the number of cuts at or below it, read off
    `grid` (see `_bins`).  Without, the table would outgrow P: `rows` is None
    and `search` holds each row's successors and their cuts, searched per step.
    """

    rows: list | None
    cuts: np.ndarray | None
    grid: tuple | None
    search: tuple | None


@dataclass(frozen=True, eq=False)
class Walk:
    """The walk on P from index `start`, `length` states long, drawn on demand.

    Reproducible: the generator is numpy's PCG64 seeded with `seed`, and one
    uniform variate is consumed per step in walk order.  Uniforms are drawn in
    chunks of `_WALK_CHUNK`; PCG64 spends one 64-bit draw per double, so the
    states do not depend on the chunk size.  The length, the start index and
    every row of P are checked on construction, before any uniform is drawn, and
    so are the node ids: one per row of P, each index as a string when None.

    A step is one table lookup.  The cuts, every row's cumulative probabilities
    but its last, sorted and unique, split [0, 1) into bins; no cut falls inside
    a bin, so the inverse-CDF pick of every row is constant on each.  The table
    holds, per row, the successor on each bin (n rows of one more entry than
    there are cuts, sharing their int objects), and a step from x on bin g goes
    to `rows[x][g]`.  Where that table would hold more than `_TABLE_PER_P`
    entries per entry of P, as on a dense graph whose cuts number about its
    edges, each step instead searches its row's cumulative probabilities.
    """

    P: np.ndarray
    start: int
    length: int
    seed: int
    nodes: tuple[str, ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("trajectory length must be >= 1")
        if not 0 <= self.start < self.n:
            raise ValueError(f"start index {self.start} out of range")
        object.__setattr__(self, "nodes", _node_ids(self.nodes, self.n))
        self._table  # raises on a row with no successor

    @property
    def n(self) -> int:
        return int(np.shape(self.P)[0])

    @cached_property
    def _table(self) -> _Table:
        P = np.asarray(self.P, dtype=float)
        succ, cums = [], []
        for i in range(self.n):
            idx = np.flatnonzero(P[i])
            if idx.size == 0:
                raise ValueError(f"state {i} has no successors")
            c = np.cumsum(P[i, idx])
            # normalized, the last cumulative probability is 1, above every uniform: no cut
            succ.append(idx)
            cums.append(c[:-1] / c[-1])
        cuts = np.unique(np.concatenate(cums))
        if self.n * (cuts.size + 1) > _TABLE_PER_P * P.size:
            search = [s.tolist() for s in succ], [c.tolist() for c in cums]
            return _Table(None, None, None, search)
        ints = list(range(self.n))  # shared by all rows: an entry costs a pointer, not an int
        lows = np.concatenate(([0.0], cuts))  # the smallest uniform in each bin
        rows = [list(map(ints.__getitem__, idx[np.searchsorted(c, lows, side="right")].tolist()))
                for idx, c in zip(succ, cums)]
        return _Table(rows, cuts, _bin_grid(cuts), None)

    def chunks(self):
        """Yield the `length - 1` states after `start`, in lists of up to `_WALK_CHUNK`."""
        rows, cuts, grid, search = self._table
        rng = np.random.default_rng(self.seed)
        x = self.start  # carries the walker's node across chunks
        for lo in range(1, self.length, _WALK_CHUNK):
            us = rng.random(min(_WALK_CHUNK, self.length - lo))
            if search is None:  # a memoryview yields the bins as ints
                # each array is freed once read: fewer large blocks live at once, less heap
                gs = memoryview(_bins(cuts, grid, us))
                del us
                yield [x := rows[x][g] for g in gs]
                del gs
            else:
                succ, cums = search
                yield [x := succ[x][bisect_right(cums[x], u)] for u in us.tolist()]


def simulate(P: np.ndarray, start: int, length: int, seed: int) -> Trajectory:
    """Realize `length` states of `Walk(P, start, length, seed)` as a Trajectory over P's
    index space, each node named by its index."""
    walk = Walk(P, start, length, seed)
    out = np.empty(length, dtype=np.int32)
    out[0] = start
    lo = 1
    for chunk in walk.chunks():
        out[lo:lo + len(chunk)] = chunk
        lo += len(chunk)
    return Trajectory(states=out, nodes=walk.nodes)


def _read_fields(path, count: int, expected: str):
    """(line number, tab-split fields) for each line of a UTF-8 text file but blank
    and `#` lines; a line without `count` fields raises, naming `path:lineno`."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != count:
                raise ValueError(f"{path}:{lineno}: expected {expected}")
            yield lineno, fields


def read_edge_list(path) -> DirectedGraph:
    """Read a graph from UTF-8 text, one `src<TAB>dst<TAB>weight` per line.

    Blank lines and lines starting with `#` are skipped.  Repeated directed
    edges are aggregated by summing their weights.
    """
    triples = []
    for lineno, (src, dst, weight) in _read_fields(path, 3, "src<TAB>dst<TAB>weight"):
        try:
            triples.append((src, dst, float(weight)))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad weight {weight!r}") from exc
    if not triples:
        raise ValueError(f"{path}: no edges found")
    return DirectedGraph.from_edge_list(triples)


def _check_writable_ids(ids) -> None:
    """Raise ValueError on a node id that `_read_fields` would not read back as itself:
    empty, holding a tab or a line break, starting with `#` (a comment line) or with
    whitespace at either end (stripped off the line)."""
    for v in ids:
        if not v or v != v.strip() or v.startswith("#") or any(ch in v for ch in "\t\r\n"):
            raise ValueError(f"node id {v!r} cannot be written: it would not read back")


def write_edge_list(G: DirectedGraph, path) -> None:
    """Write the graph as TSV edge lines in node-index order.

    Raises ValueError, before opening `path`, on a node id that would not read back.
    """
    _check_writable_ids(G.nodes)
    edges = sorted(G.edges.items(), key=lambda it: (G.index(it[0][0]), G.index(it[0][1])))
    weights = reprs(np.array([w for _, w in edges], dtype=float))
    lines = [f"{x}\t{y}\t{w}" for ((x, y), _), w in zip(edges, weights)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trajectory(path, nodes: tuple[str, ...] | None = None) -> Trajectory:
    """Read a trajectory file with one node id per line.

    If `nodes` is given the ids are mapped through it, otherwise the sorted
    set of observed ids fixes the index space.  Blank lines and lines
    starting with `#` are skipped.  The file is read and split once; a file
    holding a tab anywhere is read line by line instead, so that a line of
    two fields is refused by its `path:lineno`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if "\t" in text:
        ids = [v for _, (v,) in _read_fields(path, 1, "one node id per line")]
    else:  # the lines as `_read_fields` reads them: newlines translated, each stripped
        ids = list(filter(None, map(str.strip, text.split("\n"))))
        if "#" in text:
            ids = [v for v in ids if not v.startswith("#")]
    if not ids:
        raise ValueError(f"{path}: empty trajectory")
    if nodes is None:
        nodes = tuple(sorted(set(ids)))
    index = {v: i for i, v in enumerate(nodes)}
    try:
        states = np.fromiter(map(index.__getitem__, ids), dtype=np.int32, count=len(ids))
    except KeyError as exc:
        raise ValueError(f"{path}: unknown node id {exc.args[0]!r}") from exc
    return Trajectory(states=states, nodes=nodes)


def write_trajectory(traj: Trajectory, path) -> None:
    """Write one node id per line; raises ValueError, before opening `path`, on an id
    that would not read back."""
    ids = traj.as_ids()
    _check_writable_ids(set(ids))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(ids) + "\n")
