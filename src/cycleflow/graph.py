"""Directed weighted graphs, the random walk they induce, and trajectory simulation.

Node identifiers are strings; they are mapped once to dense indices 0..n-1
and every numerical routine works on indices.  Graphs, transition matrices,
stationary vectors and flows are immutable after construction.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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
                raise ValueError(f"edge ({x}, {y}) has non-positive weight {w}")
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
    """A realization of the walk as a sequence of node indices."""

    states: np.ndarray
    nodes: tuple[str, ...] | None = field(default=None, repr=False)

    @property
    def length(self) -> int:
        return int(self.states.shape[0])

    def as_ids(self):
        if self.nodes is None:
            return [str(int(s)) for s in self.states]
        return [self.nodes[int(s)] for s in self.states]


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
    strongly connected (the walk would not be ergodic).
    """
    K = G.weight_matrix()
    out = K.sum(axis=1)
    sinks = np.flatnonzero(out == 0.0)
    if sinks.size:
        raise ValueError(
            f"node {G.nodes[sinks[0]]!r} has zero out-degree (sink); "
            "the graph is not strongly connected"
        )
    if not check_strongly_connected(G):
        raise ValueError("graph is not strongly connected")
    return K / out[:, None]


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Stationary distribution pi with pi^T P = pi^T.

    One dense solve of (P^T - Id) pi = 0 with its last equation replaced by
    sum(pi) = 1; least squares when that system is singular.  Raises
    RuntimeError if the l1 residual |pi P - pi| exceeds 1e-8 or is NaN.
    """
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    pi = np.maximum(pi, 0.0)
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


@dataclass(frozen=True, eq=False)
class Walk:
    """The walk on P from index `start`, `length` states long, drawn on demand.

    Reproducible: the generator is numpy's PCG64 seeded with `seed`, and one
    uniform variate is consumed per step in walk order.  Uniforms are drawn in
    chunks of `_WALK_CHUNK`; PCG64 spends one 64-bit draw per double, so the
    states do not depend on the chunk size.  The length, the start index and
    every row of P are checked on construction, before any uniform is drawn.
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
        self._rows  # raises on a row with no successor

    @property
    def n(self) -> int:
        return int(np.shape(self.P)[0])

    @cached_property
    def _rows(self):
        """Per row: successor indices, their cumulative probabilities, and the
        successor itself for a row with one, which needs no search."""
        P = np.asarray(self.P, dtype=float)
        succ = []
        cums = []
        for i in range(self.n):
            idx = np.flatnonzero(P[i])
            if idx.size == 0:
                raise ValueError(f"state {i} has no successors")
            c = np.cumsum(P[i, idx])
            c /= c[-1]
            c[-1] = 1.0  # uniforms in [0,1) always land inside the row
            succ.append(idx.tolist())
            cums.append(c.tolist())
        return succ, cums, [s[0] if len(s) == 1 else None for s in succ]

    def chunks(self):
        """Yield the `length - 1` states after `start`, in lists of up to `_WALK_CHUNK`."""
        succ, cums, det = self._rows
        rng = np.random.default_rng(self.seed)
        x = self.start
        for lo in range(1, self.length, _WALK_CHUNK):
            us = rng.random(min(_WALK_CHUNK, self.length - lo)).tolist()
            # x carries the walker's node across chunks; a row with one successor
            # skips the search but its uniform is drawn all the same
            yield [x := det[x] if det[x] is not None else succ[x][bisect_right(cums[x], u)]
                   for u in us]


def simulate(P: np.ndarray, start: int, length: int, seed: int) -> Trajectory:
    """Realize `length` states of `Walk(P, start, length, seed)` as a Trajectory."""
    walk = Walk(P, start, length, seed)
    out = np.empty(length, dtype=np.int32)
    out[0] = start
    lo = 1
    for chunk in walk.chunks():
        out[lo:lo + len(chunk)] = chunk
        lo += len(chunk)
    return Trajectory(states=out)


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
    lines = []
    for (x, y), w in sorted(G.edges.items(), key=lambda it: (G.index(it[0][0]), G.index(it[0][1]))):
        lines.append(f"{x}\t{y}\t{w!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trajectory(path, nodes: tuple[str, ...] | None = None) -> Trajectory:
    """Read a trajectory file with one node id per line.

    If `nodes` is given the ids are mapped through it, otherwise the sorted
    set of observed ids fixes the index space.  Blank lines and lines
    starting with `#` are skipped.
    """
    ids = [v for _, (v,) in _read_fields(path, 1, "one node id per line")]
    if not ids:
        raise ValueError(f"{path}: empty trajectory")
    if nodes is None:
        nodes = tuple(sorted(set(ids)))
    index = {v: i for i, v in enumerate(nodes)}
    try:
        states = np.array([index[v] for v in ids], dtype=np.int32)
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
