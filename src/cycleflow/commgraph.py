"""Undirected graphs derived from a cycle decomposition.

The communication graph weights node pairs by how easily the walk carries
probability between them: many short, heavy cycles through both nodes mean
intense communication.  The cycle graph weights cycle pairs by the flux they
exchange per step.  Both matrices are exactly symmetric by construction, and
their walks are the two lifted chains.  `Pipeline` chains every stage from a
graph to these matrices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cycles import (CycleDecomposition, _json_document, _json_floats, iterative_decomposition,
                     sample_decomposition)
from .graph import DirectedGraph, Walk, edge_flow, stationary_distribution, transition_matrix
from .lifted import cycle_stationary, cycle_to_node_matrix, node_to_cycle_matrix

__all__ = [
    "CommunicationGraph",
    "CycleGraph",
    "communication_graph",
    "cycle_graph",
    "export_graph",
    "Pipeline",
]

# entries below this are sampling-noise floor and stored as exact zeros
_ZERO_FLOOR = 1e-15


@dataclass(frozen=True)
class CommunicationGraph:
    """Symmetric node-communication intensities, with the walk's spectral forms."""

    intensity: np.ndarray
    nodes: tuple[str, ...] | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return int(self.intensity.shape[0])

    @cached_property
    def mass(self) -> np.ndarray:
        """Row sums of the intensity: the node mass, pi for exact weights."""
        return self.intensity.sum(axis=1)

    def walk_matrix(self) -> np.ndarray:
        """Row-normalized intensity: the random walk, i.e. the lifted node chain B V."""
        return self.intensity / self.mass[:, None]

    @cached_property
    def normalized(self) -> np.ndarray:
        """D^{-1/2} I D^{-1/2}, D = diag(mass): the walk's exactly symmetric similar form."""
        d = 1.0 / np.sqrt(self.mass)
        return self.intensity * np.outer(d, d)

    @cached_property
    def eigh(self):
        """Ascending eigenpairs (lam, U) of `normalized`; U / sqrt(mass) are the walk's."""
        return np.linalg.eigh(self.normalized)

    def node_ids(self):
        return self.nodes if self.nodes is not None else tuple(str(i) for i in range(self.n))


@dataclass(frozen=True)
class CycleGraph:
    """Symmetric per-step flux exchange between cycles, with their stationary mu."""

    exchange: np.ndarray
    mu: np.ndarray
    cycles: tuple
    nodes: tuple[str, ...] | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return int(self.exchange.shape[0])

    def node_ids(self):
        if self.nodes is None:
            return tuple("(" + ",".join(str(v) for v in c) + ")" for c in self.cycles)
        return tuple("(" + ",".join(self.nodes[v] for v in c) + ")" for c in self.cycles)


def communication_graph(dec: CycleDecomposition, pi=None) -> CommunicationGraph:
    """Intensity matrix I[x, y] = sum over cycles through x and y of w/|cycle|.

    Self-loops (x == y) are kept: they carry the mass that makes each row sum
    to pi[x].  I equals diag(pi) times the lifted node chain when the weights
    are exact.  Computed as X^T X with X[alpha, x] = sqrt(w/|alpha|) on the
    cycle's nodes, a symmetric rank-k product, so I is exactly symmetric.
    `pi` is unused, as I depends on the cycles alone; it stays for callers that
    pass it positionally, such as the benchmark's checks.
    """
    X = np.zeros((dec.lengths.size, dec.n_nodes))
    X[dec.rows, dec.members] = np.sqrt(dec.w / dec.lengths)[dec.rows]
    I = X.T @ X
    I[np.abs(I) < _ZERO_FLOOR] = 0.0
    uncovered = np.flatnonzero(I.sum(axis=1) == 0.0)
    if uncovered.size:
        raise dec.uncovered_error(int(uncovered[0]))
    return CommunicationGraph(intensity=I, nodes=dec.nodes)


def cycle_graph(dec: CycleDecomposition) -> CycleGraph:
    """Exchange matrix W[a, b] = sum over shared nodes x of w(a) w(b) / m_x.

    m_x is the node mass.  W is the stationary flux |a| w(a) (V B)[a, b] of
    the cycle chain, so its rows sum to |a| w(a).  Computed as Z Z^T with
    Z[alpha, x] = w(alpha)/sqrt(m_x) on the cycle's nodes, a symmetric rank-k
    product, so W is exactly symmetric.
    """
    Z = np.zeros((dec.lengths.size, dec.n_nodes))
    Z[dec.rows, dec.members] = dec.w[dec.rows] / np.sqrt(dec.node_mass()[dec.members])
    W = Z @ Z.T
    W[np.abs(W) < _ZERO_FLOOR] = 0.0
    return CycleGraph(exchange=W, mu=cycle_stationary(dec), cycles=tuple(dec.cycles),
                      nodes=dec.nodes)


def _edge_iter(M: np.ndarray, include_self_loops: bool):
    """(i, j, M[i, j]) over the non-zero upper triangle, row by row in index order."""
    first = 0 if include_self_loops else 1
    for i in range(M.shape[0]):
        cols = np.flatnonzero(M[i, i + first:]) + i + first
        yield from zip([i] * cols.size, cols.tolist(), M[i, cols].tolist())


def export_graph(graph, fmt: str, include_self_loops: bool = True) -> str:
    """Serialize a communication or cycle graph as DOT, TSV or JSON text.

    Edges are emitted with the lower index first, in index order, so the
    output is deterministic.  `include_self_loops=False` drops the diagonal,
    for visualization only.
    """
    if isinstance(graph, CommunicationGraph):
        M, ids = graph.intensity, graph.node_ids()
    elif isinstance(graph, CycleGraph):
        M, ids = graph.exchange, graph.node_ids()
    else:
        raise TypeError(f"cannot export {type(graph).__name__}")
    edges = _edge_iter(M, include_self_loops)

    if fmt == "tsv":
        lines = [f"{ids[i]}\t{ids[j]}\t{wij!r}" for i, j, wij in edges]
        return "\n".join(lines) + "\n"
    if fmt == "dot":
        lines = ["graph G {"]
        for i, j, wij in edges:
            lines.append(f'  "{ids[i]}" -- "{ids[j]}" [weight={wij!r}];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        # the text of json.dumps({"edges": [...], "nodes": [...]}, sort_keys=True, indent=2)
        quoted = [json.dumps(v) for v in ids]
        edges = list(edges)
        weights = _json_floats([wij for _, _, wij in edges])
        items = [f'    {{\n      "source": {quoted[i]},\n      "target": {quoted[j]},'
                 f'\n      "weight": {w}\n    }}' for (i, j, _), w in zip(edges, weights)]
        return _json_document({}, {"edges": items, "nodes": ["    " + q for q in quoted]})
    raise ValueError(f"unknown export format {fmt!r} (expected dot, tsv or json)")


class Pipeline:
    """Everything derived from one graph; all but P and pi is built on first access.
    The decomposition peels the exact flow or, with T given, erases T states of
    the walk from `start` as they are drawn, holding no trajectory.  B, V,
    P_lift = B V and Q_lift = V B are the explicit lifting, kept as the reference
    the walks on K and on the cycle graph are checked against; `pi_lift`, the
    normalized node mass, is what P_lift is reversible with (pi for exact weights).
    """

    def __init__(self, G: DirectedGraph, T: int | None = None, seed: int = 0,
                 start: int = 0):
        self.G = G
        self.P = transition_matrix(G)
        self.pi = stationary_distribution(self.P)
        self._sampling = None if T is None else (start, T, seed)

    @cached_property
    def dec(self) -> CycleDecomposition:
        if self._sampling is None:
            # not self.F: a flow freed after the peel keeps F off the peak of
            # every command but decompose, the only one that reads F later
            return iterative_decomposition(edge_flow(self.P, self.pi), nodes=self.G.nodes)
        start, T, seed = self._sampling
        return sample_decomposition(Walk(self.P, start, T, seed, nodes=self.G.nodes),
                                    n_nodes=self.G.n)

    @cached_property
    def F(self) -> np.ndarray:
        return edge_flow(self.P, self.pi)

    @cached_property
    def B(self) -> np.ndarray:
        return node_to_cycle_matrix(self.dec)

    @cached_property
    def V(self) -> np.ndarray:
        return cycle_to_node_matrix(self.dec)

    @cached_property
    def P_lift(self) -> np.ndarray:
        # a fresh V, freed after the product: P_lift alone needs no cached V
        return self.B @ cycle_to_node_matrix(self.dec)

    @cached_property
    def pi_lift(self) -> np.ndarray:
        mass = self.dec.node_mass()
        return mass / mass.sum()

    @cached_property
    def Q_lift(self) -> np.ndarray:
        return self.V @ self.B

    @cached_property
    def mu(self) -> np.ndarray:
        return cycle_stationary(self.dec)

    @cached_property
    def K(self) -> CommunicationGraph:
        return communication_graph(self.dec)
