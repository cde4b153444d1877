"""Undirected graphs derived from a cycle decomposition.

The communication graph weights node pairs by how easily the walk carries
probability between them: many short, heavy cycles through both nodes mean
intense communication.  The cycle graph weights cycle pairs by the flux they
exchange per step.  Both are a `CommunicationGraph`, exactly symmetric by
construction, and their walks are the two lifted chains.  `Pipeline` chains
every stage from a graph to these matrices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._floattext import reprs
from .cycles import (CycleDecomposition, _cycle_texts, _json_document, _json_floats,
                     iterative_decomposition, sample_decomposition)
from .graph import (DirectedGraph, Trajectory, Walk, _node_ids, edge_flow,
                    stationary_distribution, transition_matrix)

__all__ = [
    "CommunicationGraph",
    "communication_graph",
    "cycle_graph",
    "export_graph",
    "Pipeline",
]

# Edges per block of exported lines: bounds the export's working lists.
_EXPORT_BLOCK = 1 << 14


@dataclass(frozen=True)
class CommunicationGraph:
    """Symmetric intensities between nodes, or cycles, with the walk's spectral forms.
    `nodes` holds one id per row, each index as a string when None."""

    intensity: np.ndarray
    nodes: tuple[str, ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", _node_ids(self.nodes, self.n))

    @property
    def n(self) -> int:
        return int(self.intensity.shape[0])

    @cached_property
    def mass(self) -> np.ndarray:
        """Row sums of the intensity: the node mass, pi for exact weights."""
        return self.intensity.sum(axis=1)

    @cached_property
    def normalized(self) -> np.ndarray:
        """D^{-1/2} I D^{-1/2}, D = diag(mass): the walk's exactly symmetric similar form."""
        d = 1.0 / np.sqrt(self.mass)
        return self.intensity * np.outer(d, d)

    @cached_property
    def eigh(self):
        """Ascending eigenpairs (lam, U) of `normalized`; U / sqrt(mass) are the walk's."""
        return np.linalg.eigh(self.normalized)


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
    uncovered = np.flatnonzero(I.sum(axis=1) == 0.0)
    if uncovered.size:
        raise dec.uncovered_error(int(uncovered[0]))
    return CommunicationGraph(intensity=I, nodes=dec.nodes)


def cycle_graph(dec: CycleDecomposition) -> CommunicationGraph:
    """Exchange matrix W[a, b] = sum over shared nodes x of w(a) w(b) / m_x.

    m_x is the node mass.  W is the stationary flux |a| w(a) (V B)[a, b] of
    the cycle chain, so its mass is |a| w(a), mu unnormalized.  W = Z Z^T, with
    Z[alpha, x] = w(alpha)/sqrt(m_x) on alpha's nodes, is exactly symmetric.
    Each vertex is named "(a,b,c)" by its cycle's node ids, each `\\` and `,` in an id
    escaped by a backslash, so that every name decodes to its cycle and no two collide.
    """
    Z = np.zeros((dec.lengths.size, dec.n_nodes))
    Z[dec.rows, dec.members] = dec.w[dec.rows] / np.sqrt(dec.node_mass()[dec.members])
    escaped = [v.replace("\\", "\\\\").replace(",", "\\,") for v in dec.nodes]
    return CommunicationGraph(intensity=Z @ Z.T, nodes=tuple(
        f"({t})" for t in _cycle_texts(dec, escaped, ",")))


def _edge_blocks(M: np.ndarray, include_self_loops: bool, line: str, sep: str, ids,
                 render) -> list[str]:
    """`line` with its three `{}` filled by ids[i], ids[j] and the text of M[i, j],
    over the non-zero upper triangle, row by row in index order; the lines are
    joined by `sep` in blocks.

    `render` maps the array of distinct weights to their text in one call: pairs
    on the same cycles often get bitwise-equal sums, so there are far fewer
    distinct weights than edges.  Each block is joined as soon as it is built,
    so no list of every line is held.
    """
    src, dst = np.nonzero(np.triu(M != 0.0, 0 if include_self_loops else 1))
    values, which = np.unique(M[src, dst], return_inverse=True)
    # a line is heads[i] + mids[j] + tails[weight], cut from `line` at its fields
    lead, gap1, gap2, end = line.split("{}")
    heads = np.array([lead + v + gap1 for v in ids], dtype=object)
    mids = np.array([v + gap2 for v in ids], dtype=object)
    tails = np.array([w + end for w in render(values)], dtype=object)
    blocks = []
    for start in range(0, src.size, _EXPORT_BLOCK):
        b = slice(start, start + _EXPORT_BLOCK)
        parts = np.empty(4 * len(src[b]), dtype=object)
        parts[0::4] = heads[src[b]]
        parts[1::4] = mids[dst[b]]
        parts[2::4] = tails[which[b]]
        parts[3::4] = sep
        blocks.append("".join(parts[:-1].tolist()))  # no sep after the block's last line
    return blocks


def export_graph(graph, fmt: str, include_self_loops: bool = True) -> str:
    """Serialize a communication or cycle graph as DOT, TSV or JSON text.

    Edges are emitted with the lower index first, in index order, so the
    output is deterministic.  `include_self_loops=False` drops the diagonal,
    for visualization only.  DOT refuses a node id that ends in a backslash
    (`ValueError`).
    """
    if not isinstance(graph, CommunicationGraph):
        raise TypeError(f"cannot export {type(graph).__name__}")
    M, ids = graph.intensity, graph.nodes
    if fmt == "tsv":
        blocks = _edge_blocks(M, include_self_loops, "{}\t{}\t{}", "\n", ids, reprs)
        return "\n".join([*blocks, ""]) if blocks else "\n"  # "\n" alone for no edges
    if fmt == "dot":
        # a quoted DOT ID escapes only the double quote, so a final backslash would
        # escape the closing quote
        for v in ids:
            if v.endswith("\\"):
                raise ValueError(f"node id {v!r} ends in a backslash, which a DOT ID cannot hold")
        escaped = [v.replace('"', '\\"') for v in ids]
        blocks = _edge_blocks(M, include_self_loops, '  "{}" -- "{}" [weight={}];', "\n",
                              escaped, reprs)
        return "\n".join(["graph G {", *blocks, "}", ""])
    if fmt == "json":
        # the text of json.dumps({"edges": [...], "nodes": [...]}, sort_keys=True, indent=2)
        quoted = [json.dumps(v) for v in ids]
        item = '    {\n      "source": {},\n      "target": {},\n      "weight": {}\n    }'
        blocks = _edge_blocks(M, include_self_loops, item, ",\n", quoted, _json_floats)
        return _json_document({"nodes": list(ids)}, "edges", blocks)
    raise ValueError(f"unknown export format {fmt!r} (expected dot, tsv or json)")


class Pipeline:
    """What the commands read of one decomposition source, a graph or a stored walk.
    A graph gives its walk P and stationary pi on construction; a stored walk (a
    `Trajectory`) has no graph side, so G, P and pi are None.  `dec` erases the stored
    walk, or peels the graph's exact flow or, with T given, erases T states of its walk
    from `start` as they are drawn; `dec`, the flow F and K are built on first access.
    """

    def __init__(self, source: DirectedGraph | Trajectory, T: int | None = None, seed: int = 0,
                 start: int = 0):
        self.G = self.P = self.pi = None
        self._walk = lambda: source
        if isinstance(source, DirectedGraph):
            self.G, self.P = source, transition_matrix(source)
            self.pi = stationary_distribution(self.P)
            self._walk = None if T is None else lambda: Walk(self.P, start, T, seed, source.nodes)

    @cached_property
    def dec(self) -> CycleDecomposition:
        if self._walk is None:
            # not self.F: a flow freed after the peel keeps F off the peak of
            # every command but decompose, the only one that reads F later
            return iterative_decomposition(edge_flow(self.P, self.pi), nodes=self.G.nodes)
        return sample_decomposition(self._walk())

    @cached_property
    def F(self) -> np.ndarray:
        return edge_flow(self.P, self.pi)

    @cached_property
    def K(self) -> CommunicationGraph:
        return communication_graph(self.dec)
