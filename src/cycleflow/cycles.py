"""Decomposing the stationary edge flow into weighted simple cycles.

Two decomposers are provided.  `sample_decomposition` extracts cycles from a
walk realization with a loop-erasing auxiliary chain; its weights converge to
the per-step cycle completion frequencies of the walk, the decomposition that
also carries the information-transport interpretation downstream.
`iterative_decomposition` peels cycles off the exact flow deterministically;
it reproduces the flow exactly but its weights are a different, algorithm-
dependent solution of the same flow equations whenever cycles share edges.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice

import numpy as np

from .graph import Trajectory, Walk, flow_conservation_residual

__all__ = [
    "Cycle",
    "canonical_cycle",
    "reverse_cycle",
    "CycleDecomposition",
    "sample_decomposition",
    "merge_decompositions",
    "iterative_decomposition",
    "verify_flow_decomposition",
    "decomposition_to_json",
]

# A cycle is a tuple of distinct node indices, canonically rotated so the
# smallest index comes first.  Rotations are identified; reversals are not.
Cycle = tuple[int, ...]


def canonical_cycle(seq) -> Cycle:
    """Canonical rotation of a simple cycle: smallest node index first."""
    seq = tuple(int(v) for v in seq)
    if not seq:
        raise ValueError("empty cycle")
    if len(set(seq)) != len(seq):
        raise ValueError(f"not a simple cycle: {seq}")
    k = seq.index(min(seq))
    return seq[k:] + seq[:k]


def reverse_cycle(cycle: Cycle) -> Cycle:
    """The same cycle walked in the opposite orientation, re-canonicalized."""
    cycle = canonical_cycle(cycle)
    return canonical_cycle((cycle[0],) + tuple(reversed(cycle[1:])))


@dataclass(frozen=True)
class CycleDecomposition:
    """A collection of simple cycles with strictly positive weights.

    `kind` records the provenance ("sampled" or "iterative"); sampled
    decompositions also carry the per-cycle completion counts and the
    trajectory length T used to normalize them.
    """

    weights: dict
    kind: str
    n_nodes: int
    counts: dict | None = None
    T: int | None = None
    tol: float | None = None
    nodes: tuple[str, ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        for c, w in self.weights.items():
            if not w > 0.0:
                raise ValueError(f"cycle {c} has non-positive weight {w}")

    @cached_property
    def cycles(self) -> list[Cycle]:
        """Cycles in canonical (lexicographic) order, the order of the arrays `w`,
        `lengths`, `members` (their nodes, concatenated) and `rows` (each member's cycle)."""
        return sorted(self.weights)

    @cached_property
    def w(self) -> np.ndarray:
        return np.array([self.weights[c] for c in self.cycles], dtype=float)

    @cached_property
    def lengths(self) -> np.ndarray:
        return np.array([len(c) for c in self.cycles], dtype=np.intp)

    @cached_property
    def members(self) -> np.ndarray:
        return np.fromiter(chain.from_iterable(self.cycles), dtype=np.intp,
                           count=int(self.lengths.sum()))

    @cached_property
    def rows(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.cycles)), self.lengths)

    def weight(self, cycle) -> float:
        return self.weights.get(canonical_cycle(cycle), 0.0)

    def node_mass(self) -> np.ndarray:
        """Per-node sum of weights of the cycles through it (~ stationary mass)."""
        return np.bincount(self.members, weights=np.repeat(self.w, self.lengths),
                           minlength=self.n_nodes)

    def node_ids(self, cycle: Cycle):
        if self.nodes is None:
            return [str(v) for v in cycle]
        return [self.nodes[v] for v in cycle]


def sample_decomposition(traj: Trajectory | Walk, n_nodes: int | None = None) -> CycleDecomposition:
    """Cycle counts of a walk realization, by loop erasure.

    An auxiliary chain holds the loop-erased past of the walk.  Each new
    state is appended; when the current state X_i already sits at position p
    of the chain, the segment after p closed a cycle: it is recorded as
    (X_i, eta_{p+1}, ..., eta_l) and erased, leaving the chain ending at X_i.
    Closures are counted by that raw tuple and canonicalized once per distinct
    tuple afterwards, merging counts in first-seen order: a cycle's key sits
    where the first closure of any of its rotations fell.  Weights are
    completion counts divided by the trajectory length.

    Parameters
    ----------
    traj : Trajectory or Walk
        Walk realization (indices), or a walk still to be drawn, which is
        erased chunk by chunk as it is drawn and never held whole.  Must have
        at least 2 states, each in 0..n_nodes-1.
    n_nodes : int, optional
        Size of the index space; defaults to the walk's number of states, or
        to len(traj.nodes) or max index + 1 for a Trajectory.
    """
    T = traj.length
    if T < 2:
        raise ValueError("trajectory must contain at least 2 states")
    if isinstance(traj, Walk):
        lo, hi = 0, traj.n - 1
        n_nodes = traj.n if n_nodes is None else n_nodes
        first, states = traj.start, chain.from_iterable(traj.chunks())
    else:
        lo, hi = int(traj.states.min()), int(traj.states.max())
        if n_nodes is None:
            n_nodes = len(traj.nodes) if traj.nodes is not None else hi + 1
        states = traj.states.tolist()
        first, states = states[0], islice(states, 1, None)
    if lo < 0 or hi >= n_nodes:
        raise ValueError(f"trajectory states span {lo}..{hi}, outside 0..{n_nodes - 1}")

    raw: dict[tuple[int, ...], int] = {}
    # the chain is eta[:L]; it holds each node at most once, so n_nodes slots suffice
    eta = [first] * n_nodes
    L = 1
    pos = [-1] * n_nodes  # each node's position in the chain, -1 when off it
    pos[first] = 0
    for x in states:
        p = pos[x]
        if p < 0:
            pos[x] = L
            eta[L] = x
            L += 1
            continue
        c = tuple(eta[p:L])  # x itself sits at position p: c is (x, eta_{p+1}, ..., eta_l)
        raw[c] = raw.get(c, 0) + 1
        for y in c:
            pos[y] = -1
        pos[x] = p
        L = p + 1
        # the chain still ends at the walker's current node x (position p)
    counts: dict[Cycle, int] = {}
    for c, k in raw.items():
        i = c.index(min(c))  # the chain holds each node once, so c is simple
        c = c[i:] + c[:i]
        counts[c] = counts.get(c, 0) + k
    dec = CycleDecomposition(weights={c: k / T for c, k in counts.items()},
                             counts=counts, kind="sampled", T=T, n_nodes=n_nodes,
                             nodes=traj.nodes)
    # each step closes at most one cycle, so the counted steps cannot exceed T
    closed = round(float(dec.lengths @ dec.w) * T)
    if closed > T:
        raise RuntimeError(f"loop erasure counted {closed} cycle steps in {T} states")
    return dec


def merge_decompositions(decs) -> CycleDecomposition:
    """Merge sampled decompositions from independent trajectories.

    Counts add, lengths add; the merge is associative and independent of
    input order.
    """
    decs = list(decs)
    if not decs:
        raise ValueError("nothing to merge")
    if any(d.kind != "sampled" or d.counts is None or d.T is None for d in decs):
        raise ValueError("can only merge sampled decompositions")
    n_nodes = decs[0].n_nodes
    nodes = decs[0].nodes
    if any(d.n_nodes != n_nodes or d.nodes != nodes for d in decs):
        raise ValueError("decompositions live on different node sets")
    counts: dict[Cycle, int] = {}
    total = 0
    for d in decs:
        total += d.T
        for c, k in d.counts.items():
            counts[c] = counts.get(c, 0) + k
    weights = {c: k / total for c, k in counts.items()}
    return CycleDecomposition(weights=weights, counts=counts, kind="sampled",
                              T=total, n_nodes=n_nodes, nodes=nodes)


def iterative_decomposition(F: np.ndarray, tol: float | None = None,
                            nodes: tuple[str, ...] | None = None) -> CycleDecomposition:
    """Deterministically peel simple cycles off a conservative flow.

    Repeatedly walks from the smallest-index node that still has residual
    out-flow, always following the largest-residual out-edge (ties broken by
    node index), until some node repeats; the cycle closed this way is
    extracted with weight min over its edges of the residual flow, which is
    then subtracted.  Terminates when every residual entry is below `tol`.

    The default tolerance is 1e-12 times the largest initial flow, raised to
    eight times the flow's own conservation error: entries below that level
    are rounding dust, not extractable circulation.

    Raises ValueError if F is not conservative at every node.
    """
    F = np.asarray(F, dtype=float)
    n = F.shape[0]
    if F.shape != (n, n):
        raise ValueError("flow must be a square matrix")
    if np.any(F < 0):
        raise ValueError("flow entries must be non-negative")
    fmax = float(F.max())
    if fmax <= 0:
        raise ValueError("flow is identically zero")
    cons = flow_conservation_residual(F)
    if cons > 1e-8 * fmax:
        raise ValueError(f"flow is not conservative (residual {cons:.3e})")
    if tol is None:
        tol = max(1e-12 * fmax, 8.0 * cons)

    # Out-edge lists of the support: node x's edges are the slots
    # start[x]:start[x+1] in ascending column order, holding the residual.
    # Off the support the residual is 0, so a dense argmax picks the same edge.
    rows, cols = np.nonzero(F)
    res, cols = F[rows, cols].tolist(), cols.tolist()
    start = np.searchsorted(rows, np.arange(n + 1)).tolist()

    weights: dict[Cycle, float] = {}
    max_steps = 2 * len(res) + n + 1
    first = 0  # residuals only shrink, so the smallest live node never moves back
    path: list[int] = []
    for _ in range(max_steps):
        while first < n and max(res[start[first]:start[first + 1]], default=0.0) <= tol:
            first += 1
        if first == n:
            break
        if not path or path[0] != first:
            path, seen, slots = [first], {first: 0}, []
        x = path[-1]
        while True:
            k = max(range(start[x], start[x + 1]), key=res.__getitem__, default=-1)
            if k < 0 or res[k] <= 0.0:
                # walked onto non-conservative dust; drop the inbound edge
                if not slots or res[slots[-1]] > tol:
                    raise RuntimeError(
                        "residual flow lost conservation during peeling")
                res[slots[-1]] = 0.0
                path = []
                break
            slots.append(k)
            y = cols[k]
            if y in seen:
                i = seen[y]
                j = path.index(min(path[i:]), i)  # path[i:] is simple: rotate its min first
                cyc = tuple(path[j:] + path[i:j])
                w = min(res[k] for k in slots[i:])
                for k in slots[i:]:
                    res[k] -= w
                if w > tol:
                    weights[cyc] = weights.get(cyc, 0.0) + w
                # the rows before y are untouched, so a walk from `first`
                # would retrace them: resume it at y
                for v in path[i + 1:]:
                    del seen[v]
                del path[i + 1:], slots[i:]
                break
            seen[y] = len(path)
            path.append(y)
            x = y
    else:
        raise RuntimeError("cycle peeling did not terminate")
    return CycleDecomposition(weights=weights, kind="iterative", n_nodes=n,
                              tol=tol, nodes=nodes)


def verify_flow_decomposition(dec: CycleDecomposition, F: np.ndarray) -> float:
    """Max over matrix entries of |F - sum of cycle weights through the edge|."""
    F = np.asarray(F, dtype=float)
    n = F.shape[0]
    # each member's successor on its cycle: the next entry, wrapping at the cycle's end
    nxt = np.arange(1, dec.members.size + 1)
    ends = np.cumsum(dec.lengths) - 1
    nxt[ends] = ends + 1 - dec.lengths
    S = np.bincount(dec.members * n + dec.members[nxt], weights=np.repeat(dec.w, dec.lengths),
                    minlength=n * n).reshape(n, n)
    return float(np.max(np.abs(F - S)))


def _json_floats(xs: list[float]) -> list[str]:
    """Each float as `json` writes it: its repr, or Infinity, -Infinity and NaN."""
    if all(map(math.isfinite, xs)):
        return repr(xs)[1:-1].split(", ") if xs else []
    return [json.dumps(x) for x in xs]


def _json_document(obj: dict, lists: dict[str, list[str]]) -> str:
    """The text of `json.dumps(lists | obj, sort_keys=True, indent=2) + "\n"`, where each
    value of `lists` is a list given as its entries' JSON text at the 4-space indent.

    The values of `obj` are dumped one by one and shifted in by two spaces; JSON text
    holds no raw newline inside a string, so each of its lines is a line of the layout.
    """
    merged = {**lists, **obj}
    members = []
    for key in sorted(merged):
        if key in obj:
            text = "\n  ".join(json.dumps(obj[key], sort_keys=True, indent=2).split("\n"))
        else:
            text = "[\n" + ",\n".join(lists[key]) + "\n  ]" if lists[key] else "[]"
        members.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(members) + "\n}\n"


def decomposition_to_json(dec: CycleDecomposition, extra: dict | None = None) -> str:
    """JSON export: cycles sorted by weight descending, then canonical order.

    The text is that of `json.dumps(obj, sort_keys=True, indent=2)`, with `obj` holding
    `kind`, `n_nodes`, `T` (sampled), the cycle list and then `extra`'s keys; each cycle
    entry has its node ids, its weight and, when sampled, its count.  The cycle list is
    rendered in bulk, each node id quoted once and all weights formatted in one repr.
    """
    order = sorted(dec.weights, key=lambda c: (-dec.weights[c], c))
    quoted = [json.dumps(v) for v in dec.node_ids(range(dec.n_nodes))]
    weights = _json_floats([float(dec.weights[c]) for c in order])
    members = [",\n        ".join([quoted[v] for v in c]) for c in order]
    if dec.counts is None:
        items = [f'    {{\n      "cycle": [\n        {m}\n      ],\n      "weight": {w}\n    }}'
                 for m, w in zip(members, weights)]
    else:
        counts = [dec.counts.get(c, 0) for c in order]
        items = [f'    {{\n      "count": {k},\n      "cycle": [\n        {m}\n      ],'
                 f'\n      "weight": {w}\n    }}' for k, m, w in zip(counts, members, weights)]
    obj = {"kind": dec.kind, "n_nodes": dec.n_nodes}
    if dec.T is not None:
        obj["T"] = dec.T
    if extra:
        obj.update(extra)
    return _json_document(obj, {"cycles": items})
