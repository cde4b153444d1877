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
from functools import cached_property
from itertools import chain, islice

import numpy as np

from .graph import Trajectory, Walk, flow_conservation_residual

__all__ = [
    "Cycle",
    "canonical_cycle",
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


class CycleDecomposition:
    """A collection of simple cycles with strictly positive weights.

    `kind` records the provenance ("sampled" or "iterative"); sampled
    decompositions also carry the per-cycle completion counts and the
    trajectory length T used to normalize them.

    The cycle set is held as arrays in canonical order, the order of the cycle
    tuples: `w` the weights, `k` the completion counts (None when not counted),
    `lengths`, `members` the cycles' nodes concatenated and `rows` each member's
    cycle.  `cycles` (the tuples in that order) and the dicts `weights` and
    `counts` (cycle -> weight or count, in the order the cycles were first seen)
    are views built on first access.  Constructed from dicts, as the peel and
    callers holding dicts do, the dicts given are the views; the sampler and the
    merge build the arrays alone, so a command that needs only the arrays never
    builds a tuple.
    """

    def __init__(self, weights: dict, kind: str, n_nodes: int, counts: dict | None = None,
                 T: int | None = None, tol: float | None = None,
                 nodes: tuple[str, ...] | None = None):
        for c, w in weights.items():
            if not w > 0.0:
                raise ValueError(f"cycle {c} has non-positive weight {w}")
        cycles = sorted(weights)
        lengths = np.fromiter(map(len, cycles), dtype=np.intp, count=len(cycles))
        rank = dict(zip(cycles, range(len(cycles))))
        self._set(kind, n_nodes, T, tol, nodes,
                  members=np.fromiter(chain.from_iterable(cycles), dtype=np.intp,
                                      count=int(lengths.sum())),
                  lengths=lengths,
                  w=np.array([weights[c] for c in cycles], dtype=float),
                  k=None if counts is None else np.array([counts.get(c, 0) for c in cycles],
                                                         dtype=np.int64),
                  seen=np.fromiter(map(rank.__getitem__, weights), dtype=np.intp,
                                   count=len(cycles)))
        self.weights, self.counts, self.cycles = weights, counts, cycles

    @classmethod
    def _sampled(cls, members, lengths, k, seen, T: int, n_nodes: int,
                 nodes) -> CycleDecomposition:
        """A sampled decomposition from its arrays; `seen` lists the rows in the
        order their cycles were first seen."""
        dec = cls.__new__(cls)
        dec._set("sampled", n_nodes, T, None, nodes, members=members, lengths=lengths,
                 w=k / T, k=k, seen=seen)
        return dec

    def _set(self, kind, n_nodes, T, tol, nodes, *, members, lengths, w, k, seen):
        self.kind, self.n_nodes, self.T, self.tol, self.nodes = kind, n_nodes, T, tol, nodes
        self.members, self.lengths, self.w, self.k, self._seen = members, lengths, w, k, seen

    @cached_property
    def cycles(self) -> list[Cycle]:
        flat = self.members.tolist()
        ends = np.cumsum(self.lengths).tolist()
        return [tuple(flat[a:b]) for a, b in zip([0, *ends], ends)]

    def _first_seen(self, values: np.ndarray) -> dict:
        """cycle -> value, in the order the cycles were first seen."""
        return dict(zip(map(self.cycles.__getitem__, self._seen.tolist()),
                        values[self._seen].tolist()))

    @cached_property
    def weights(self) -> dict:
        return self._first_seen(self.w)

    @cached_property
    def counts(self) -> dict | None:
        return None if self.k is None else self._first_seen(self.k)

    @cached_property
    def rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.lengths.size), self.lengths)

    def uncovered_error(self, x: int) -> ValueError:
        """The error for node index x lying on no cycle of the decomposition."""
        hint = "; a longer walk (a larger --T) may reach it" if self.kind == "sampled" else ""
        return ValueError(f"node {self.node_ids([x])[0]!r} is covered by no cycle, so the "
                          f"decomposition does not span the graph{hint}")

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
    Closures are counted by that raw tuple; the distinct tuples are then
    rotated, merged and ordered in numpy, straight into the decomposition's
    arrays.  The `counts` view keeps first-seen order: a cycle's key sits
    where the first closure of any of its rotations fell.  Weights are
    completion counts divided by the trajectory length.

    Drawing and erasing are one loop: each step goes from x to `rows[x][g]`,
    over a Walk's table and bins (see `Walk`), or over a stored Trajectory's
    states as the bins and one shared identity row.

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
        first, rows, bins = traj.start, traj.rows, chain.from_iterable(traj.bins())
    else:
        lo, hi = int(traj.states.min()), int(traj.states.max())
        if n_nodes is None:
            n_nodes = len(traj.nodes) if traj.nodes is not None else hi + 1
        states = traj.states.tolist()
        first, bins = states[0], islice(states, 1, None)
        rows = [list(range(n_nodes))] * n_nodes  # a stored state is its own bin, from any node
    if lo < 0 or hi >= n_nodes:
        raise ValueError(f"trajectory states span {lo}..{hi}, outside 0..{n_nodes - 1}")

    raw: dict[tuple[int, ...], int] = {}
    # the chain is eta[:L]; it holds each node at most once, so n_nodes slots suffice
    eta = [first] * n_nodes
    L = 1
    # pos[x] is where x last joined the chain; x is still on it iff that slot
    # lies below L and holds x, so an erasure leaves pos untouched.  Nodes
    # never on the chain start at n_nodes, which is never below L.
    pos = [n_nodes] * n_nodes
    pos[first] = 0
    x = first
    for g in bins:
        x = rows[x][g]
        p = pos[x]
        if p >= L or eta[p] != x:
            pos[x] = L
            eta[L] = x
            L += 1
            continue
        c = tuple(eta[p:L])  # x itself sits at position p: c is (x, eta_{p+1}, ..., eta_l)
        raw[c] = raw.get(c, 0) + 1
        L = p + 1
        # the chain still ends at the walker's current node x (position p)
    lengths = np.fromiter(map(len, raw), dtype=np.intp, count=len(raw))
    k = np.fromiter(raw.values(), dtype=np.int64, count=len(raw))
    # each step closes at most one cycle, so the counted steps cannot exceed T
    closed = int(lengths @ k)
    if closed > T:
        raise RuntimeError(f"loop erasure counted {closed} cycle steps in {T} states")
    flat = np.fromiter(chain.from_iterable(raw), dtype=np.intp, count=int(lengths.sum()))
    return _tally(flat, lengths, k, T, n_nodes, traj.nodes)


def _take_rows(lengths: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Indices of the members of rows `order` of a ragged array with row `lengths`,
    row after row."""
    starts = np.cumsum(lengths) - lengths
    sel = lengths[order]
    return np.repeat(starts[order] - (np.cumsum(sel) - sel), sel) + np.arange(int(sel.sum()))


def _tally(flat, lengths, k, T: int, n_nodes: int, nodes) -> CycleDecomposition:
    """The sampled decomposition of closures counted `k` times in T states.

    Row i of the ragged array (`flat`, `lengths`) is a simple cycle in any
    rotation, and rows come in the order first seen; a cycle may fill several
    rows.  Each row is rotated to start at its smallest node, rows of one cycle
    are counted together where the earliest of them sits, and the cycles are
    put in the order of their tuples.
    """
    starts = np.cumsum(lengths) - lengths
    # a row's nodes are distinct, so its smallest one matches exactly once
    mins = np.minimum.reduceat(flat, starts) if lengths.size else flat
    shift = np.flatnonzero(flat == np.repeat(mins, lengths)) - starts
    src = np.arange(flat.size) + np.repeat(shift, lengths)
    src -= np.repeat(lengths, lengths) * (src >= np.repeat(starts + lengths, lengths))
    canon = flat[src]
    # Fixed-width big-endian node indices compare bytewise as the indices do, so
    # each row's bytes, read as latin-1 text (one character per byte), sort as the
    # tuples: memcmp order, a prefix first.
    width = 2 if n_nodes <= 1 << 16 else 4
    text = canon.astype(f">u{width}").tobytes().decode("latin-1")
    cuts = (width * starts).tolist()
    group: dict[str, int] = {}  # each cycle's key -> its number, in first-seen order
    g = np.fromiter((group.setdefault(text[a:b], len(group))
                     for a, b in zip(cuts, cuts[1:] + [len(text)])),
                    dtype=np.intp, count=lengths.size)
    keys = list(group)
    order = np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.intp)
    counts = np.zeros(len(keys), dtype=np.int64)
    np.add.at(counts, g, k)
    first = np.unique(g, return_index=True)[1][order]  # the earliest row of each cycle
    seen = np.empty_like(order)
    seen[order] = np.arange(order.size)
    return CycleDecomposition._sampled(canon[_take_rows(lengths, first)], lengths[first],
                                       counts[order], seen, T, n_nodes, nodes)


def merge_decompositions(decs) -> CycleDecomposition:
    """Merge sampled decompositions from independent trajectories.

    Counts add, lengths add; the weights are associative and independent of
    input order.  The dict views list the cycles as first seen part by part.
    """
    decs = list(decs)
    if not decs:
        raise ValueError("nothing to merge")
    if any(d.kind != "sampled" or d.k is None or d.T is None for d in decs):
        raise ValueError("can only merge sampled decompositions")
    n_nodes = decs[0].n_nodes
    nodes = decs[0].nodes
    if any(d.n_nodes != n_nodes or d.nodes != nodes for d in decs):
        raise ValueError("decompositions live on different node sets")
    flat = np.concatenate([d.members[_take_rows(d.lengths, d._seen)] for d in decs])
    lengths = np.concatenate([d.lengths[d._seen] for d in decs])
    k = np.concatenate([d.k[d._seen] for d in decs])
    return _tally(flat, lengths, k, sum(d.T for d in decs), n_nodes, nodes)


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

    Raises ValueError unless F is finite, non-negative and conservative.
    """
    F = np.asarray(F, dtype=float)
    n = F.shape[0]
    if F.shape != (n, n):
        raise ValueError("flow must be a square matrix")
    if not np.isfinite(F).all():
        raise ValueError("flow entries must be finite")
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

    # Out-edge lists of the support, columns ascending: residuals R[x] and columns C[x].
    # Off it the residual is 0, so R[x]'s first maximum is the dense argmax.  A node
    # without out-edges gets R[x] = [0.0], dust, so max() needs no (slow) default.
    rows, cols = np.nonzero(F)
    cut = np.searchsorted(rows, np.arange(n + 1)).tolist()
    res, cols = F[rows, cols].tolist(), cols.tolist()
    R, C = zip(*[(res[a:b] or [0.0], cols[a:b]) for a, b in zip(cut, cut[1:])])

    weights: dict[Cycle, float] = {}
    first = 0  # residuals only shrink, so the smallest live node never moves back
    path, at = [], [-1] * n  # the walk, and each node's position on it (-1 off it)
    for _ in range(2 * len(rows) + n + 1):
        while first < n and max(R[first]) <= tol:
            first += 1
        if first == n:
            break
        if not path or path[0] != first:
            for v in path:
                at[v] = -1
            path, out, at[first] = [first], [], 0  # out[m]: the slot of R[path[m]] taken
        x = path[-1]
        while (r := max(R[x])) > 0.0:
            k = R[x].index(r)
            out.append(k)
            y = C[x][k]
            if (i := at[y]) >= 0:
                j = path.index(min(path[i:]), i)  # path[i:] is simple: rotate its min first
                cyc = tuple(path[j:] + path[i:j])
                w = min([R[v][s] for v, s in zip(path[i:], out[i:])])
                for v, s in zip(path[i:], out[i:]):
                    R[v][s] -= w
                if w > tol:
                    weights[cyc] = weights.get(cyc, 0.0) + w
                break
            at[y] = len(path)
            path.append(y)
            x = y
        else:  # walked onto non-conservative dust: drop the inbound edge, restart at `first`
            if not out or R[path[-2]][out[-1]] > tol:
                raise RuntimeError("residual flow lost conservation during peeling")
            R[path[-2]][out[-1]] = 0.0
            i = 0
        # walk on from path[i]: a walk from `first` would retrace the rows before it
        for v in path[i + 1:]:
            at[v] = -1
        del path[i + 1:], out[i:]
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


def _reprs(xs: list[float]) -> list[str]:
    """Each float's repr, cut from one repr of the whole list."""
    return repr(xs)[1:-1].split(", ") if xs else []


def _json_floats(xs: list[float]) -> list[str]:
    """Each float as `json` writes it: its repr, or Infinity, -Infinity and NaN."""
    if all(map(math.isfinite, xs)):
        return _reprs(xs)
    return [json.dumps(x) for x in xs]


def _json_document(obj: dict, key: str, entries: list[str]) -> str:
    """The text of `json.dumps({**obj, key: [...]}, sort_keys=True, indent=2) + "\n"`, where
    the list at `key` is given as its entries' JSON text at the 4-space indent.

    json lays out the document with null at `key`; deeper keys are indented further and
    JSON strings hold no raw newline, so that line occurs once.  The entries are spliced
    in there and all pieces joined once: the entries can run to megabytes.
    """
    line = f"\n  {json.dumps(key)}: "
    head, _, tail = json.dumps({**obj, key: None}, sort_keys=True, indent=2).partition(
        line + "null")
    if not entries:
        return f"{head}{line}[]{tail}\n"
    parts = [",\n"] * (2 * len(entries) - 1)
    parts[::2] = entries
    return "".join([head, line, "[\n", *parts, "\n  ]", tail, "\n"])


def decomposition_to_json(dec: CycleDecomposition, extra: dict | None = None) -> str:
    """JSON export: cycles sorted by weight descending, then canonical order.

    The text is that of `json.dumps(obj, sort_keys=True, indent=2)`, with `obj` holding
    `kind`, `n_nodes`, `T` (sampled), `extra`'s keys and the cycle list; each cycle
    entry has its node ids, its weight and, when sampled, its count.  Each node id is
    quoted once, and each distinct weight formatted once.
    """
    obj = {"kind": dec.kind, "n_nodes": dec.n_nodes}
    if dec.T is not None:
        obj["T"] = dec.T
    if extra:
        obj.update(extra)
    order = np.argsort(-dec.w, kind="stable")  # equal weights keep the canonical order
    quoted = [json.dumps(v) for v in dec.node_ids(range(dec.n_nodes))]
    ids = np.array(quoted, dtype=object)[dec.members].tolist()
    ends = np.cumsum(dec.lengths)
    starts, ends = (ends - dec.lengths).tolist(), ends.tolist()  # each cycle's slice of ids
    # sampled weights are count / T: few distinct values
    values, which = np.unique(dec.w, return_inverse=True)
    weights = np.array(_json_floats(values.tolist()), dtype=object)[which[order]].tolist()
    counts = ([""] * order.size if dec.k is None
              else [f'"count": {k},\n      ' for k in dec.k[order].tolist()])
    sep = ",\n        "
    entries = [f'    {{\n      {c}"cycle": [\n        {sep.join(ids[starts[i]:ends[i]])}\n'
               f'      ],\n      "weight": {w}\n    }}'
               for i, c, w in zip(order.tolist(), counts, weights)]
    return _json_document(obj, "cycles", entries)
