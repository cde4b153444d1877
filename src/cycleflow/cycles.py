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
from functools import cached_property
from itertools import chain

import numpy as np

from ._floattext import reprs
from .graph import _WALK_CHUNK, Trajectory, Walk, _node_ids, flow_conservation_residual

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

# The bytes of distinct excursions `sample_decomposition` holds before erasing them:
# its memory stays bounded on a walk whose excursions never repeat.
_EXCURSION_BYTES = 16 * _WALK_CHUNK


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
    `counts` (cycle -> weight or count, in the same order) are views built on
    first access, so a command that needs only the arrays never builds a tuple.

    Every builder, this dict constructor, the sampler, the merge and the peel,
    hands its cycles to one canonicalizer: rotations of a cycle are identified
    and their weights and counts add up.  Keys that are not simple cycles on
    the nodes 0..n_nodes-1, counts not keyed exactly as the weights, and node ids
    that are not one per node, are refused; `nodes` left None names each node by its
    index.
    """

    def __init__(self, weights: dict, kind: str, n_nodes: int, counts: dict | None = None,
                 T: int | None = None, tol: float | None = None,
                 nodes: tuple[str, ...] | None = None):
        for c, w in weights.items():
            if not w > 0.0:
                raise ValueError(f"cycle {c} has non-positive weight {w}")
            if not c or len(set(c)) != len(c) or min(c) < 0 or max(c) >= n_nodes:
                raise ValueError(f"cycle {c} is not a simple cycle on nodes 0..{n_nodes - 1}")
        if counts is not None and counts.keys() != weights.keys():
            raise ValueError("counts must be keyed exactly as weights")
        lengths = np.fromiter(map(len, weights), dtype=np.intp, count=len(weights))
        self._build(np.fromiter(chain.from_iterable(weights), dtype=np.intp,
                                count=int(lengths.sum())), lengths, kind, n_nodes,
                    w=np.fromiter(weights.values(), dtype=float, count=len(weights)),
                    k=None if counts is None else np.fromiter(
                        (counts[c] for c in weights), dtype=np.int64, count=len(weights)),
                    T=T, tol=tol, nodes=nodes)

    def _build(self, flat, lengths, kind, n_nodes, *, w=None, k=None, T=None, tol=None,
               nodes=None) -> CycleDecomposition:
        """Fill the decomposition from rows of simple cycles with per-row weights `w`
        and counts `k`, and return it.

        Row i of the ragged array (`flat`, `lengths`) is a cycle in any rotation, and
        one cycle may fill several rows: its rows' values add up, in row order.
        Without `w`, the weights are the summed counts divided by T.
        """
        self.kind, self.n_nodes, self.T, self.tol = kind, n_nodes, T, tol
        self.nodes = _node_ids(nodes, n_nodes)
        self.members, self.lengths, which = _canonicalize(flat, lengths, n_nodes)

        def total(values):
            out = np.zeros(self.lengths.size, dtype=values.dtype)
            np.add.at(out, which, values)
            return out

        self.k = None if k is None else total(k)
        self.w = self.k / T if w is None else total(w)
        return self

    @cached_property
    def cycles(self) -> list[Cycle]:
        flat = self.members.tolist()
        ends = np.cumsum(self.lengths).tolist()
        return [tuple(flat[a:b]) for a, b in zip([0, *ends], ends)]

    @cached_property
    def weights(self) -> dict:
        return dict(zip(self.cycles, self.w.tolist()))

    @cached_property
    def counts(self) -> dict | None:
        return None if self.k is None else dict(zip(self.cycles, self.k.tolist()))

    @cached_property
    def rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.lengths.size), self.lengths)

    def uncovered_error(self, x: int) -> ValueError:
        """The error for node index x lying on no cycle of the decomposition."""
        hint = "; a longer walk (a larger --T) may reach it" if self.kind == "sampled" else ""
        return ValueError(f"node {self.nodes[x]!r} is covered by no cycle, so the "
                          f"decomposition does not span the graph{hint}")

    def weight(self, cycle) -> float:
        return self.weights.get(canonical_cycle(cycle), 0.0)

    def node_mass(self) -> np.ndarray:
        """Per-node sum of weights of the cycles through it (~ stationary mass)."""
        return np.bincount(self.members, weights=np.repeat(self.w, self.lengths),
                           minlength=self.n_nodes)


def sample_decomposition(traj: Trajectory | Walk) -> CycleDecomposition:
    """Cycle counts of a walk realization, by loop erasure.

    An auxiliary chain holds the loop-erased past of the walk.  Each new
    state is appended; when the current state X_i already sits at position p
    of the chain, the segment after p closed a cycle: it is recorded as
    (X_i, eta_{p+1}, ..., eta_l) and erased, leaving the chain ending at X_i.
    Closures are counted by that raw sequence; the distinct ones then go to
    the decomposition's canonicalizer, which adds up the counts of a cycle's
    rotations.  Weights are completion counts divided by the trajectory
    length.

    The first state never leaves the bottom of the chain, so each return to
    it erases the chain back to that state alone: the walk splits there into
    excursions, each closing the same cycles wherever it occurs.  The states
    stream in chunks as fixed-width bytes, one byte per node up to 256 nodes;
    the complete excursions, each ending at its return, are counted by their
    bytes, and each distinct one is erased once, its closures counted as
    often as it occurred.  The counted excursions are erased whenever their
    bytes pass `_EXCURSION_BYTES`, and an open excursion that long is erased
    as it streams, so memory stays bounded whether or not excursions repeat.
    The open tail is erased last; it closes no cycle at its end.

    Parameters
    ----------
    traj : Trajectory or Walk
        Walk realization (indices), or a walk still to be drawn, which is
        erased chunk by chunk as it is drawn and never held whole.  Must have
        at least 2 states.  The index space is the walk's own `nodes`.
    """
    T = traj.length
    if T < 2:
        raise ValueError("trajectory must contain at least 2 states")
    n_nodes = len(traj.nodes)
    code = np.min_scalar_type(n_nodes - 1)  # a node's fixed-width, native-order code
    if code.itemsize == 1:  # bytes yield their values, and a bytearray is the fastest chain
        eta, decode, encode = bytearray(n_nodes), bytes, bytes
    else:
        eta = memoryview(bytearray(code.itemsize * n_nodes)).cast(code.char)
        decode = lambda data: memoryview(data).cast(code.char)  # noqa: E731
        encode = lambda states: np.array(states, dtype=code).tobytes()  # noqa: E731
    if isinstance(traj, Walk):
        first = traj.start
        chunks = map(encode, traj.chunks())
    else:
        first = int(traj.states[0])
        chunks = (traj.states[lo:lo + _WALK_CHUNK].astype(code).tobytes()
                  for lo in range(1, T, _WALK_CHUNK))

    raw: dict[bytes, int] = {}
    # the chain is eta[:L]; it holds each node at most once, so n_nodes slots suffice
    eta[0] = first
    closure = memoryview(eta)  # its slices give the closures' bytes
    # pos[x] is where x last joined the chain; x is still on it iff that slot
    # lies below L and holds x, so an erasure leaves pos untouched.  Nodes
    # never on the chain start at n_nodes, which is never below L.
    pos = [n_nodes] * n_nodes
    pos[first] = 0

    def erase(data: bytes, k: int = 1, L: int = 1) -> int:
        """Run the coded states in `data` through the chain eta[:L], counting each
        closure k times; return the chain's new length."""
        for x in decode(data):
            p = pos[x]
            if p >= L or eta[p] != x:
                pos[x] = L
                eta[L] = x
                L += 1
                continue
            c = closure[p:L].tobytes()  # x itself sits at p: c is (x, eta_{p+1}, ..., eta_l)
            raw[c] = raw.get(c, 0) + k
            L = p + 1
            # the chain still ends at the walker's current node x (position p)
        return L

    excursions: dict[bytes, int] = {}  # each complete excursion, ending at its return -> count
    held = 0  # the bytes of the keys of `excursions`
    tail: list[bytes] = []  # the open excursion's pieces, while it is held
    carried = 0  # the bytes in `tail`
    live = 0  # the chain's length while the open excursion is erased as it streams, else 0

    def flush():
        nonlocal held
        for e, k in excursions.items():
            erase(e, k)  # from the first state alone, back to it
        excursions.clear()
        held = 0

    for buf in chunks:
        # each return to the first state ends an excursion: its end is just past that state
        ends = ((np.flatnonzero(np.frombuffer(buf, dtype=code) == first) + 1)
                * code.itemsize).tolist()
        # the excursions that end in this chunk, the first continuing the open one
        whole = map(buf.__getitem__, map(slice, [0, *ends], ends))
        if ends:
            head = next(whole)
            if live:
                erase(head, 1, live)
                live = 0
            else:
                whole = chain([b"".join([*tail, head])], whole)
            tail, carried = [], 0
        for e in whole:
            k = excursions.get(e)
            if k:
                excursions[e] = k + 1
                continue
            excursions[e] = 1
            held += len(e)
            if held > _EXCURSION_BYTES:
                flush()
        rest = buf[ends[-1] if ends else 0:]  # opens the next excursion
        if live:
            live = erase(rest, 1, live)
        else:
            tail.append(rest)
            carried += len(rest)
            if carried > _EXCURSION_BYTES:
                flush()  # frees the chain for the open excursion
                live = erase(b"".join(tail))
                tail, carried = [], 0
    flush()  # while live, `excursions` is empty and `tail` too
    erase(b"".join(tail))

    lengths = np.fromiter(map(len, raw), dtype=np.intp, count=len(raw)) // code.itemsize
    k = np.fromiter(raw.values(), dtype=np.int64, count=len(raw))
    # each step closes at most one cycle, so the counted steps cannot exceed T
    closed = int(lengths @ k)
    if closed > T:
        raise RuntimeError(f"loop erasure counted {closed} cycle steps in {T} states")
    flat = np.frombuffer(b"".join(raw), dtype=code)
    return CycleDecomposition.__new__(CycleDecomposition)._build(
        flat, lengths, "sampled", n_nodes, k=k, T=T, nodes=traj.nodes)


def _canonicalize(flat, lengths, n_nodes: int):
    """The distinct cycles among the rows of a ragged array, in canonical order.

    Row i of (`flat`, `lengths`) is a simple cycle on the nodes 0..n_nodes-1 in
    any rotation; one cycle may fill several rows.  Each row is rotated to start
    at its smallest node, and the distinct cycles are put in the order of their
    tuples.  Returns their `members` and `lengths`, and each row's cycle.
    """
    starts = np.cumsum(lengths) - lengths
    # a row's nodes are distinct, so its smallest one matches exactly once
    mins = np.minimum.reduceat(flat, starts) if lengths.size else flat
    shift = np.flatnonzero(flat == np.repeat(mins, lengths)) - starts
    src = np.arange(flat.size) + np.repeat(shift, lengths)
    src -= np.repeat(lengths, lengths) * (src >= np.repeat(starts + lengths, lengths))
    # Fixed-width big-endian node indices compare bytewise as the indices do, so
    # each row's bytes sort as the tuples: memcmp order, a prefix first.
    code = np.min_scalar_type(max(n_nodes - 1, 0)).newbyteorder(">")
    data = flat[src].astype(code).tobytes()
    cuts = (code.itemsize * starts).tolist()
    group: dict[bytes, int] = {}  # each cycle's key -> its number, in first-seen order
    g = np.fromiter((group.setdefault(data[a:b], len(group))
                     for a, b in zip(cuts, cuts[1:] + [len(data)])),
                    dtype=np.intp, count=lengths.size)
    keys = list(group)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rank = np.empty(len(keys), dtype=np.intp)
    rank[order] = np.arange(len(keys))
    keys = [keys[i] for i in order]
    return (np.frombuffer(b"".join(keys), dtype=code).astype(np.intp),
            np.fromiter(map(len, keys), dtype=np.intp, count=len(keys)) // code.itemsize, rank[g])


def merge_decompositions(decs) -> CycleDecomposition:
    """Merge sampled decompositions from independent trajectories.

    Counts add, lengths add; the result is independent of the order and
    nesting of the parts.
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
    return CycleDecomposition.__new__(CycleDecomposition)._build(
        np.concatenate([d.members for d in decs]), np.concatenate([d.lengths for d in decs]),
        "sampled", n_nodes, k=np.concatenate([d.k for d in decs]), T=sum(d.T for d in decs),
        nodes=nodes)


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

    flat, lengths, weights = [], [], []  # each cycle extracted above tol, as closed
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
                w = min([R[v][s] for v, s in zip(path[i:], out[i:])])
                for v, s in zip(path[i:], out[i:]):
                    R[v][s] -= w
                if w > tol:
                    flat += path[i:]
                    lengths.append(len(path) - i)
                    weights.append(w)
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
    return CycleDecomposition.__new__(CycleDecomposition)._build(
        np.array(flat, dtype=np.intp), np.array(lengths, dtype=np.intp), "iterative", n,
        w=np.array(weights), tol=tol, nodes=nodes)


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


def _json_floats(x: np.ndarray) -> list[str]:
    """Each float as `json` writes it: its repr, or Infinity, -Infinity and NaN."""
    texts = reprs(x)
    for i in np.flatnonzero(~np.isfinite(x)).tolist():
        texts[i] = json.dumps(float(x[i]))
    return texts


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
    quoted = [json.dumps(v) for v in dec.nodes]
    ids = np.array(quoted, dtype=object)[dec.members].tolist()
    ends = np.cumsum(dec.lengths)
    starts, ends = (ends - dec.lengths).tolist(), ends.tolist()  # each cycle's slice of ids
    # sampled weights are count / T: few distinct values
    values, which = np.unique(dec.w, return_inverse=True)
    weights = np.array(_json_floats(values), dtype=object)[which[order]].tolist()
    counts = ([""] * order.size if dec.k is None
              else [f'"count": {k},\n      ' for k in dec.k[order].tolist()])
    sep = ",\n        "
    entries = [f'    {{\n      {c}"cycle": [\n        {sep.join(ids[starts[i]:ends[i]])}\n'
               f'      ],\n      "weight": {w}\n    }}'
               for i, c, w in zip(order.tolist(), counts, weights)]
    return _json_document(obj, "cycles", entries)
