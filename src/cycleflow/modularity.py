"""Modularity scores on the directed graph and its communication graph.

Both objectives share one algebraic shape: sum over modules of the block sum
of (coupling - pi pi^T).  For the communication-graph score the coupling is
the symmetric intensity matrix; for the directed score it is the edge flux
pi_x p_xy, whose value on full partitions only depends on its symmetrization.
"""

from __future__ import annotations

import numpy as np

from .graph import edge_flow

__all__ = [
    "labels_from_modules",
    "modules_from_labels",
    "validate_partition",
    "score_qbar",
    "score_q_directed",
    "maximize",
    "check_symmetrization_invariance",
    "enumerate_set_partitions",
]

_EXHAUSTIVE_CAP = 12


def labels_from_modules(modules, n: int) -> np.ndarray:
    """Label vector from a list of node-index sets (a full partition)."""
    labels = np.full(n, -1, dtype=int)
    for j, mod in enumerate(modules):
        for x in mod:
            if labels[x] != -1:
                raise ValueError(f"node {x} assigned to two modules")
            labels[x] = j
    if np.any(labels < 0):
        raise ValueError("partition does not cover every node")
    return labels


def modules_from_labels(labels: np.ndarray) -> list[list[int]]:
    labels = np.asarray(labels)
    return [sorted(np.flatnonzero(labels == j).tolist())
            for j in np.unique(labels)]


def validate_partition(labels: np.ndarray, n: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=int)
    if labels.shape != (n,):
        raise ValueError(f"partition must assign all {n} nodes")
    if labels.min() < 0:
        raise ValueError("negative module label")
    return labels


def _block_score(E: np.ndarray, pi: np.ndarray, labels: np.ndarray) -> float:
    total = 0.0
    for j in np.unique(labels):
        idx = np.flatnonzero(labels == j)
        total += float(E[np.ix_(idx, idx)].sum() - pi[idx].sum() ** 2)
    return total


def score_qbar(I: np.ndarray, pi: np.ndarray, labels: np.ndarray) -> float:
    """Modularity of a full partition on the communication graph.

    Sum over modules of the intensity block sum (diagonal included) minus
    the squared stationary mass of the module.
    """
    I = np.asarray(I, dtype=float)
    pi = np.asarray(pi, dtype=float)
    labels = validate_partition(labels, len(pi))
    return _block_score(I, pi, labels)


def score_q_directed(P: np.ndarray, pi: np.ndarray, labels: np.ndarray) -> float:
    """Directed modularity: per-module sum of pi_x P_xy - pi_x pi_y."""
    pi = np.asarray(pi, dtype=float)
    labels = validate_partition(labels, len(pi))
    return _block_score(edge_flow(P, pi), pi, labels)


def _canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel modules by order of first appearance."""
    seen: dict[int, int] = {}
    out = np.empty_like(labels)
    for i, lab in enumerate(labels):
        if lab not in seen:
            seen[lab] = len(seen)
        out[i] = seen[lab]
    return out


def _greedy_maximize(E: np.ndarray, pi: np.ndarray):
    """Agglomerative merging from singletons, then one single-node sweep.

    E must be symmetric.  Each step takes the merge with the largest strictly
    positive score gain 2 * (E_ab - pi_a pi_b) on the aggregated system, ties
    broken by the smallest (module, module) index pair.  After merging stalls,
    one pass of best single-node moves is applied.
    """
    n = len(pi)
    # Slot a holds the module whose smallest member is a (b merges into a < b),
    # so live slots in index order are the modules ordered by smallest member.
    owner = np.arange(n)
    live = np.ones(n, dtype=bool)
    agg_e = E.copy()
    agg_pi = pi.copy()
    gains = 2.0 * (agg_e - np.outer(agg_pi, agg_pi))
    np.fill_diagonal(gains, -np.inf)
    # each row's best gain and its first column: the first row with the
    # largest best gives the row-major argmax of `gains`
    row_best, row_arg = gains.max(axis=1), gains.argmax(axis=1)
    history = []

    for _ in range(n - 1):
        a = int(np.argmax(row_best))
        best = float(row_best[a])
        if best <= 1e-15:
            break
        a, b = min(a, int(row_arg[a])), max(a, int(row_arg[a]))
        history.append(best)
        owner[owner == b] = a
        live[b] = False
        agg_e[a, :] += agg_e[b, :]
        agg_e[:, a] += agg_e[:, b]
        agg_pi[a] += agg_pi[b]
        gains[b, :] = gains[:, b] = -np.inf
        gains[a, :] = 2.0 * (agg_e[a, :] - agg_pi[a] * agg_pi)
        gains[:, a] = 2.0 * (agg_e[:, a] - agg_pi * agg_pi[a])
        gains[a, ~live] = gains[~live, a] = gains[a, a] = -np.inf
        # A row whose best column was neither a nor b compares it with column
        # a.  One whose best was a or b takes a if column a did not drop below
        # the old best (every column before b was below it); else a rescan.
        col = gains[:, a]
        was = live & ((row_arg == a) | (row_arg == b))
        up = live & ((col > row_best) | ((col == row_best) & (row_arg > a))
                     | (was & (col >= row_best)))
        rescan = was & ~up
        rescan[a] = True
        row_best[up], row_arg[up] = col[up], a
        row_best[b] = -np.inf
        idx = np.flatnonzero(rescan)
        row_arg[idx] = gains[idx].argmax(axis=1)
        row_best[idx] = gains[idx, row_arg[idx]]
    labels = np.unique(owner, return_inverse=True)[1]

    # one refinement sweep of single-node moves between existing modules
    members = [np.flatnonzero(owner == a) for a in np.flatnonzero(live)]
    if len(members) > 1:
        mass = [pi[mod].sum() for mod in members]
        for x in range(n):
            a = int(labels[x])
            own_wo = members[a][members[a] != x]
            own_mass = pi[own_wo].sum()
            loss = 2.0 * (E[x, own_wo].sum() - pi[x] * own_mass)
            best_gain = 1e-15
            best_mod = -1
            for b, tgt in enumerate(members):
                if b == a or tgt.size == 0:
                    continue
                gain = 2.0 * (E[x, tgt].sum() - pi[x] * mass[b]) - loss
                if gain > best_gain:
                    best_gain = gain
                    best_mod = b
            if best_mod >= 0:
                labels[x] = best_mod
                members[a], mass[a] = own_wo, own_mass
                tgt = members[best_mod]
                tgt = np.insert(tgt, np.searchsorted(tgt, x), x)
                members[best_mod], mass[best_mod] = tgt, pi[tgt].sum()
    return _canonical_labels(labels), history


def enumerate_set_partitions(n: int):
    """All set partitions of range(n) as label vectors, in restricted-growth order."""
    labels = [0] * n
    maxes = [0] * n

    def rec(i):
        if i == n:
            yield np.array(labels, dtype=int)
            return
        top = maxes[i - 1] if i else -1
        for lab in range(top + 2):
            labels[i] = lab
            maxes[i] = max(top, lab)
            yield from rec(i + 1)

    yield from rec(0)


def maximize(objective: str, *, pi: np.ndarray, I: np.ndarray | None = None,
             P: np.ndarray | None = None, mode: str = "greedy"):
    """Maximize a modularity objective over full partitions.

    Parameters
    ----------
    objective : "qbar" (needs I) or "q" (needs P)
    pi : stationary distribution
    mode : "greedy" for agglomerative merging (any size), "exhaustive" for
        global enumeration (refused above 12 nodes).

    Returns
    -------
    labels : canonical label vector of the best partition found
    score : its modularity value
    history : greedy merge gains (empty for exhaustive mode)
    """
    pi = np.asarray(pi, dtype=float)
    n = len(pi)
    if objective == "qbar":
        if I is None:
            raise ValueError("qbar maximization needs the intensity matrix")
        E = np.asarray(I, dtype=float)
        scorer = lambda lab: score_qbar(I, pi, lab)
    elif objective == "q":
        if P is None:
            raise ValueError("q maximization needs the transition matrix")
        F = edge_flow(P, pi)
        E = 0.5 * (F + F.T)  # the score of a full partition is unchanged
        scorer = lambda lab: score_q_directed(P, pi, lab)
    else:
        raise ValueError(f"unknown objective {objective!r}")

    if mode == "greedy":
        labels, history = _greedy_maximize(E, pi)
        return labels, scorer(labels), history
    if mode == "exhaustive":
        if n > _EXHAUSTIVE_CAP:
            raise ValueError(
                f"exhaustive enumeration refused for {n} > {_EXHAUSTIVE_CAP} nodes")
        best_labels = None
        best_score = -np.inf
        for labels in enumerate_set_partitions(n):
            s = _block_score(E, pi, labels)
            if s > best_score + 1e-15:
                best_score = s
                best_labels = labels.copy()
        return best_labels, scorer(best_labels), []
    raise ValueError(f"unknown mode {mode!r}")


def check_symmetrization_invariance(P: np.ndarray, pi: np.ndarray,
                                    partitions, tol: float = 1e-12) -> bool:
    """True iff the directed score matches its flux-symmetrized variant.

    For every supplied partition, compares the score computed from pi_x p_xy
    with the one computed from (pi_x p_xy + pi_y p_yx) / 2.
    """
    pi = np.asarray(pi, dtype=float)
    F = edge_flow(P, pi)
    Fs = 0.5 * (F + F.T)
    for labels in partitions:
        labels = validate_partition(labels, len(pi))
        if abs(_block_score(F, pi, labels) - _block_score(Fs, pi, labels)) > tol:
            return False
    return True
