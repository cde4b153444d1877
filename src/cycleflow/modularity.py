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

    E must be exactly symmetric.  Each step takes the merge with the largest
    strictly positive score gain 2 * (E_ab - pi_a pi_b) on the aggregated
    system, ties broken by the smallest (module, module) index pair.  After
    merging stalls, one pass of best single-node moves is applied.
    """
    n = len(pi)
    # Slot a holds the module whose smallest member is a (b merges into a < b),
    # so live slots in index order are the modules ordered by smallest member.
    # agg_e stays exactly symmetric: a merge adds row b into row a and copies
    # row a into column a.  Its diagonal is -inf, and `dead` adds -inf at the
    # dead slots, whose columns keep stale couplings, to every gains row.
    agg_e = E.copy()
    np.fill_diagonal(agg_e, -np.inf)
    agg_pi = pi.copy()
    dead = np.zeros(n)
    g = np.empty(n)
    # Row c's record (row_best[c], row_arg[c]) bounds each gain in row c, and
    # each column before row_arg[c] gains less than the bound.  The record is
    # exact while row c still gains row_best[c] at row_arg[c]; the first row
    # with the largest exact bound then holds the row-major argmax of gains.
    gains = np.outer(agg_pi, agg_pi)
    np.subtract(agg_e, gains, out=gains)
    np.multiply(2.0, gains, out=gains)
    row_best, row_arg = gains.max(axis=1), gains.argmax(axis=1)
    del gains

    def gain(c, j):
        return 2.0 * (agg_e[c, j] - agg_pi[c] * agg_pi[j]) + dead[j]

    def rescan(c):
        """Gains row c into g, and its exact record."""
        np.multiply(agg_pi[c], agg_pi, out=g)
        np.subtract(agg_e[c], g, out=g)
        np.multiply(2.0, g, out=g)
        np.add(g, dead, out=g)
        row_arg[c] = j = g.argmax()
        row_best[c] = g[j]

    history, merges = [], []
    for _ in range(n - 1):
        a = int(row_best.argmax())
        while row_best[a] > 1e-15 and row_best[a] != gain(a, row_arg[a]):
            rescan(a)
            a = int(row_best.argmax())
        best = float(row_best[a])
        if best <= 1e-15:
            break
        b = int(row_arg[a])  # b > a, as row b ties a's best at column a
        history.append(best)
        merges.append((a, b))
        ea = agg_e[a]
        ea += agg_e[b]
        agg_e[:, a] = ea
        agg_pi[a] += agg_pi[b]
        dead[b] = row_best[b] = -np.inf
        rescan(a)
        # Row c's gains changed only at column a (now g[c]) and column b (now
        # -inf).  Its record moves to a when g[c] beats the bound, or ties it
        # with a no later than row_arg[c], as the columns before a then gain
        # less.  Otherwise it stays a bound, exact or not.
        up = (g > row_best) | ((g == row_best) & (row_arg >= a))
        np.copyto(row_best, g, where=up)
        np.copyto(row_arg, a, where=up)

    # Replayed backwards, merge (a, b) hands b the final owner of a, which
    # the later merges have already set, before the earlier merges into b
    # read it.
    owner = list(range(n))
    for a, b in reversed(merges):
        owner[b] = owner[a]
    labels = np.unique(owner, return_inverse=True)[1]
    return _refine(E, pi, labels), history


def _refine(E: np.ndarray, pi: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """One sweep of best single-node moves between the modules of `labels`.

    Node x moves to the module with the largest gain above 1e-15, the first
    such module on ties.  A module holding no neighbour of x has an E block
    sum of exactly 0.0, so only the modules next to x are gathered.
    """
    k = int(labels.max()) + 1
    if k > 1:
        members = [np.flatnonzero(labels == b) for b in range(k)]
        # Python floats round as numpy's float64 scalars do, at less cost
        mass = [float(pi[mod].sum()) for mod in members]
        for x, px in enumerate(pi.tolist()):
            row, a = E[x], int(labels[x])
            own_wo = members[a][members[a] != x]
            own_mass = float(pi[own_wo].sum())
            loss = 2.0 * (float(row[own_wo].sum()) - px * own_mass)
            # per module, how many of x's couplings are non-zero
            near = np.bincount(labels, weights=row != 0.0, minlength=k).tolist()
            best_gain = 1e-15
            best_mod = -1
            for b in range(k):
                tgt = members[b]
                if b == a or tgt.size == 0:
                    continue
                s = float(row[tgt].sum()) if near[b] else 0.0
                gain = 2.0 * (s - px * mass[b]) - loss
                if gain > best_gain:
                    best_gain = gain
                    best_mod = b
            if best_mod >= 0:
                labels[x] = best_mod
                members[a], mass[a] = own_wo, own_mass
                tgt = members[best_mod]
                tgt = np.insert(tgt, np.searchsorted(tgt, x), x)
                members[best_mod], mass[best_mod] = tgt, float(pi[tgt].sum())
    return _canonical_labels(labels)


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
    mode : "greedy" for agglomerative merging (any size; I must equal its
        transpose exactly), "exhaustive" for global enumeration (refused
        above 12 nodes).

    Returns
    -------
    labels : canonical label vector of the best partition found
    score : its modularity value
    history : greedy merge gains (empty for exhaustive mode)
    """
    pi = np.asarray(pi, dtype=float)
    n = len(pi)
    # S scores a partition; its symmetric part E, which scores full partitions
    # the same, is what the search uses
    if objective == "qbar":
        if I is None:
            raise ValueError("qbar maximization needs the intensity matrix")
        S = E = np.asarray(I, dtype=float)
    elif objective == "q":
        if P is None:
            raise ValueError("q maximization needs the transition matrix")
        S = edge_flow(P, pi)
        E = 0.5 * (S + S.T)
    else:
        raise ValueError(f"unknown objective {objective!r}")

    if mode == "greedy":
        if not np.array_equal(E, E.T):
            raise ValueError("greedy maximization needs an exactly symmetric "
                             "intensity matrix")
        labels, history = _greedy_maximize(E, pi)
        return labels, _block_score(S, pi, labels), history
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
        return best_labels, _block_score(S, pi, best_labels), []
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
