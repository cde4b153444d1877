"""Fuzzy clustering of the communication graph.

The module count is read off the spectral gap of the communication-graph
walk.  Module cores are found by spectral embedding with deterministically
seeded vertex centers; every node whose soft membership stays below the core
threshold falls into the transition region, where affiliations are the
probabilities of hitting one core before the others (committor functions).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .commgraph import CommunicationGraph

__all__ = [
    "ModuleCores",
    "estimate_num_modules",
    "find_cores",
    "committors",
    "hard_labels",
]

_TIE_TOL = 1e-9
_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ModuleCores:
    """Disjoint module cores plus the transition region covering the rest."""

    cores: tuple
    transition: tuple

    @property
    def m(self) -> int:
        return len(self.cores)


def estimate_num_modules(eigenvalues, m_max: int = 8) -> int:
    """Module count from the largest spectral gap lambda_k - lambda_{k+1}.

    Scans 2 <= k <= m_max on the real parts of the eigenvalues, given in any
    order and sorted descending here.  When two or more candidate gaps are all
    (numerically) equal the choice is arbitrary; returns 2 and logs a warning.
    """
    lam = np.asarray(eigenvalues)
    max_imag = float(np.max(np.abs(lam.imag), initial=0.0))
    if max_imag > 1e-8:
        raise ValueError("module estimation needs a real spectrum "
                         f"(max imaginary part {max_imag:.3e})")
    lam = np.sort(lam.real)[::-1]
    if lam.size < 3 or m_max < 2:
        _log.warning("spectrum too short to pick a gap; defaulting to 2 modules")
        return 2
    hi = min(m_max, lam.size - 1)
    gaps = lam[1:hi] - lam[2:hi + 1]  # gap after lambda_k for k = 2..hi, never empty
    if gaps.size > 1 and float(gaps.max() - gaps.min()) <= 1e-12:
        _log.warning("all spectral gaps equal; defaulting to 2 modules")
        return 2
    return int(np.argmax(gaps)) + 2


def _spectral_embedding(K: CommunicationGraph, m: int) -> np.ndarray:
    """Rows of the top-m right eigenvectors of the walk, normalized to unit norm."""
    vals, U = K.eigh
    order = np.argsort(vals)[::-1]
    X = U[:, order[:m]] / np.sqrt(K.mass)[:, None]
    norms = np.linalg.norm(X, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:  # the top eigenvector of a connected K is positive on every node
        raise RuntimeError(f"degenerate spectral embedding (zero row) at node "
                           f"{K.nodes[zero[0]]!r}: the communication graph K is "
                           "disconnected")
    return X / norms[:, None]


def _vertex_centers(X: np.ndarray, m: int) -> np.ndarray:
    """Cluster centers fixed at m farthest-point seeds: the row farthest from
    the mean, then each time the row farthest from the seeds so far.

    The seeds are the most extreme embedded rows, i.e. the vertices of the
    membership geometry.  Keeping the centers there (instead of Lloyd mean
    updates) leaves weakly committed nodes at intermediate memberships, so
    they fall into the transition region rather than being absorbed into a
    cluster average.
    """
    seeds = [int(np.argmax(np.linalg.norm(X - X.mean(axis=0), axis=1)))]
    while len(seeds) < m:
        d = np.min(
            np.stack([np.linalg.norm(X - X[s], axis=1) for s in seeds]), axis=0)
        seeds.append(int(np.argmax(d)))
    return X[seeds]


def _soft_memberships(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Inverse-squared-distance memberships, rows summing to 1.  A row at
    distance 0 from some centers is shared equally among those centers."""
    d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    zero = d2 <= 1e-300
    on_center = zero.any(axis=1)
    with np.errstate(divide="ignore", over="ignore"):
        # rows contiguous, so that each row sums as it would alone
        inv = np.divide(1.0, d2, order="C")
    inv[on_center] = zero[on_center]
    return inv / inv.sum(axis=1, keepdims=True)


def find_cores(K: CommunicationGraph, m: int, theta: float = 0.9) -> ModuleCores:
    """Identify m disjoint module cores in the communication graph.

    Nodes are embedded with the top-m eigenvectors of the communication walk
    and assigned to the nearest of m deterministically seeded centers; a node
    joins its module's core when its soft membership reaches theta, otherwise
    it belongs to the transition region.  Each center is a row of the
    embedding, with membership 1 in its own module, so a core comes out empty
    only when two centers coincide; that raises RuntimeError.

    Parameters
    ----------
    K : CommunicationGraph
    m : number of modules, 2 <= m <= K.n
    theta : core membership threshold in (0.5, 1)
    """
    if m < 2:
        raise ValueError("need at least 2 modules")
    if m > K.n:
        raise ValueError(f"cannot form {m} modules on {K.n} nodes")
    if not 0.5 < theta < 1.0:
        raise ValueError("theta must lie in (0.5, 1)")
    X = _spectral_embedding(K, m)
    memberships = _soft_memberships(X, _vertex_centers(X, m))
    best = np.argmax(memberships, axis=1)
    strong = memberships[np.arange(K.n), best] >= theta
    cores = [tuple(int(i) for i in np.flatnonzero(strong & (best == j))) for j in range(m)]
    if not all(cores):
        raise RuntimeError(f"could not form {m} non-empty cores at threshold {theta}: "
                           "two centers of the spectral embedding coincide")

    order = np.argsort([min(c) for c in cores])
    return ModuleCores(cores=tuple(cores[j] for j in order),
                       transition=tuple(int(i) for i in np.flatnonzero(~strong)))


def committors(K: CommunicationGraph, cores) -> np.ndarray:
    """Probabilities of hitting each core first, for the communication walk.

    `cores` holds m disjoint sets of node indices; the transition region is
    every node in none of them.  Solves (Id - P) q = 0 on the transition
    region with q = 1 on the target core and 0 on the others.  The system is
    solved in symmetrized form D^{1/2} (Id - P) D^{-1/2} = Id - K.normalized,
    which is positive definite for a reversible walk; one factorization serves
    all m right-hand sides.  K is symmetric, so a transition node reaches a
    core exactly when its connected component in K's support holds one; the
    first node whose component holds none raises RuntimeError before the
    solve.  That also covers a node with no edge but its self-loop, which
    would leave the system exactly singular.
    """
    N, d = K.normalized, np.sqrt(K.mass)
    n, m = K.n, len(cores)
    members = np.array([i for core in cores for i in set(core)], dtype=int)
    bad = members[(members < 0) | (members >= n)]
    if bad.size:
        raise ValueError(f"core index {bad[0]} out of range for {n} nodes")
    counts = np.bincount(members, minlength=n)
    if np.any(counts > 1):
        raise ValueError(f"cores overlap at node {K.nodes[np.argmax(counts)]!r}")
    q = np.zeros((n, m))
    for j, core in enumerate(cores):
        q[list(core), j] = 1.0
    tr, all_core = np.flatnonzero(counts == 0), np.flatnonzero(counts)
    if tr.size:
        support, reached = K.intensity != 0.0, counts > 0
        grown = reached.copy()
        while grown.any():  # spread from the cores, one layer of neighbours a pass
            grown = support[grown].any(axis=0) & ~reached
            reached |= grown
        if not reached.all():
            x = int(np.flatnonzero(~reached)[0])
            raise RuntimeError(f"transition node {K.nodes[x]!r} reaches no core: "
                               "its component of K holds none")
        rhs = N[np.ix_(tr, all_core)] @ (d[all_core, None] * q[all_core, :])
        y = np.linalg.solve(np.eye(tr.size) - N[np.ix_(tr, tr)], rhs)
        q[tr, :] = y / d[tr, None]
    if np.min(q) < -1e-9 or np.max(q) > 1 + 1e-9:
        raise RuntimeError("committor solution violates the maximum principle")
    return np.clip(q, 0.0, 1.0)


def hard_labels(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's argmax label, and a flag where its top two lie within _TIE_TOL."""
    q = np.asarray(q, dtype=float)
    top = np.sort(q, axis=1)
    return np.argmax(q, axis=1), top[:, -1] - top[:, -2] <= _TIE_TOL
