"""Fuzzy clustering of the communication graph.

The module count is read off the spectral gap of the communication-graph
walk.  Module cores are found by spectral embedding with deterministically
seeded vertex centers; every node whose soft membership stays below the core
threshold falls into the transition region, where affiliations are the
probabilities of hitting one core before the others (committor functions).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .commgraph import CommunicationGraph
from .lifted import SpectrumReport

__all__ = [
    "ModuleCores",
    "FuzzyPartition",
    "estimate_num_modules",
    "find_cores",
    "committors",
    "fuzzy_partition",
]

_TIE_TOL = 1e-9


@dataclass(frozen=True)
class ModuleCores:
    """Disjoint module cores plus the transition region covering the rest."""

    cores: tuple
    transition: tuple
    memberships: np.ndarray
    theta: float

    @property
    def m(self) -> int:
        return len(self.cores)


@dataclass(frozen=True)
class FuzzyPartition:
    """Cores, committor affiliations, and the induced hard assignment."""

    cores: ModuleCores
    q: np.ndarray
    labels: np.ndarray
    ties: np.ndarray

    @property
    def m(self) -> int:
        return self.cores.m


def estimate_num_modules(report: SpectrumReport, m_max: int = 8) -> int:
    """Module count from the largest spectral gap lambda_k - lambda_{k+1}.

    Scans 2 <= k <= m_max on the real, descending-sorted spectrum.  When all
    candidate gaps are (numerically) equal the choice is arbitrary; returns 2
    with a warning.
    """
    if report.max_imag > 1e-8:
        raise ValueError("module estimation needs a real spectrum "
                         f"(max imaginary part {report.max_imag:.3e})")
    size = report.eigenvalues.size
    if size < 3 or m_max < 2:
        warnings.warn("spectrum too short to pick a gap; defaulting to 2 modules")
        return 2
    hi = min(m_max, size - 1)
    gaps = report.gaps(hi + 1)[1:]  # gap after lambda_k for k = 2..hi, never empty
    if float(gaps.max() - gaps.min()) <= 1e-12:
        warnings.warn("all spectral gaps equal; defaulting to 2 modules")
        return 2
    return int(np.argmax(gaps)) + 2


def _spectral_embedding(K: CommunicationGraph, m: int) -> np.ndarray:
    """Rows of the top-m right eigenvectors of the walk, normalized to unit norm."""
    vals, U = K.eigh
    order = np.argsort(vals)[::-1]
    X = U[:, order[:m]] / np.sqrt(K.mass)[:, None]
    norms = np.linalg.norm(X, axis=1)
    if np.any(norms == 0.0):
        raise RuntimeError("degenerate spectral embedding (zero row)")
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
    it belongs to the transition region.  If some core comes out empty, theta
    is lowered in steps of 0.05 towards 0.5 before giving up.

    Parameters
    ----------
    K : CommunicationGraph
    m : number of modules, >= 2
    theta : core membership threshold in (0.5, 1)
    """
    if m < 2:
        raise ValueError("need at least 2 modules")
    if not 0.5 < theta < 1.0:
        raise ValueError("theta must lie in (0.5, 1)")
    X = _spectral_embedding(K, m)
    centers = _vertex_centers(X, m)
    memberships = _soft_memberships(X, centers)

    floor = 0.5 + 1e-6
    t = theta
    while True:
        best = np.argmax(memberships, axis=1)
        strong = memberships[np.arange(len(best)), best] >= t
        cores = [tuple(int(i) for i in np.flatnonzero(strong & (best == j)))
                 for j in range(m)]
        if all(len(c) for c in cores):
            break
        if t <= floor:
            raise RuntimeError(
                f"could not form {m} non-empty cores even at threshold {floor}")
        t = max(t - 0.05, floor)

    order = np.argsort([min(c) for c in cores])
    cores = tuple(cores[j] for j in order)
    memberships = memberships[:, order]
    transition = tuple(int(i) for i in np.flatnonzero(~strong))
    return ModuleCores(cores=cores, transition=transition,
                       memberships=memberships, theta=t)


def committors(K: CommunicationGraph, cores: ModuleCores) -> np.ndarray:
    """Probabilities of hitting each core first, for the communication walk.

    Solves (Id - P) q = 0 on the transition region with q = 1 on the target
    core and 0 on the others.  The system is solved in symmetrized form
    D^{1/2} (Id - P) D^{-1/2} = Id - K.normalized, which is positive definite
    for a reversible walk; one factorization serves all m right-hand sides.
    """
    N, d = K.normalized, np.sqrt(K.mass)
    n = K.n
    m = cores.m
    counts = np.zeros(n, dtype=int)
    for core in cores.cores:
        counts[list(core)] += 1
    counts[list(cores.transition)] += 1
    if np.any(counts != 1):
        raise ValueError("cores and transition region must cover every node exactly once")
    q = np.zeros((n, m))
    for j, core in enumerate(cores.cores):
        q[list(core), j] = 1.0
    tr = list(cores.transition)
    if tr:
        all_core = sorted(set(range(n)) - set(tr))
        rhs = N[np.ix_(tr, all_core)] @ (d[all_core, None] * q[all_core, :])
        try:
            y = np.linalg.solve(np.eye(len(tr)) - N[np.ix_(tr, tr)], rhs)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                "committor system is singular; cores unreachable from the "
                "transition region") from exc
        q[tr, :] = y / d[tr, None]
    if np.min(q) < -1e-9 or np.max(q) > 1 + 1e-9:
        raise RuntimeError("committor solution violates the maximum principle")
    return np.clip(q, 0.0, 1.0)


def fuzzy_partition(cores: ModuleCores, q: np.ndarray) -> FuzzyPartition:
    """Bundle cores and committors with argmax labels; near-ties are flagged."""
    q = np.asarray(q, dtype=float)
    if q.shape != (cores.memberships.shape[0], cores.m):
        raise ValueError("committor matrix shape does not match the cores")
    labels = np.argmax(q, axis=1)
    sorted_q = np.sort(q, axis=1)
    ties = (sorted_q[:, -1] - sorted_q[:, -2]) <= _TIE_TOL
    return FuzzyPartition(cores=cores, q=q, labels=labels, ties=ties)
