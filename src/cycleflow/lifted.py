"""Reversible walks lifted through the cycle space.

From a cycle decomposition two stochastic matrices are built: a node-to-cycle
matrix (rows: probability that the walk at x is currently carried by each
cycle) and a cycle-to-node matrix (rows: uniform over the cycle's nodes).
Their two products are the transition matrices of the node-cycle-node walk on
V and of the cycle-node-cycle walk on the cycle set; both are reversible and
share their non-zero spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cycles import CycleDecomposition, reverse_cycle

__all__ = [
    "node_to_cycle_matrix",
    "cycle_to_node_matrix",
    "cycle_stationary",
    "SpectrumReport",
    "spectrum",
    "spectrum_reversible",
    "SpectralMatchReport",
    "verify_spectral_match",
    "detailed_balance_residual",
    "entropy_production_edge",
    "entropy_production_cycle",
]


def node_to_cycle_matrix(dec: CycleDecomposition) -> np.ndarray:
    """|V| x |Gamma| row-stochastic matrix of node-to-cycle probabilities.

    Entry (x, alpha) is w(alpha)/m_x for x in alpha, else 0, with m_x the node
    mass: w(alpha)/pi_x with rows renormalized, which absorbs sampling error in
    the weights (for exact weights m = pi up to rounding).
    Raises if some node lies on no cycle.
    """
    mass = dec.node_mass()
    uncovered = np.flatnonzero(mass == 0.0)
    if uncovered.size:
        raise ValueError(f"node index {int(uncovered[0])} is covered by no cycle; "
                         "the decomposition does not span the graph")
    B = np.zeros((dec.n_nodes, len(dec.cycles)))
    B[dec.members, dec.rows] = dec.w[dec.rows] / mass[dec.members]
    return B


def cycle_to_node_matrix(dec: CycleDecomposition) -> np.ndarray:
    """|Gamma| x |V| matrix: each cycle row is uniform over its nodes."""
    V = np.zeros((len(dec.cycles), dec.n_nodes))
    V[dec.rows, dec.members] = 1.0 / dec.lengths[dec.rows]
    return V


def cycle_stationary(dec: CycleDecomposition) -> np.ndarray:
    """Stationary distribution over cycles: |alpha| * w(alpha), normalized."""
    mu = dec.lengths * dec.w
    return mu / mu.sum()


def detailed_balance_residual(M: np.ndarray, dist: np.ndarray) -> float:
    """Max |dist_i M_ij - dist_j M_ji|; zero iff the chain is reversible."""
    F = np.asarray(dist)[:, None] * np.asarray(M)
    return float(np.max(np.abs(F - F.T)))


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of a stochastic matrix, sorted by modulus descending."""

    eigenvalues: np.ndarray
    max_imag: float

    def real_sorted(self) -> np.ndarray:
        """Real parts sorted descending (meaningful for reversible chains)."""
        return np.sort(self.eigenvalues.real)[::-1]

    def gaps(self, limit: int | None = None) -> np.ndarray:
        """Consecutive differences of the real-sorted eigenvalues."""
        lam = self.real_sorted()
        if limit is not None:
            lam = lam[:limit]
        return lam[:-1] - lam[1:]

    def csv_text(self) -> str:
        lines = ["re,im"]
        for lam in self.eigenvalues:
            lines.append(f"{float(lam.real)!r},{float(lam.imag)!r}")
        return "\n".join(lines) + "\n"


def _sorted_report(vals: np.ndarray, k: int | None) -> SpectrumReport:
    vals = np.asarray(vals, dtype=complex)
    order = np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))
    vals = vals[order]
    if k is not None:
        if not 1 <= k <= vals.size:
            raise ValueError(f"k={k} out of range for dimension {vals.size}")
        vals = vals[:k]
    return SpectrumReport(eigenvalues=vals, max_imag=float(np.max(np.abs(vals.imag))))


def spectrum(M: np.ndarray, k: int | None = None) -> SpectrumReport:
    """Full (or top-k by modulus) spectrum of a square matrix, dense solve."""
    M = np.asarray(M, dtype=float)
    try:
        vals = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed: {exc}") from exc
    return _sorted_report(vals, k)


def _symmetrize(M: np.ndarray, dist: np.ndarray):
    """(S, sqrt(dist)): S = D^{1/2} M D^{-1/2}, D = diag(dist), averaged with its transpose,
    which changes it only by rounding when M is reversible wrt a multiple of dist."""
    d = np.sqrt(np.asarray(dist, dtype=float))
    S = (d[:, None] * np.asarray(M, dtype=float)) / d[None, :]
    return 0.5 * (S + S.T), d


def spectrum_reversible(M: np.ndarray, dist: np.ndarray,
                        k: int | None = None) -> SpectrumReport:
    """Spectrum of a chain reversible wrt `dist`, via symmetrization.

    The similarity transform D^{1/2} M D^{-1/2} is symmetric for a
    reversible chain, so a symmetric eigensolve returns an exactly real
    spectrum.
    """
    if np.any(np.asarray(dist) <= 0):
        raise ValueError("reversible spectrum needs a strictly positive distribution")
    S, _ = _symmetrize(M, dist)
    try:
        vals = np.linalg.eigvalsh(S)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed: {exc}") from exc
    return _sorted_report(vals, k)


@dataclass(frozen=True)
class SpectralMatchReport:
    """Comparison of the non-zero spectra of the two lifted chains."""

    nonzero_node: np.ndarray
    nonzero_cycle: np.ndarray
    spectra_match: bool
    max_spectrum_diff: float
    max_residual_node_map: float
    max_residual_cycle_map: float
    tol: float
    detail: str

    @property
    def ok(self) -> bool:
        return (self.spectra_match
                and self.max_residual_node_map <= self.tol
                and self.max_residual_cycle_map <= self.tol)


def verify_spectral_match(P_node: np.ndarray, Q_cycle: np.ndarray, B: np.ndarray,
                  V: np.ndarray, pi: np.ndarray, mu: np.ndarray,
                  zero_tol: float = 1e-8, tol: float = 1e-6) -> SpectralMatchReport:
    """Check that the two lifted chains share their non-zero spectrum.

    Also checks the eigenvector transport: for each eigenpair (lam, v) of the
    cycle chain with lam != 0, B v must satisfy P (B v) = lam (B v), and
    symmetrically V carries node-chain eigenvectors to cycle-chain ones.
    """
    nonzero, residual = [], []
    for M, dist, lift, other in ((P_node, pi, V, Q_cycle), (Q_cycle, mu, B, P_node)):
        S, d = _symmetrize(M, dist)
        vals, U = np.linalg.eigh(S)
        nonzero.append(np.sort(vals[np.abs(vals) > zero_tol])[::-1])
        res = 0.0
        for lam, v in zip(vals, (U / d[:, None]).T):
            if abs(lam) <= zero_tol:
                continue
            u = lift @ v
            norm = np.linalg.norm(u)
            if norm > 0.0:
                res = max(res, float(np.linalg.norm(other @ u - lam * u) / norm))
        residual.append(res)
    (nz_p, nz_q), (res_v, res_b) = nonzero, residual

    detail = ""
    if nz_p.size != nz_q.size:
        matched = False
        diff = math.inf
        detail = (f"non-zero eigenvalue counts differ: node chain has {nz_p.size}, "
                  f"cycle chain has {nz_q.size} (zero threshold {zero_tol:g})")
    else:
        diff = float(np.max(np.abs(nz_p - nz_q))) if nz_p.size else 0.0
        matched = diff <= tol
        if not matched:
            detail = f"non-zero spectra deviate by {diff:.3e} > {tol:g}"

    return SpectralMatchReport(nonzero_node=nz_p, nonzero_cycle=nz_q,
                        spectra_match=matched, max_spectrum_diff=diff,
                        max_residual_node_map=res_b, max_residual_cycle_map=res_v,
                        tol=tol, detail=detail)


def entropy_production_edge(P: np.ndarray, pi: np.ndarray) -> float:
    """Entropy production rate of the walk from edge fluxes.

    Sum over unordered pairs of (F_xy - F_yx) * log(F_xy / F_yx); returns
    math.inf when some edge has no reverse edge, 0 iff detailed balance
    holds.
    """
    F = np.asarray(pi, dtype=float)[:, None] * np.asarray(P, dtype=float)
    n = F.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            f, g = F[i, j], F[j, i]
            if f == 0.0 and g == 0.0:
                continue
            if f == 0.0 or g == 0.0:
                return math.inf
            if f != g:
                total += (f - g) * math.log(f / g)
    return total


def entropy_production_cycle(dec: CycleDecomposition) -> float:
    """Entropy production rate from cycle weights.

    Half of the sum over cycles of (w(c) - w(c-)) * log(w(c) / w(c-)), where
    c- is the reversed cycle; each unordered orientation pair therefore
    contributes once, mirroring the edge formula.  Returns math.inf when a
    cycle's reversal carries no weight.
    """
    total = 0.0
    for c, w in dec.weights.items():
        rc = reverse_cycle(c)
        if rc == c:
            continue
        wr = dec.weights.get(rc, 0.0)
        if wr == 0.0:
            return math.inf
        if w != wr:
            total += 0.5 * (w - wr) * math.log(w / wr)
    return total
