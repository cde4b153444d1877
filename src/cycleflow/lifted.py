"""Spectra of the lifted chains.

A cycle decomposition lifts the walk to two reversible chains: node to cycle
to node, the walk on the communication graph, and cycle to node to cycle, the
walk on the cycle graph (both in `commgraph`).  They share their non-zero
spectrum.  The package reads both chains off those two undirected graphs and
never builds the lifting matrices; this module holds the dense spectrum and
the report the CLI writes of it.  The explicit lifting and the shared-spectrum
check, which the tests hold the graphs to, are in `tests/reference.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectrumReport",
    "spectrum",
]


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

    @classmethod
    def from_eigenvalues(cls, vals, k: int | None = None) -> SpectrumReport:
        """Raw eigenvalues sorted by modulus, real, then imaginary part, descending; top k."""
        vals = np.asarray(vals, dtype=complex)
        order = np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))
        vals = vals[order]
        if k is not None:
            if not 1 <= k <= vals.size:
                raise ValueError(f"k={k} out of range for dimension {vals.size}")
            vals = vals[:k]
        return cls(eigenvalues=vals, max_imag=float(np.max(np.abs(vals.imag))))


def spectrum(M: np.ndarray, k: int | None = None) -> SpectrumReport:
    """Full (or top-k by modulus) spectrum of a square matrix, dense solve."""
    M = np.asarray(M, dtype=float)
    return SpectrumReport.from_eigenvalues(np.linalg.eigvals(M), k)
