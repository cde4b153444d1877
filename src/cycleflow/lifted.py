"""Spectra of the lifted chains.

A cycle decomposition lifts the walk to two reversible chains: node to cycle
to node, the walk on the communication graph, and cycle to node to cycle, the
walk on the cycle graph (both in `commgraph`).  They share their non-zero
spectrum.  The package reads both chains off those two undirected graphs and
never builds the lifting matrices; this module holds the dense spectrum, the
order the CLI writes eigenvalues in and the CSV text of them.  A spectrum is a
plain complex array.  The explicit lifting and the shared-spectrum check,
which the tests hold the graphs to, are in `tests/reference.py`.
"""

from __future__ import annotations

import numpy as np

from ._floattext import reprs

__all__ = [
    "order_eigenvalues",
    "spectrum",
    "spectrum_csv",
]


def order_eigenvalues(vals, k: int | None = None) -> np.ndarray:
    """Raw eigenvalues sorted by modulus, real, then imaginary part, descending; top k."""
    vals = np.asarray(vals, dtype=complex)
    order = np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))
    vals = vals[order]
    if k is not None:
        if not 1 <= k <= vals.size:
            raise ValueError(f"k={k} out of range for dimension {vals.size}")
        vals = vals[:k]
    return vals


def spectrum_csv(vals) -> str:
    """`re,im` lines, one per eigenvalue in the given order, each part its repr."""
    parts = reprs(np.asarray(vals, dtype=complex).view(float))  # re, im, re, ...
    return "\n".join(["re,im", *map(",".join, zip(parts[::2], parts[1::2])), ""])


def spectrum(M: np.ndarray, k: int | None = None) -> np.ndarray:
    """Full (or top-k by modulus) spectrum of a square matrix, dense solve, as
    `order_eigenvalues` orders it."""
    M = np.asarray(M, dtype=float)
    return order_eigenvalues(np.linalg.eigvals(M), k)
