"""Reference constructions that the test suite checks the pipeline against.

The package reads both lifted chains off two undirected graphs: the node
chain B V is the walk on the communication graph K, the cycle chain V B the
walk on the cycle graph.  Here they are built the explicit way instead: the
node-to-cycle matrix B, the cycle-to-node matrix V and their products, the
symmetrized spectrum of an explicit reversible chain, the shared-spectrum
check with its eigenvector transport, both entropy production rates,
modularity by exhaustive enumeration, the exact loop-erased weight of each
cycle of a set, and the dict views of a cycle set, which the package holds as
arrays: a cycle's weight, the counts, and a sampled set built from counts.
`Lifting.P_lift` is the product of
the two builders, never read off K, so that a test comparing it with K
checks one construction against another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from cycleflow.cycles import CycleDecomposition, canonical_cycle
from cycleflow.graph import edge_flow
from cycleflow.lifted import order_eigenvalues
from cycleflow.modularity import _block_score, _couplings, validate_partition

EXHAUSTIVE_CAP = 12


def reverse_cycle(cycle) -> tuple[int, ...]:
    """The same cycle walked in the opposite orientation, re-canonicalized."""
    cycle = canonical_cycle(cycle)
    return canonical_cycle((cycle[0],) + tuple(reversed(cycle[1:])))


def weight(dec: CycleDecomposition, cycle) -> float:
    """The weight of `cycle`, given in any rotation; 0 if `dec` does not hold it."""
    return dec.weights.get(canonical_cycle(cycle), 0.0)


def counts(dec: CycleDecomposition) -> dict | None:
    """Cycle tuple -> completion count, in canonical order; None if not counted."""
    return None if dec.k is None else dict(zip(dec.weights, dec.k.tolist()))


def sampled_from_counts(tally: dict, T: int, n_nodes: int, nodes=None) -> CycleDecomposition:
    """The sampled decomposition of `tally`, cycle tuple in any rotation -> completion
    count, on a T-state walk: the dict of a reference erasure, built as the sampler builds."""
    lengths = np.fromiter(map(len, tally), dtype=np.intp, count=len(tally))
    flat = np.fromiter(chain.from_iterable(tally), dtype=np.intp, count=int(lengths.sum()))
    k = np.fromiter(tally.values(), dtype=np.int64, count=len(tally))
    return CycleDecomposition._from_rows(flat, lengths, "sampled", n_nodes, k=k, T=T, nodes=nodes)


# ------------------------------------------------------------- the lifting

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
        raise dec.uncovered_error(int(uncovered[0]))
    B = np.zeros((dec.n_nodes, dec.lengths.size))
    B[dec.members, dec.rows] = dec.w[dec.rows] / mass[dec.members]
    return B


def cycle_to_node_matrix(dec: CycleDecomposition) -> np.ndarray:
    """|Gamma| x |V| matrix: each cycle row is uniform over its nodes."""
    V = np.zeros((dec.lengths.size, dec.n_nodes))
    V[dec.rows, dec.members] = 1.0 / dec.lengths[dec.rows]
    return V


def cycle_stationary(dec: CycleDecomposition) -> np.ndarray:
    """Stationary distribution over cycles: |alpha| * w(alpha), normalized."""
    mu = dec.lengths * dec.w
    return mu / mu.sum()


class Lifting:
    """The explicit lifting of one decomposition, each matrix built on first access.

    P_lift = B V and Q_lift = V B are the node and cycle chains; `pi_lift`, the
    normalized node mass, is what P_lift is reversible with (pi for exact
    weights), and `mu` what Q_lift is reversible with.
    """

    def __init__(self, dec: CycleDecomposition):
        self.dec = dec

    @cached_property
    def B(self) -> np.ndarray:
        return node_to_cycle_matrix(self.dec)

    @cached_property
    def V(self) -> np.ndarray:
        return cycle_to_node_matrix(self.dec)

    @cached_property
    def P_lift(self) -> np.ndarray:
        return self.B @ self.V

    @cached_property
    def pi_lift(self) -> np.ndarray:
        mass = self.dec.node_mass()
        return mass / mass.sum()

    @cached_property
    def Q_lift(self) -> np.ndarray:
        return self.V @ self.B

    @cached_property
    def mu(self) -> np.ndarray:
        return cycle_stationary(self.dec)


def walk_matrix(graph) -> np.ndarray:
    """Row-normalized intensity of a `CommunicationGraph`: the random walk on it."""
    return graph.intensity / graph.mass[:, None]


def detailed_balance_residual(M: np.ndarray, dist: np.ndarray) -> float:
    """Max |dist_i M_ij - dist_j M_ji|; zero iff the chain is reversible."""
    F = edge_flow(M, dist)
    return float(np.max(np.abs(F - F.T)))


# ------------------------------------------------------------------ spectra

def _symmetrize(M: np.ndarray, dist: np.ndarray):
    """(S, sqrt(dist)): S = D^{1/2} M D^{-1/2}, D = diag(dist), averaged with its transpose,
    which changes it only by rounding when M is reversible wrt a multiple of dist."""
    d = np.sqrt(np.asarray(dist, dtype=float))
    S = (d[:, None] * np.asarray(M, dtype=float)) / d[None, :]
    return 0.5 * (S + S.T), d


def spectrum_reversible(M: np.ndarray, dist: np.ndarray,
                        k: int | None = None) -> np.ndarray:
    """Spectrum of a chain reversible wrt `dist`, via symmetrization.

    The similarity transform D^{1/2} M D^{-1/2} is symmetric for a
    reversible chain, so a symmetric eigensolve returns an exactly real
    spectrum.  The reference for explicit chains such as `Lifting.P_lift`.
    """
    if np.any(np.asarray(dist) <= 0):
        raise ValueError("reversible spectrum needs a strictly positive distribution")
    S, _ = _symmetrize(M, dist)
    return order_eigenvalues(np.linalg.eigvalsh(S), k)


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


# ------------------------------------------------------- entropy production

def entropy_production_edge(P: np.ndarray, pi: np.ndarray) -> float:
    """Entropy production rate of the walk from edge fluxes.

    Sum over unordered pairs of (F_xy - F_yx) * log(F_xy / F_yx); returns
    math.inf when some edge has no reverse edge, 0 iff detailed balance
    holds.
    """
    F = edge_flow(P, pi)
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


# --------------------------------------------------------------- modularity

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


def maximize_exhaustive(objective: str, *, pi: np.ndarray, I: np.ndarray | None = None,
                        P: np.ndarray | None = None):
    """Global modularity maximum over all full partitions, as `cycleflow.maximize`
    returns it: (labels, score, history), history empty.  Refused above 12 nodes.
    Unlike the greedy search it scores any I, symmetric or not.
    """
    pi = np.asarray(pi, dtype=float)
    n = len(pi)
    S, E = _couplings(objective, pi, I, P)
    if n > EXHAUSTIVE_CAP:
        raise ValueError(
            f"exhaustive enumeration refused for {n} > {EXHAUSTIVE_CAP} nodes")
    best_labels = None
    best_score = -np.inf
    for labels in enumerate_set_partitions(n):
        s = _block_score(E, pi, labels)
        if s > best_score + 1e-15:
            best_score = s
            best_labels = labels.copy()
    return best_labels, _block_score(S, pi, best_labels), []


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


# ----------------------------------------------------- exact cycle weights

def simple_cycles(P: np.ndarray) -> list[tuple[int, ...]]:
    """Every simple cycle of P's support, each entered at its smallest node: a
    depth-first search from each node through larger nodes only."""
    succ = [np.flatnonzero(row).tolist() for row in np.asarray(P)]
    cycles = []

    def extend(path):
        for y in succ[path[-1]]:
            if y == path[0]:
                cycles.append(tuple(path))
            elif y > path[0] and y not in path:
                extend(path + [y])

    for start in range(len(succ)):
        extend([start])
    return cycles


def exact_cycle_weights(P: np.ndarray, pi: np.ndarray, dec: CycleDecomposition) -> np.ndarray:
    """The T -> infinity limit of the loop-erased weight of each of `dec`'s cycles,
    in its row order.

    The closed form is w(c) = p(c) det((I - P) off c) / sum_k det((I - P) off k),
    p(c) the product of c's edge probabilities (Kalpazidou, *Cycle Representations
    of Markov Processes*; Jiang, Qian and Qian, LNM 1833).  By Jacobi's
    complementary-minor identity it is pi_j p(c) det(G[c - j, c - j]), j the first
    node of c and G the Green's function of the walk killed at j, read off one
    fundamental matrix Z = (I - P + 1 pi^T)^-1 (Kemeny and Snell):
    G[x, y] = Z[x, y] - Z[j, y] + pi_y (Z[j, j] - Z[x, j]) / pi_j.
    """
    P, pi = np.asarray(P, dtype=float), np.asarray(pi, dtype=float)
    n = P.shape[0]
    Z = np.linalg.inv(np.eye(n) - P + np.outer(np.ones(n), pi))
    w = np.empty(dec.lengths.size)
    for a, c in enumerate(dec.weights):
        j, rest = c[0], list(c[1:])
        G = (Z[np.ix_(rest, rest)] - Z[j, rest]
             + pi[rest] * (Z[j, j] - Z[rest, j])[:, None] / pi[j])
        w[a] = pi[j] * np.prod(P[list(c), list(c[1:] + c[:1])]) * np.linalg.det(G)
    return w
