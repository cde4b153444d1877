"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Each criterion is checked at its stated tolerance; the collected lines are
echoed in the terminal summary.  Criteria are implemented faithfully even
where analysis shows they cannot hold (see the per-test notes), so a FAIL
here is a finding, not a broken test.
"""

import math
import time

import numpy as np
import pytest

import cycleflow as cf
from cycleflow.clustering import ModuleCores

from conftest import (ACCEPTANCE_LINES, mc_hitting_probabilities, reciprocal_ring4,
                      three_node_chain, two_triangles)
from reference import (Lifting, check_symmetrization_invariance, detailed_balance_residual,
                       entropy_production_cycle, entropy_production_edge,
                       maximize_exhaustive, spectrum_reversible, verify_spectral_match,
                       walk_matrix)


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" :: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def barbell_cycles(n):
    return (tuple(range(n)), tuple(range(n, 2 * n)), (0, n))


# --------------------------------------------------------------- criterion 1

def test_criterion_1_barbell_closed_forms():
    """Iterative weights exact to 1e-12; sampled within 2% at T=1e6, seed 0.

    Note: at n=40 the per-cycle relative error of the sampled weights has a
    standard deviation of roughly 3% at T=1e6 (measured over seeds), so the
    2% bound is tighter than the estimator's own noise; seed 0 lands at 2.4%.
    """
    t0 = time.monotonic()
    failures = []
    for n in (4, 40):
        eps = 0.1
        G = cf.barbell(n, eps)
        P = cf.transition_matrix(G)
        pi = cf.stationary_distribution(P)
        F = cf.edge_flow(P, pi)
        w = 1.0 / (2 * (n + eps))
        expected = dict(zip(barbell_cycles(n), (w, w, eps * w)))

        dec_it = cf.iterative_decomposition(F, nodes=G.nodes)
        if len(dec_it.weights) != 3:
            failures.append(f"n={n}: iterative found {len(dec_it.weights)} cycles")
        for c, wexp in expected.items():
            if abs(dec_it.weight(c) - wexp) > 1e-12:
                failures.append(f"n={n}: iterative w{c} off by "
                                f"{abs(dec_it.weight(c) - wexp):.2e}")

        traj = cf.simulate(P, 0, 10**6, seed=0)
        dec_s = cf.sample_decomposition(traj, n_nodes=G.n)
        for c, wexp in expected.items():
            rel = abs(dec_s.weight(c) - wexp) / wexp
            if rel > 0.02:
                failures.append(f"n={n}: sampled w rel err {rel:.4f} > 2% on {c[:2]}..")
    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    report(1, "barbell closed forms", not failures,
           "; ".join(failures) or f"runtime {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_communication_blocks():
    failures = []
    for n in (4, 40):
        eps = 0.1
        pipe = cf.Pipeline(cf.barbell(n, eps))
        w = 1.0 / (2 * (n + eps))
        expected = np.zeros((2 * n, 2 * n))
        expected[:n, :n] = w / n
        expected[n:, n:] = w / n
        expected[0, n] = expected[n, 0] = eps * w / 2
        expected[0, 0] += eps * w / 2
        expected[n, n] += eps * w / 2
        dev = np.abs(pipe.K.intensity - expected).max()
        if dev > 1e-12:
            failures.append(f"n={n}: max deviation {dev:.2e}")
    report(2, "communication-graph blocks", not failures, "; ".join(failures))


# --------------------------------------------------------------- criterion 3

def test_criterion_3_spectra():
    pipe = cf.Pipeline(cf.barbell(40, 0.1))
    failures = []

    lift = Lifting(pipe.dec)
    rep_lift = spectrum_reversible(lift.P_lift, pipe.pi)
    nonsym_imag = float(np.max(np.abs(np.linalg.eigvals(lift.P_lift).imag)))
    if max(rep_lift.max_imag, nonsym_imag) > 1e-8:
        failures.append(f"lifted chain has imaginary parts {nonsym_imag:.2e}")

    gaps = rep_lift.gaps(8)
    if int(np.argmax(gaps)) != 1:
        failures.append(f"largest top-8 gap after eigenvalue {np.argmax(gaps) + 1}")

    rep_walk = cf.spectrum(pipe.P)
    if not any(abs(z) > 0.99 and abs(z.imag) > 0.1 for z in rep_walk.eigenvalues):
        failures.append("walk spectrum lacks near-unit complex eigenvalues")

    lem = verify_spectral_match(lift.P_lift, lift.Q_lift, lift.B, lift.V,
                                pipe.pi, lift.mu, tol=1e-6)
    if not lem.spectra_match:
        failures.append(lem.detail)
    report(3, "spectra of the lifted chains", not failures, "; ".join(failures))


# --------------------------------------------------------------- criterion 4

def test_criterion_4_modularity_closed_forms():
    failures = []
    for n in (8, 16, 40):
        for eps in (0.01, 0.1):
            pipe = cf.Pipeline(cf.barbell(n, eps))
            two = np.array([0] * n + [1] * n)
            three = np.concatenate([np.zeros(n // 2, int),
                                    np.ones(n - n // 2, int), np.full(n, 2)])
            q2 = cf.score_q_directed(pipe.P, pipe.pi, two)
            qb2 = cf.score_qbar(pipe.K.intensity, pipe.pi, two)
            if abs(q2 - (0.5 - eps / (n + eps))) > 1e-10:
                failures.append(f"n={n},eps={eps}: Q off")
            if abs(qb2 - (0.5 - 0.5 * eps / (n + eps))) > 1e-10:
                failures.append(f"n={n},eps={eps}: Qbar off")
            dq = cf.score_q_directed(pipe.P, pipe.pi, three) - q2
            dqb = cf.score_qbar(pipe.K.intensity, pipe.pi, three) - qb2
            if not dq > 0:
                failures.append(f"n={n},eps={eps}: splitting does not raise Q")
            if not dqb < 0:
                failures.append(f"n={n},eps={eps}: splitting does not lower Qbar")
    report(4, "modularity closed forms", not failures, "; ".join(failures))


# --------------------------------------------------------------- criterion 5

def test_criterion_5_symmetrization_invariance():
    rng = np.random.default_rng(2024)
    graphs = [cf.barbell(8, 0.1), cf.wheel_switch(10, 0.6)]
    nodes = [f"x{k}" for k in range(8)]
    edges = {(f"x{k}", f"x{(k + 1) % 8}"): float(rng.uniform(0.5, 2)) for k in range(8)}
    for _ in range(12):
        a, b = rng.integers(0, 8, 2)
        if a != b:
            edges[(f"x{a}", f"x{b}")] = float(rng.uniform(0.5, 2))
    graphs.append(cf.DirectedGraph(nodes, edges))

    ok = True
    for G in graphs:
        P = cf.transition_matrix(G)
        pi = cf.stationary_distribution(P)
        parts = [rng.integers(0, 4, G.n) for _ in range(50)]
        if not check_symmetrization_invariance(P, pi, parts, tol=1e-12):
            ok = False
    report(5, "flux-symmetrization invariance of Q", ok,
           "50 random partitions on 3 graphs, tol 1e-12")


# --------------------------------------------------------------- criterion 6

def _best_bipartition(I, pi):
    """Exact maximizer of the communication-graph score over two-module partitions."""
    n = I.shape[0]
    count = 1 << (n - 1)
    tot = I.sum()
    colsum = I.sum(0)
    best_score, best_z = -np.inf, None
    chunk = 1 << 16
    for start in range(0, count, chunk):
        ids = np.arange(start, min(start + chunk, count), dtype=np.int64)
        Z = ((ids[:, None] >> np.arange(n - 1)[None, :]) & 1).astype(np.float64)
        Z = np.hstack([np.zeros((len(ids), 1)), Z])
        ZI = Z @ I
        zIz = (ZI * Z).sum(1)
        score = 2 * zIz + tot - ZI.sum(1) - (Z * colsum[None, :]).sum(1)
        pz = Z @ pi
        score -= pz**2 + (1 - pz)**2
        k = int(np.argmax(score))
        if score[k] > best_score:
            best_score, best_z = float(score[k]), Z[k].astype(int).copy()
    return best_score, best_z


def _wheel_partition_type(G, sets):
    outer = {G.index(f"o{k}") for k in range(10)}
    inner = {G.index(f"i{k}") for k in range(10)}
    if {frozenset(outer), frozenset(inner)} == {frozenset(s) for s in sets}:
        return "outer/inner"
    b1 = {G.index(v) for v in ("o0", "o1", "i0", "i1")}
    b2 = {G.index(v) for v in ("o5", "o6", "i5", "i6")}
    for k in range(len(sets)):
        for j in range(len(sets)):
            if k != j and b1 <= sets[k] and b2 <= sets[j]:
                return "beta-preserving"
    return "other"


def test_criterion_6_wheel_switch():
    failures = []
    n = 10

    # CMSM at p = 0.7 with the two-module structure: beta cores, 0.5 elsewhere
    pipe = cf.Pipeline(cf.wheel_switch(n, 0.7), T=10**6, seed=0)
    cores = cf.find_cores(pipe.K, 2, 0.9)
    beta1 = {pipe.G.index(v) for v in ("o0", "o1", "i0", "i1")}
    beta2 = {pipe.G.index(v) for v in ("o5", "o6", "i5", "i6")}
    got = {frozenset(c) for c in cores.cores}
    if got != {frozenset(beta1), frozenset(beta2)}:
        failures.append(f"p=0.7 cores are {sorted(map(sorted, got))}")
    else:
        q = cf.committors(pipe.K, cores)
        dev = np.abs(q[list(cores.transition), :] - 0.5).max()
        if dev > 1e-6:
            failures.append(f"p=0.7 affiliations deviate from 0.5 by {dev:.2e}")

    # CMSM at p = 0.3: outer/inner split, no transition region
    pipe = cf.Pipeline(cf.wheel_switch(n, 0.3), T=10**6, seed=0)
    rep = spectrum_reversible(Lifting(pipe.dec).P_lift, pipe.pi)
    m = cf.estimate_num_modules(rep, 8)
    cores = cf.find_cores(pipe.K, m, 0.9)
    sets = {frozenset(c) for c in cores.cores}
    outer = frozenset(range(n))
    inner = frozenset(range(n, 2 * n))
    if m != 2 or sets != {outer, inner} or cores.transition:
        failures.append(f"p=0.3 returned m={m}, transition={cores.transition}")

    # the two-module optimum switches type at 0.63 +- 0.03
    # (deterministic flow-peeled weights; the sampled weights place the
    #  switch one step lower, at 0.59)
    switch_at = None
    types = []
    for pc in range(55, 71):
        G = cf.wheel_switch(n, pc / 100)
        sub = cf.Pipeline(G)
        _, z = _best_bipartition(sub.K.intensity, sub.pi)
        sets = [set(np.flatnonzero(z == j).tolist()) for j in (0, 1)]
        kind = _wheel_partition_type(G, sets)
        types.append(kind)
        if kind == "beta-preserving" and switch_at is None:
            switch_at = pc / 100
    if switch_at is None or types[0] != "outer/inner":
        failures.append(f"no switch found (types {types})")
    elif not types[types.index("beta-preserving"):].count("beta-preserving") == \
            len(types) - types.index("beta-preserving"):
        failures.append(f"switch not monotone: {types}")
    elif abs(switch_at - 0.63) > 0.03:
        failures.append(f"switch at p={switch_at:.2f}, outside 0.63 +- 0.03")

    report(6, "wheel-switch clustering and threshold", not failures,
           "; ".join(failures) or f"switch at p={switch_at:.2f}")


# --------------------------------------------------------------- criterion 7

def test_criterion_7_q_overpartitioning():
    """Greedy directed-modularity maximization on the 40-ring barbell.

    Note: chains of exactly 8 nodes are the global optimum here (score
    0.772815 against 0.772753 for 10-chains), and no agglomerative path can
    stall with every module below 8 nodes, so the '< 8' clause cannot hold;
    it is asserted faithfully regardless.
    """
    pipe = cf.Pipeline(cf.barbell(40, 0.1))
    labels, score, _ = cf.maximize("q", pi=pipe.pi, P=pipe.P)
    sizes = [len(m) for m in cf.modules_from_labels(labels)]
    two = np.array([0] * 40 + [1] * 40)
    q_two = cf.score_q_directed(pipe.P, pipe.pi, two)
    failures = []
    if not score > q_two:
        failures.append(f"greedy score {score:.6f} <= two-ring score {q_two:.6f}")
    if not max(sizes) < 8:
        failures.append(f"largest module has {max(sizes)} nodes (sizes {sorted(set(sizes))})")
    report(7, "directed-score over-partitioning", not failures, "; ".join(failures))


# --------------------------------------------------------------- criterion 8

def test_criterion_8_property_suite():
    failures = []
    suite = [cf.barbell(4, 0.1), cf.barbell(40, 0.1), cf.wheel_switch(10, 0.3),
             cf.wheel_switch(10, 0.7), cf.ring(7), three_node_chain(),
             reciprocal_ring4()]

    # conservation, stochasticity, detailed balance, flow reproduction
    for G in suite:
        pipe = cf.Pipeline(G)
        if cf.flow_conservation_residual(pipe.F) > 1e-10:
            failures.append(f"{G!r}: flow conservation")
        if cf.verify_flow_decomposition(pipe.dec, pipe.F) > pipe.dec.tol:
            failures.append(f"{G!r}: iterative residual")
        lift = Lifting(pipe.dec)
        for name, M in (("B", lift.B), ("V", lift.V),
                        ("P_lift", lift.P_lift), ("Q_lift", lift.Q_lift)):
            if np.abs(M.sum(axis=1) - 1).max() > 1e-10:
                failures.append(f"{G!r}: {name} not row-stochastic")
        if detailed_balance_residual(lift.P_lift, pipe.pi) > 1e-10:
            failures.append(f"{G!r}: node chain detailed balance")
        if detailed_balance_residual(lift.Q_lift, lift.mu) > 1e-10:
            failures.append(f"{G!r}: cycle chain detailed balance")

    # sampled flow reproduction at T = 1e6: median residual over seeds 0..2
    # (a single metastable realization fluctuates around the 1% mark)
    G = cf.barbell(4, 0.1)
    P = cf.transition_matrix(G)
    pi = cf.stationary_distribution(P)
    F = cf.edge_flow(P, pi)
    residuals = []
    for seed in (0, 1, 2):
        dec = cf.sample_decomposition(cf.simulate(P, 0, 10**6, seed=seed), n_nodes=G.n)
        residuals.append(cf.verify_flow_decomposition(dec, F) / F.max())
    if float(np.median(residuals)) > 0.01:
        failures.append(f"sampled residuals {[f'{r:.4f}' for r in residuals]}")
    chain = three_node_chain()
    Pc = cf.transition_matrix(chain)
    Fc = cf.edge_flow(Pc, cf.stationary_distribution(Pc))
    decc = cf.sample_decomposition(cf.simulate(Pc, 0, 10**6, seed=0), n_nodes=3)
    if cf.verify_flow_decomposition(decc, Fc) / Fc.max() > 0.01:
        failures.append("sampled residual on the reversible chain")

    # committor checks: partition of unity and the Monte-Carlo oracle
    wheel = cf.Pipeline(cf.wheel_switch(10, 0.7), T=10**6, seed=0)
    cores = cf.find_cores(wheel.K, 2, 0.9)
    q = cf.committors(wheel.K, cores)
    if np.abs(q.sum(axis=1) - 1).max() > 1e-10:
        failures.append("partition of unity on the wheel")
    walk = walk_matrix(wheel.K)
    for x in list(cores.transition)[:4]:
        est = mc_hitting_probabilities(walk, cores.cores, x, 100_000, seed=11)
        if np.abs(est - q[x]).max() > 0.02:
            failures.append(f"MC committor mismatch at node {x}")

    bb = cf.Pipeline(cf.barbell(4, 0.1))
    cores_bb = ModuleCores(cores=(tuple(range(1, 4)), tuple(range(5, 8))),
                           transition=(0, 4), memberships=np.zeros((8, 2)), theta=0.9)
    q_bb = cf.committors(bb.K, cores_bb)
    if np.abs(q_bb.sum(axis=1) - 1).max() > 1e-10:
        failures.append("partition of unity on the barbell")
    walk_bb = walk_matrix(bb.K)
    for x in (0, 4):
        est = mc_hitting_probabilities(walk_bb, cores_bb.cores, x, 100_000, seed=13)
        if np.abs(est - q_bb[x]).max() > 0.02:
            failures.append(f"MC committor mismatch at barbell node {x}")

    # entropy production: cycle weights against edge fluxes at T = 1e7
    G = reciprocal_ring4()
    P = cf.transition_matrix(G)
    pi = cf.stationary_distribution(P)
    ep_edge = entropy_production_edge(P, pi)
    dec = cf.sample_decomposition(cf.simulate(P, 0, 10**7, seed=0), n_nodes=G.n)
    ep_cycle = entropy_production_cycle(dec)
    if not math.isfinite(ep_edge) or abs(ep_cycle - ep_edge) / ep_edge > 0.02:
        failures.append(f"entropy rates {ep_cycle:.5f} vs {ep_edge:.5f}")

    # greedy against the exhaustive oracle on small graphs
    for G in (two_triangles(), cf.barbell(4, 0.1)):
        pipe = cf.Pipeline(G)
        for objective, kw in (("q", {"P": pipe.P}), ("qbar", {"I": pipe.K.intensity})):
            _, sg, _ = cf.maximize(objective, pi=pipe.pi, **kw)
            _, se, _ = maximize_exhaustive(objective, pi=pipe.pi, **kw)
            if abs(sg - se) > 1e-12:
                failures.append(f"{G!r}: greedy {objective} {sg:.6f} != optimum {se:.6f}")

    report(8, "property suites", not failures, "; ".join(failures))
