"""Wheel-switch experiments: fuzzy clustering and the two-module score threshold.

Runs the committor-based clustering at a high and a low switch probability,
then scans p and records which two-module partition maximizes the
communication-graph score (exhaustive over bipartitions), writing the scan as
CSV.

Usage: python scripts/run_wheel_switch.py [--n 10] [--T 1000000] [--out out/wheel]
"""

import argparse
from pathlib import Path

import numpy as np

import cycleflow as cf


def best_bipartition(I, pi):
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
        score = 2 * (ZI * Z).sum(1) + tot - ZI.sum(1) - (Z * colsum[None, :]).sum(1)
        pz = Z @ pi
        score -= pz**2 + (1 - pz) ** 2
        k = int(np.argmax(score))
        if score[k] > best_score:
            best_score, best_z = float(score[k]), Z[k].astype(int).copy()
    return best_score, best_z


def partition_type(G, n, z):
    sets = [set(np.flatnonzero(z == j).tolist()) for j in (0, 1)]
    outer = {G.index(f"o{k}") for k in range(n)}
    inner = {G.index(f"i{k}") for k in range(n)}
    if {frozenset(outer), frozenset(inner)} == {frozenset(s) for s in sets}:
        return "outer/inner"
    betas = [{G.index(v) for v in beta} for beta in cf.wheel_switch_beta_cycles(n)]
    for k in (0, 1):
        if betas[0] <= sets[k] and betas[1] <= sets[1 - k]:
            return "beta-preserving"
    return "other"


def cluster_report(n, p, T, seed, m=None):
    pipe = cf.Pipeline(cf.wheel_switch(n, p), T=T, seed=seed)
    G, dec, K = pipe.G, pipe.dec, pipe.K
    if m is None:
        m = cf.estimate_num_modules(K.eigh.eigenvalues, 8)
    cores = cf.find_cores(K, m, 0.9)
    q = cf.committors(K, cores.cores)
    print(f"\np = {p}: {len(dec.weights)} sampled cycles, m = {m}")
    for j, core in enumerate(cores.cores):
        print(f"  core {j}: {[G.nodes[v] for v in core]}")
    tr = list(cores.transition)
    if tr:
        print(f"  transition region ({len(tr)} nodes), affiliations "
              f"{np.round(q[tr, 0], 4).tolist()}")
    else:
        print("  no transition region")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--T", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="out/wheel")
    args = ap.parse_args()
    n = args.n
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    # the two clustering regimes: tight switch loops vs whole loops
    cluster_report(n, 0.7, args.T, args.seed, m=2)
    cluster_report(n, 0.3, args.T, args.seed)

    print("\ntwo-module score landscape (deterministic flow-peeled weights):")
    lines = ["p,best_two_module_score,outer_inner_score,winner"]
    switch_at = None
    for pc in range(50, 76):
        p = pc / 100
        pipe = cf.Pipeline(cf.wheel_switch(n, p))
        G, pi, K = pipe.G, pipe.pi, pipe.K
        score, z = best_bipartition(K.intensity, pi)
        kind = partition_type(G, n, z)
        lab_oi = np.array([0] * n + [1] * n)
        oi = cf.score_qbar(K.intensity, pi, lab_oi)
        lines.append(f"{p},{score!r},{oi!r},{kind}")
        marker = ""
        if kind != "outer/inner" and switch_at is None:
            switch_at = p
            marker = "   <-- switch"
        print(f"  p={p:.2f}  best2={score:.5f}  outer/inner={oi:.5f}  {kind}{marker}")
    (outdir / "qbar_scan.csv").write_text("\n".join(lines) + "\n")
    print(f"\nswitch at p = {switch_at}; scan written to {outdir}/qbar_scan.csv")


if __name__ == "__main__":
    main()
