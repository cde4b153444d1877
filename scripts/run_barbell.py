"""Barbell experiments: closed forms, spectra, and the two modularity scores.

Reproduces the analytic cycle weights with both decomposers, writes the walk
and lifted-chain spectra as CSV, and tabulates how the directed score rewards
over-partitioning while the communication-graph score does not.

Usage: python scripts/run_barbell.py [--n 40] [--eps 0.1] [--T 1000000] [--out out/barbell]
"""

import argparse
import time
from pathlib import Path

import numpy as np

import cycleflow as cf


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=40)
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--T", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="out/barbell")
    args = ap.parse_args()
    n, eps = args.n, args.eps
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    pipe = cf.Pipeline(cf.barbell(n, eps))
    G, P, pi, F = pipe.G, pipe.P, pipe.pi, pipe.F
    forms = cf.barbell_closed_forms(n, eps)
    w = forms["w"]

    print(f"barbell n={n} eps={eps}: {G.n} nodes, {len(G.edges)} edges")
    print(f"stationary: ring node {pi[G.index('l1')]:.8f} (exact {w:.8f}), "
          f"center {pi[G.index('l0')]:.8f} (exact {forms['pi_center']:.8f})")

    dec_it = pipe.dec
    print(f"\nflow peeling found {len(dec_it.weights)} cycles:")
    for c in dec_it.cycles:
        print(f"  len {len(c):3d}  w = {dec_it.weights[c]:.10f}")
    print(f"exact ring weight {w:.10f}, bridge weight {eps * w:.10f}")

    t0 = time.monotonic()
    dec_s = cf.Pipeline(G, T=args.T, seed=args.seed).dec
    print(f"\nsampling T={args.T:.0e} took {time.monotonic() - t0:.2f}s, "
          f"{len(dec_s.weights)} cycles")
    for c in dec_s.cycles:
        exact = dec_it.weights.get(c, 0.0)
        rel = abs(dec_s.weights[c] - exact) / exact if exact else float("nan")
        print(f"  len {len(c):3d}  w_T = {dec_s.weights[c]:.8f}  rel err {rel:.4f}")
    print(f"flow residual: {cf.verify_flow_decomposition(dec_s, F):.3e} "
          f"({cf.verify_flow_decomposition(dec_s, F) / F.max():.4%} of max flow)")

    rep_walk = cf.spectrum(P)
    rep_lift = cf.SpectrumReport.from_eigenvalues(np.linalg.eigvalsh(pipe.K.normalized))
    (outdir / "spectrum_walk.csv").write_text(rep_walk.csv_text())
    (outdir / "spectrum_lifted.csv").write_text(rep_lift.csv_text())
    lam = rep_lift.real_sorted()
    print(f"\nlifted spectrum: {np.round(lam[:5], 6)}")
    print(f"analytic lambda_2 = {1 - eps / (n * (1 + eps)):.6f}, "
          f"lambda_3 = {(eps / (1 + eps)) * (1 - 1 / n):.6f}")
    print(f"wrote spectra to {outdir}/")

    K = pipe.K
    two = np.array([0] * n + [1] * n)
    three = np.concatenate([np.zeros(n // 2, int), np.ones(n - n // 2, int),
                            np.full(n, 2)])
    rows = [("two rings", two), ("one ring split in half", three)]
    print(f"\n{'partition':28s} {'Q':>12s} {'Qbar':>12s}")
    for name, lab in rows:
        print(f"{name:28s} {cf.score_q_directed(P, pi, lab):12.6f} "
              f"{cf.score_qbar(K.intensity, pi, lab):12.6f}")
    print(f"{'closed form (two rings)':28s} {0.5 - eps / (n + eps):12.6f} "
          f"{0.5 - 0.5 * eps / (n + eps):12.6f}")

    lab_g, score_g, _ = cf.maximize("q", pi=pi, P=P)
    sizes = sorted(len(m) for m in cf.modules_from_labels(lab_g))
    print(f"\ngreedy Q maximization: {len(sizes)} modules, sizes {sizes}, "
          f"Q = {score_g:.6f}")
    lab_b, score_b, _ = cf.maximize("qbar", pi=pi, I=K.intensity)
    sizes_b = sorted(len(m) for m in cf.modules_from_labels(lab_b))
    print(f"greedy Qbar maximization: {len(sizes_b)} modules, sizes {sizes_b}, "
          f"Qbar = {score_b:.6f}")


if __name__ == "__main__":
    main()
