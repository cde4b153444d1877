"""Workload definitions: seeded input graphs and the six-command CLI job.

Each workload is one graph family, one decomposer and one trajectory length.
The workload seed drives both the random graph and the CLI's `--seed`; the
program only ever sees the generated edge-list file.

Why these three (and what was left out) is recorded in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    family: str          # "barbell" or "random"
    n: int               # ring size (barbell) or node count (random)
    decomposer: str      # "sample" or "iterative"
    T: int               # trajectory length for the sampling decomposer


# T = 1e6 is the CLI default for the sampling decomposer.  The random
# workloads are sized so that one pass of the six commands takes about 4 s on
# a 2-core x86 host: there a single command's time varies by ~10% between
# repeats, so a run needs several passes for steady medians.  At n=500
# peeling and greedy merging are still ~3/4 of the job.  At n=120 and T=3e5
# sampling yields ~11k distinct cycles, whose count varies by ~8% between
# seeds (~35% at n=60).
WORKLOADS = {
    "barbell-sampled": Workload("barbell", 40, "sample", 1_000_000),
    "random-peeled": Workload("random", 500, "iterative", 1_000_000),
    "random-sampled": Workload("random", 120, "sample", 300_000),
}

# Tiny sizes for the smoke test of the harness itself: one pass each, seconds.
SMOKE = {
    "barbell-sampled": Workload("barbell", 5, "sample", 20_000),
    "random-peeled": Workload("random", 12, "iterative", 20_000),
    "random-sampled": Workload("random", 8, "sample", 20_000),
}

BARBELL_EPS = 0.1

# Command names in job order; the metric for command c is f"{c}_s".
COMMANDS = ("decompose", "spectrum", "cluster_cmsm", "cluster_qbar", "cluster_q",
            "export_graph")


def random_strong_graph(cf, rng, n):
    """A seeded random ring plus 2n random extra edges, weights U(0.2, 3).

    Same construction as the test suite's random strongly connected graph,
    with the number of extra-edge draws fixed at 2n.
    """
    nodes = [f"x{k}" for k in range(n)]
    perm = rng.permutation(n)
    edges = {}
    for i in range(n):
        a, b = perm[i], perm[(i + 1) % n]
        edges[(f"x{a}", f"x{b}")] = float(rng.uniform(0.2, 3.0))
    for _ in range(2 * n):
        a, b = rng.integers(0, n, 2)
        if a != b:
            edges[(f"x{a}", f"x{b}")] = float(rng.uniform(0.2, 3.0))
    return cf.DirectedGraph(nodes, edges)


def build_graph(cf, wl: Workload, seed: int):
    """The workload's input graph for `seed`, built with the package `cf`."""
    if wl.family == "barbell":
        return cf.barbell(wl.n, BARBELL_EPS)
    return random_strong_graph(cf, np.random.default_rng(seed), wl.n)


def job(wl: Workload, seed: int, graph: str, outdir: str) -> dict:
    """argv for each command of one pass, writing under `outdir`."""
    common = ["--input", graph, "--decomposer", wl.decomposer,
              "--T", str(wl.T), "--seed", str(seed)]
    return {
        "decompose": ["decompose", *common, "--output-dir", outdir],
        "spectrum": ["spectrum", *common, "--output-dir", outdir],
        "cluster_cmsm": ["cluster", *common, "--method", "cmsm", "--m", "auto",
                         "--output-dir", f"{outdir}/cmsm"],
        "cluster_qbar": ["cluster", *common, "--method", "qbar-max",
                         "--output-dir", f"{outdir}/qbar"],
        "cluster_q": ["cluster", *common, "--method", "q-max",
                      "--output-dir", f"{outdir}/q"],
        "export_graph": ["export-graph", *common, "--which", "communication",
                         "--format", "tsv", "--output", f"{outdir}/communication.tsv"],
    }
