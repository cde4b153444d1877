"""Output checks for the CLI job, run after the timed passes, outside any timing.

Every failed check is charged to the command whose output it reads, so a
command counts as failed when it exits non-zero or any check on its output
fails.  Reference values come from the library itself (stationary vector,
scores) or from closed forms (barbell).
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

from workloads import BARBELL_EPS, Workload

# Peeling stops when every residual entry is below its tolerance, 1e-12 *
# max_flow raised to 8 times the flow's conservation error; cycles lighter
# than the tolerance are subtracted but not recorded, so an edge can end off
# by a few tolerances.  Allow a small multiple of it.
PEEL_RESIDUAL_MULT = 16.0
# Sampled barbell weights: the ring weights vary with the number of switches
# between the two rings, which is the bridge-cycle count, the smallest count.
# Relative error ~ 1/sqrt(min count) at one standard deviation; allow 5.
SAMPLED_Z = 5.0
EXACT_TOL = 1e-12
UNIT_TOL = 1e-9


def _decomposition_index(cf, dec_json: dict, G) -> dict:
    """Canonical index-tuple cycle -> weight, from a decomposition.json."""
    return {cf.canonical_cycle(G.index(v) for v in e["cycle"]): e["weight"]
            for e in dec_json["cycles"]}


def check_decompose(wl: Workload, dec: dict, ref: dict | None, peel_tol: float) -> list[str]:
    errs = []
    if any(e["weight"] <= 0 for e in dec["cycles"]):
        errs.append("non-positive cycle weight")
    if wl.decomposer == "iterative":
        bound = PEEL_RESIDUAL_MULT * peel_tol
        if not dec["flow_residual"] <= bound:
            errs.append(f"flow residual {dec['flow_residual']:.3e} > {bound:.3e}")
    else:
        if dec["T"] != wl.T:
            errs.append(f"T {dec['T']} != {wl.T}")
        covered = sum(e["count"] * len(e["cycle"]) for e in dec["cycles"])
        if covered > wl.T:
            errs.append(f"sum count*len = {covered} > T = {wl.T}")
        if any(e["weight"] != e["count"] / wl.T for e in dec["cycles"]):
            errs.append("weight != count / T")
    if ref is not None and dec["cycles"] != ref["cycles"]:
        errs.append("cycles or counts differ from the first pass of the same seed")
    if wl.family == "barbell" and wl.decomposer == "sample":
        errs += _check_barbell_weights(wl, dec)
    return errs


def _check_barbell_weights(wl: Workload, dec: dict) -> list[str]:
    cf_w = 1.0 / (2.0 * (wl.n + BARBELL_EPS))
    left = [f"l{k}" for k in range(wl.n)]
    right = [f"r{k}" for k in range(wl.n)]
    expected = {tuple(left): cf_w, tuple(right): cf_w, ("l0", "r0"): BARBELL_EPS * cf_w}
    found = {tuple(e["cycle"]): e for e in dec["cycles"]}
    if set(found) != set(expected):
        return [f"barbell cycles {sorted(found)[:3]} != the three expected cycles"]
    bound = SAMPLED_Z / math.sqrt(min(e["count"] for e in found.values()))
    errs = []
    for c, w in expected.items():
        rel = abs(found[c]["weight"] - w) / w
        if rel > bound:
            errs.append(f"sampled weight of {c[:2]}.. off by {rel:.4f} > {bound:.4f}")
    return errs


def check_spectrum(outdir: Path, n: int, slack: float) -> list[str]:
    """Walk spectrum leads with 1; the lifted one too, up to `slack`.

    The CLI symmetrizes the lifted chain with pi, but the chain is reversible
    with respect to the decomposition's node mass; for sampled weights the
    two differ by sampling error, which shifts the lifted eigenvalues by up
    to `slack` (see check_run).
    """
    errs = []
    top = json.loads((outdir / "spectrum.json").read_text())
    if abs(top["walk_top"][0][0] - 1.0) > UNIT_TOL or abs(top["walk_top"][0][1]) > UNIT_TOL:
        errs.append(f"walk spectrum leads with {top['walk_top'][0]}, not 1")
    if abs(top["lifted_top"][0] - 1.0) > UNIT_TOL + slack:
        errs.append(f"lifted spectrum leads with {top['lifted_top'][0]}, not 1 "
                    f"within {UNIT_TOL + slack:.3e}")
    for name, tol in (("spectrum_walk.csv", UNIT_TOL), ("spectrum_lifted.csv", UNIT_TOL + slack)):
        vals = np.loadtxt(outdir / name, delimiter=",", skiprows=1, ndmin=2)
        if vals.shape[0] != n:
            errs.append(f"{name}: {vals.shape[0]} eigenvalues for {n} nodes")
        if np.max(np.hypot(vals[:, 0], vals[:, 1])) > 1.0 + tol:
            errs.append(f"{name}: eigenvalue outside the unit disc by more than {tol:.3e}")
    if top["lifted_max_imag"] != 0.0:
        errs.append("lifted spectrum is not real")
    return errs


def check_cmsm(part: dict, G) -> list[str]:
    q = np.array([part["committors"][v] for v in G.nodes])
    errs = []
    if q.shape != (G.n, part["m"]) or part["m"] < 2:
        errs.append(f"committor matrix shape {q.shape} for m={part['m']}")
    if q.min() < 0.0 or q.max() > 1.0:
        errs.append("committor outside [0, 1]")
    if np.max(np.abs(q.sum(axis=1) - 1.0)) > UNIT_TOL:
        errs.append("committors do not sum to 1 per node")
    return errs


def check_score(part: dict, value: float) -> list[str]:
    if abs(part["value"] - value) > EXACT_TOL:
        return [f"{part['objective']} value {part['value']!r} != rescored {value!r}"]
    return []


def check_export(path: Path, G, mass: np.ndarray, pi_tol: np.ndarray | None,
                 pi: np.ndarray) -> list[str]:
    """Exported graph is symmetric, rows sum to node mass and, if peeled, to pi."""
    M = np.zeros((G.n, G.n))
    seen = set()
    errs = []
    for line in path.read_text().splitlines():
        a, b, w = line.split("\t")
        i, j = G.index(a), G.index(b)
        pair = (min(i, j), max(i, j))
        if pair in seen:
            errs.append(f"pair {a},{b} exported twice")
        seen.add(pair)
        M[i, j] = M[j, i] = float(w)
    rows = M.sum(axis=1)
    if np.max(np.abs(rows - mass)) > EXACT_TOL:
        errs.append(f"row sums off node mass by {np.max(np.abs(rows - mass)):.3e}")
    if pi_tol is not None and np.any(np.abs(rows - pi) > pi_tol):
        x = int(np.argmax(np.abs(rows - pi) - pi_tol))
        errs.append(f"row sum of {G.nodes[x]} off pi by {abs(rows[x] - pi[x]):.3e} "
                    f"> {pi_tol[x]:.3e}")
    return errs


def _guarded(fn, *args) -> list[str]:
    try:
        return fn(*args)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def check_run(cf, wl: Workload, graph: str, passes: list) -> dict:
    """(pass index, command) -> list of failure messages, for every failed op."""
    G = cf.read_edge_list(graph)
    P = cf.transition_matrix(G)
    pi = cf.stationary_distribution(P)
    F = cf.edge_flow(P, pi)
    peel_tol = max(1e-12 * float(F.max()), 8.0 * cf.flow_conservation_residual(F))
    outdeg = np.count_nonzero(P, axis=1)
    failures = defaultdict(list)
    if wl.family == "barbell":
        forms = cf.barbell_closed_forms(wl.n, BARBELL_EPS)
        center = {G.index("l0"), G.index("r0")}
        exact = np.array([forms["pi_center"] if i in center else forms["pi_ring"]
                          for i in range(G.n)])
        if np.max(np.abs(pi - exact)) > EXACT_TOL:
            for k in range(len(passes)):
                failures[(k, "decompose")].append("pi differs from the barbell closed form")

    ref = None
    K = None
    for k, rec in enumerate(passes):
        out = Path(rec["outdir"])
        for cmd, rc in rec["exit_codes"].items():
            if rc != 0:
                failures[(k, cmd)].append(f"exit code {rc}")
        try:
            dec = json.loads((out / "decomposition.json").read_text())
        except (OSError, ValueError) as exc:
            failures[(k, "decompose")].append(f"unreadable output: {exc}")
            continue
        failures[(k, "decompose")] += _guarded(check_decompose, wl, dec, ref, peel_tol)
        dec_obj = cf.CycleDecomposition(weights=_decomposition_index(cf, dec, G),
                                        kind=dec["kind"], n_nodes=G.n, nodes=G.nodes)
        mass = dec_obj.node_mass()
        # symmetrizing D^(1/2) M D^(-1/2) with pi instead of the node mass
        # moves each eigenvalue by at most ~2 max|sqrt(pi/mass) - 1|
        slack = 3.0 * float(np.max(np.abs(np.sqrt(pi * mass.sum() / mass) - 1.0)))
        if ref is None:
            ref = dec
            K = cf.communication_graph(dec_obj, pi)
        failures[(k, "spectrum")] += _guarded(check_spectrum, out, G.n, slack)
        failures[(k, "cluster_cmsm")] += _guarded(
            lambda: check_cmsm(json.loads((out / "cmsm/partition.json").read_text()), G))
        for cmd, sub, score in (
                ("cluster_qbar", "qbar", lambda lab: cf.score_qbar(K.intensity, pi, lab)),
                ("cluster_q", "q", lambda lab: cf.score_q_directed(P, pi, lab))):
            def rescore(sub=sub, score=score):
                part = json.loads((out / sub / "partition.json").read_text())
                modules = [[G.index(v) for v in mod] for mod in part["partition"]]
                return check_score(part, score(cf.labels_from_modules(modules, G.n)))
            failures[(k, cmd)] += _guarded(rescore)
        # A node's mass is its reproduced out-flow, so it can differ from pi by
        # the node's out-degree times the flow residual the decomposition reports.
        pi_tol = (EXACT_TOL + outdeg * dec["flow_residual"]
                  if wl.decomposer == "iterative" else None)
        failures[(k, "export_graph")] += _guarded(
            check_export, out / "communication.tsv", G, mass, pi_tol, pi)
    return {key: msgs for key, msgs in failures.items() if msgs}
