"""Command-line front end: generate, decompose, spectrum, cluster, modularity, export-graph.

Every output JSON embeds the full run configuration and a SHA-256 hash of the
input file, and all serialization is key-sorted, so identical inputs and
configurations produce byte-identical outputs.

Exit codes: 0 success, 2 validation error, 3 numerical failure or out of memory.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import generators
from ._floattext import reprs
from .clustering import committors, estimate_num_modules, find_cores, fuzzy_partition
from .commgraph import Pipeline, cycle_graph, export_graph
from .cycles import decomposition_to_json, sample_decomposition, verify_flow_decomposition
from .graph import _read_fields, read_edge_list, read_trajectory, write_edge_list
from .lifted import SpectrumReport, spectrum
from .modularity import maximize, modules_from_labels, score_q_directed, score_qbar

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


@dataclass(frozen=True)
class RunConfig:
    """Echo of every parameter that influenced a run."""

    command: str
    input: str | None = None
    trajectory: str | None = None
    decomposer: str = "sample"
    T: int = 1_000_000
    seed: int = 0
    start: str | None = None
    m: str = "auto"
    m_max: int = 8
    theta: float = 0.9
    method: str | None = None
    k: int | None = None
    which: str | None = None
    format: str | None = None
    self_loops: bool = True
    partition: str | None = None
    generator: str | None = None
    n: int | None = None
    eps: float | None = None
    p: float | None = None


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _write(path: Path, text: str) -> None:
    """Write an artifact into its output directory, made on the first write, so a
    command refused before then leaves no directory behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _dump_json(path: Path, obj: dict) -> None:
    _write(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _tag(config: RunConfig, input_path=None) -> dict:
    tag = {"config": asdict(config)}
    if input_path is not None:
        tag["input_sha256"] = _sha256(input_path)
    return tag


def _load_pipeline(config: RunConfig) -> Pipeline:
    """Graph file -> Pipeline, decomposed by the configured decomposer."""
    G = read_edge_list(config.input)
    if config.decomposer == "iterative":
        return Pipeline(G)
    if config.decomposer == "sample":
        if config.start is not None and config.start not in G.nodes:
            raise ValueError(f"unknown start node {config.start!r}")
        start = 0 if config.start is None else G.index(config.start)
        return Pipeline(G, T=config.T, seed=config.seed, start=start)
    raise ValueError(f"unknown decomposer {config.decomposer!r}")


def cmd_generate(config: RunConfig, output: Path) -> int:
    if config.generator == "barbell":
        if config.n is None or config.eps is None:
            raise ValueError("barbell needs --n and --eps")
        G = generators.barbell(config.n, config.eps)
    elif config.generator == "wheel-switch":
        if config.n is None or config.p is None:
            raise ValueError("wheel-switch needs --n and --p")
        G = generators.wheel_switch(config.n, config.p)
    elif config.generator == "ring":
        if config.n is None:
            raise ValueError("ring needs --n")
        G = generators.ring(config.n)
    else:
        raise ValueError(f"unknown generator {config.generator!r}")
    write_edge_list(G, output)
    print(f"wrote {G.n} nodes, {len(G.edges)} edges to {output}")
    return EXIT_OK


def cmd_decompose(config: RunConfig, outdir: Path) -> int:
    if config.trajectory is not None:
        traj = read_trajectory(config.trajectory)
        dec = sample_decomposition(traj)
        extra = _tag(config, config.trajectory)
        extra["flow_residual"] = None  # no reference flow in timeseries mode
    else:
        pipe = _load_pipeline(config)
        dec = pipe.dec
        extra = _tag(config, config.input)
        extra["flow_residual"] = verify_flow_decomposition(dec, pipe.F)
        extra["max_flow"] = float(pipe.F.max())
    out = outdir / "decomposition.json"
    _write(out, decomposition_to_json(dec, extra))
    resid = extra.get("flow_residual")
    print(f"{dec.lengths.size} cycles -> {out}"
          + (f" (flow residual {resid:.3e})" if resid is not None else ""))
    return EXIT_OK


def cmd_spectrum(config: RunConfig, outdir: Path) -> int:
    pipe = _load_pipeline(config)
    rep_walk = spectrum(pipe.P, k=config.k)
    rep_lift = SpectrumReport.from_eigenvalues(np.linalg.eigvalsh(pipe.K.normalized), config.k)
    _write(outdir / "spectrum_walk.csv", rep_walk.csv_text())
    _write(outdir / "spectrum_lifted.csv", rep_lift.csv_text())
    _dump_json(outdir / "spectrum.json", {
        **_tag(config, config.input),
        "walk_top": [[lam.real, lam.imag] for lam in rep_walk.eigenvalues[:10]],
        "lifted_top": [lam.real for lam in rep_lift.eigenvalues[:10]],
        "lifted_max_imag": rep_lift.max_imag,
    })
    print(f"spectra -> {outdir}/spectrum_walk.csv, {outdir}/spectrum_lifted.csv")
    return EXIT_OK


def _cluster_cmsm(config: RunConfig, pipe: Pipeline):
    """The cmsm result document and the committor matrix it lists, one row per node."""
    if config.m == "auto":
        rep = SpectrumReport.from_eigenvalues(pipe.K.eigh.eigenvalues)
        m = estimate_num_modules(rep, config.m_max)
    else:
        m = int(config.m)
    G = pipe.G
    cores = find_cores(pipe.K, m, config.theta)
    q = committors(pipe.K, cores)
    part = fuzzy_partition(cores, q)
    return {
        "m": part.m,
        "cores": [[G.nodes[v] for v in core] for core in cores.cores],
        "transition_region": [G.nodes[v] for v in cores.transition],
        "committors": {G.nodes[v]: [float(x) for x in q[v]] for v in range(G.n)},
        "labels": {G.nodes[v]: int(part.labels[v]) for v in range(G.n)},
        "ties": [G.nodes[v] for v in np.flatnonzero(part.ties)],
        "theta_used": cores.theta,
    }, q


def cmd_cluster(config: RunConfig, outdir: Path) -> int:
    pipe = _load_pipeline(config)
    G, P, pi = pipe.G, pipe.P, pipe.pi
    if config.method == "cmsm":
        result, q = _cluster_cmsm(config, pipe)
        tie_set = set(result["ties"])
        qs = np.array(reprs(q), dtype=object).reshape(q.shape).tolist()
        rows = [["node", "label", "tie", *(f"q{j}" for j in range(result["m"]))]]
        rows += [[v, result["labels"][v], int(v in tie_set), *row] for v, row in zip(G.nodes, qs)]
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(rows)  # quotes ids holding , or "
        _write(outdir / "partition.csv", text.getvalue())
    elif config.method in ("qbar-max", "q-max"):
        if config.method == "qbar-max":
            labels, score, history = maximize("qbar", pi=pi, I=pipe.K.intensity)
        else:
            labels, score, history = maximize("q", pi=pi, P=P)
        result = {
            "objective": "qbar" if config.method == "qbar-max" else "q",
            "value": score,
            "partition": [[G.nodes[v] for v in mod] for mod in modules_from_labels(labels)],
            "merge_history": history,
        }
    else:
        raise ValueError(f"unknown clustering method {config.method!r}")
    result.update(_tag(config, config.input))
    _dump_json(outdir / "partition.json", result)
    print(f"{config.method} -> {outdir}/partition.json")
    return EXIT_OK


def _read_partition_file(path, G):
    labels = np.full(G.n, -1, dtype=int)
    first_line = {}
    for lineno, (node, mod) in _read_fields(path, 2, "node<TAB>module_index"):
        where = f"{path}:{lineno}"
        try:
            x = G.index(node)
        except KeyError as exc:
            raise ValueError(f"{where}: unknown node {node!r}") from exc
        try:
            j = int(mod)
        except ValueError as exc:
            raise ValueError(f"{where}: module index {mod!r} is not an integer") from exc
        if j < 0:
            raise ValueError(f"{where}: negative module index {j} for node {node!r}")
        if x in first_line:
            raise ValueError(f"{where}: node {node!r} listed again "
                             f"(first on line {first_line[x]})")
        first_line[x] = lineno
        labels[x] = j
    if np.any(labels < 0):
        missing = G.nodes[int(np.flatnonzero(labels < 0)[0])]
        raise ValueError(f"partition is not full: node {missing!r} unassigned")
    return labels


def cmd_modularity(config: RunConfig, outdir: Path) -> int:
    pipe = _load_pipeline(config)
    G, P, pi, K = pipe.G, pipe.P, pipe.pi, pipe.K
    labels = _read_partition_file(config.partition, G)
    result = {
        "q_directed": score_q_directed(P, pi, labels),
        "qbar": score_qbar(K.intensity, pi, labels),
        "modules": [[G.nodes[v] for v in mod] for mod in modules_from_labels(labels)],
        **_tag(config, config.input),
        "partition_sha256": _sha256(config.partition),
    }
    _dump_json(outdir / "modularity.json", result)
    print(f"Q={result['q_directed']:.6f} Qbar={result['qbar']:.6f} -> {outdir}/modularity.json")
    return EXIT_OK


def cmd_export_graph(config: RunConfig, output: Path) -> int:
    pipe = _load_pipeline(config)
    if config.which == "communication":
        graph = pipe.K
    elif config.which == "cycle":
        graph = cycle_graph(pipe.dec)
    else:
        raise ValueError(f"unknown graph kind {config.which!r}")
    text = export_graph(graph, config.format, include_self_loops=config.self_loops)
    output.write_text(text, encoding="utf-8")
    print(f"{config.which} graph ({config.format}) -> {output}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cycleflow",
        description="Cycle-flow decomposition and fuzzy module detection "
                    "for directed weighted networks.")
    subparsers = ap.add_subparsers(dest="command", required=True)

    def add_command(name, summary):
        # an option left out stays out of the namespace, so RunConfig supplies its default
        return subparsers.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)

    gen = add_command("generate", "write a benchmark graph as edge-list TSV")
    gen.add_argument("generator", choices=["barbell", "wheel-switch", "ring"])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--eps", type=float)
    gen.add_argument("--p", type=float)
    gen.add_argument("--output", required=True)

    def add_pipeline_args(p, trajectory=False):
        p.add_argument("--input", help="edge-list TSV (src<TAB>dst<TAB>weight)")
        if trajectory:
            p.add_argument("--trajectory", help="timeseries file, one node id per line")
        p.add_argument("--decomposer", choices=["sample", "iterative"])
        p.add_argument("--T", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--start", help="start node for sampling (default: first node)")

    dec = add_command("decompose", "cycle decomposition plus flow residual")
    add_pipeline_args(dec, trajectory=True)
    dec.add_argument("--output-dir", required=True)

    spec = add_command("spectrum", "eigenvalues of the walk and its lifted chain")
    add_pipeline_args(spec)
    spec.add_argument("--k", type=int, help="keep top-k by modulus")
    spec.add_argument("--output-dir", required=True)

    clu = add_command("cluster", "fuzzy modules or modularity maximization")
    add_pipeline_args(clu)
    clu.add_argument("--method", choices=["cmsm", "qbar-max", "q-max"], default="cmsm")
    clu.add_argument("--m", help="module count or 'auto'")
    clu.add_argument("--m-max", type=int)
    clu.add_argument("--theta", type=float)
    clu.add_argument("--output-dir", required=True)

    mod = add_command("modularity", "score a given full partition")
    add_pipeline_args(mod)
    mod.add_argument("--partition", required=True,
                     help="TSV node<TAB>module_index, every node assigned")
    mod.add_argument("--output-dir", required=True)

    exp = add_command("export-graph", "emit the communication or cycle graph")
    add_pipeline_args(exp)
    exp.add_argument("--which", choices=["communication", "cycle"], default="communication")
    exp.add_argument("--format", choices=["dot", "tsv", "json"], default="tsv")
    exp.add_argument("--no-self-loops", dest="self_loops", action="store_false")
    exp.add_argument("--output", required=True)

    return ap


def _config_from_args(args) -> RunConfig:
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
    if (args.command != "generate" and given.get("trajectory") is None
            and given.get("input") is None):
        raise ValueError("--input is required")
    return RunConfig(**given)


def _validate_numbers(config: RunConfig) -> None:
    if config.T < 2:
        raise ValueError("trajectory must contain at least 2 states")
    if not 0.5 < config.theta < 1:
        raise ValueError("theta must lie in (0.5, 1)")
    if config.m != "auto":
        if not config.m.lstrip("-").isdigit() or int(config.m) < 2:
            raise ValueError("m must be 'auto' or an integer >= 2")
    if config.m_max < 2:
        raise ValueError("m-max must be >= 2")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        _validate_numbers(config)
        if args.command == "generate":
            return cmd_generate(config, Path(args.output))
        if args.command == "export-graph":
            return cmd_export_graph(config, Path(args.output))
        outdir = Path(args.output_dir)
        if args.command == "decompose":
            return cmd_decompose(config, outdir)
        if args.command == "spectrum":
            return cmd_spectrum(config, outdir)
        if args.command == "cluster":
            return cmd_cluster(config, outdir)
        if args.command == "modularity":
            return cmd_modularity(config, outdir)
        raise ValueError(f"unknown command {args.command!r}")
    # LinAlgError is a ValueError, so the numerical handler comes first
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
