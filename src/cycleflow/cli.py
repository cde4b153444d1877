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
from .clustering import committors, estimate_num_modules, find_cores, hard_labels
from .commgraph import CommunicationGraph, Pipeline, cycle_graph, export_graph
from .cycles import decomposition_to_json, verify_flow_decomposition
from .graph import _edge_list_text, _read_fields, read_edge_list, read_trajectory
from .lifted import order_eigenvalues, spectrum, spectrum_csv
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
    decomposer: str | None = "sample"
    T: int | None = 1_000_000
    seed: int | None = 0
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


def _tag(config: RunConfig) -> dict:
    return {"config": asdict(config), "input_sha256": _sha256(config.trajectory or config.input)}


def _load_pipeline(config: RunConfig) -> Pipeline:
    """The run's decomposition source: the stored walk of --trajectory, or the graph
    file, peeled for decomposer "iterative", else its walk erased as it is drawn."""
    if config.trajectory is not None:
        return Pipeline(read_trajectory(config.trajectory))
    G = read_edge_list(config.input)
    if config.decomposer == "iterative":
        return Pipeline(G)
    if config.start is not None and config.start not in G.nodes:
        raise ValueError(f"unknown start node {config.start!r}")
    start = 0 if config.start is None else G.index(config.start)
    return Pipeline(G, T=config.T, seed=config.seed, start=start)


# the RunConfig fields each generator takes, in call order
_GENERATORS = {"barbell": ("n", "eps"), "wheel-switch": ("n", "p"), "ring": ("n",)}


def cmd_generate(config: RunConfig, output: Path) -> int:
    params = _GENERATORS[config.generator]
    if any(getattr(config, name) is None for name in params):
        raise ValueError(f"{config.generator} needs "
                         + " and ".join(f"--{name}" for name in params))
    # looked up per call, so the function called is the module's attribute at that time
    make = getattr(generators, config.generator.replace("-", "_"))
    G = make(*(getattr(config, name) for name in params))
    _write(output, _edge_list_text(G))
    print(f"wrote {G.n} nodes, {len(G.edges)} edges to {output}")
    return EXIT_OK


def cmd_decompose(config: RunConfig, pipe: Pipeline, outdir: Path) -> int:
    dec = pipe.dec
    extra = {"flow_residual": None}  # a stored walk has no graph, so no reference flow
    if pipe.G is not None:
        extra = {"flow_residual": verify_flow_decomposition(dec, pipe.F),
                 "max_flow": float(pipe.F.max())}
    extra.update(_tag(config))
    out = outdir / "decomposition.json"
    _write(out, decomposition_to_json(dec, extra))
    resid = extra["flow_residual"]
    print(f"{dec.lengths.size} cycles -> {out}"
          + (f" (flow residual {resid:.3e})" if resid is not None else ""))
    return EXIT_OK


def cmd_spectrum(config: RunConfig, pipe: Pipeline, outdir: Path) -> int:
    walk = spectrum(pipe.P, k=config.k)
    lifted = order_eigenvalues(np.linalg.eigvalsh(pipe.K.normalized), config.k)
    _write(outdir / "spectrum_walk.csv", spectrum_csv(walk))
    _write(outdir / "spectrum_lifted.csv", spectrum_csv(lifted))
    _dump_json(outdir / "spectrum.json", {
        **_tag(config),
        "walk_top": [[lam.real, lam.imag] for lam in walk[:10]],
        "lifted_top": [lam.real for lam in lifted[:10]],
        "lifted_max_imag": float(np.max(np.abs(lifted.imag))),
    })
    print(f"spectra -> {outdir}/spectrum_walk.csv, {outdir}/spectrum_lifted.csv")
    return EXIT_OK


def _cluster_cmsm(config: RunConfig, K: CommunicationGraph):
    """The cmsm result document, and the rows of partition.csv: a header, then one per node."""
    auto = config.m == "auto"
    m = estimate_num_modules(K.eigh.eigenvalues, config.m_max) if auto else int(config.m)
    found = find_cores(K, m, config.theta)
    q = committors(K, found.cores)
    labels, ties = hard_labels(q)
    ids, qs, labels = K.nodes, q.tolist(), labels.tolist()
    rows = [["node", "label", "tie", *(f"q{j}" for j in range(found.m))]]
    rows += [[v, label, tie, *row]  # csv writes each float as its repr
             for v, label, tie, row in zip(ids, labels, ties.astype(int).tolist(), qs)]
    return {
        "m": found.m,
        "cores": [[ids[v] for v in core] for core in found.cores],
        "transition_region": [ids[v] for v in found.transition],
        "committors": dict(zip(ids, qs)),
        "labels": dict(zip(ids, labels)),
        "ties": [ids[v] for v in np.flatnonzero(ties)],
        "theta_used": config.theta,
    }, rows


def cmd_cluster(config: RunConfig, pipe: Pipeline, outdir: Path) -> int:
    if config.method == "cmsm":
        result, rows = _cluster_cmsm(config, pipe.K)
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(rows)  # quotes ids holding , or "
        _write(outdir / "partition.csv", text.getvalue())
    else:
        objective = config.method.removesuffix("-max")
        # q-max reads the walk alone: K is built only for qbar
        matrix = {"I": pipe.K.intensity} if objective == "qbar" else {"P": pipe.P}
        labels, score, history = maximize(objective, pi=pipe.pi, **matrix)
        result = {
            "objective": objective,
            "value": score,
            "partition": [[pipe.G.nodes[v] for v in mod] for mod in modules_from_labels(labels)],
            "merge_history": history,
        }
    result.update(_tag(config))
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


def cmd_modularity(config: RunConfig, pipe: Pipeline, outdir: Path) -> int:
    G = pipe.G
    labels = _read_partition_file(config.partition, G)  # before K, so a bad file costs no walk
    result = {
        "q_directed": score_q_directed(pipe.P, pipe.pi, labels),
        "qbar": score_qbar(pipe.K.intensity, pipe.pi, labels),
        "modules": [[G.nodes[v] for v in mod] for mod in modules_from_labels(labels)],
        **_tag(config),
        "partition_sha256": _sha256(config.partition),
    }
    _dump_json(outdir / "modularity.json", result)
    print(f"Q={result['q_directed']:.6f} Qbar={result['qbar']:.6f} -> {outdir}/modularity.json")
    return EXIT_OK


def cmd_export_graph(config: RunConfig, pipe: Pipeline, output: Path) -> int:
    graph = pipe.K if config.which == "communication" else cycle_graph(pipe.dec)
    _write(output, export_graph(graph, config.format, include_self_loops=config.self_loops))
    print(f"{config.which} graph ({config.format}) -> {output}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cycleflow",
        description="Cycle-flow decomposition and fuzzy module detection "
                    "for directed weighted networks.")
    subparsers = ap.add_subparsers(dest="command", required=True)
    graph = ("--input", dict(help="edge-list TSV (src<TAB>dst<TAB>weight)"))
    decomposer = [("--decomposer", dict(choices=["sample", "iterative"])),
                  ("--T", dict(type=int)),
                  ("--seed", dict(type=int)),
                  ("--start", dict(help="start node for sampling (default: first node)"))]
    # name, summary, handler, output flag, and the options in --help order
    commands = [
        ("generate", "write a benchmark graph as edge-list TSV", cmd_generate, "--output",
         [("generator", dict(choices=list(_GENERATORS))),
          ("--n", dict(type=int, required=True)),
          ("--eps", dict(type=float)),
          ("--p", dict(type=float))]),
        ("decompose", "cycle decomposition plus flow residual", cmd_decompose, "--output-dir",
         [graph,
          ("--trajectory", dict(help="timeseries file, one node id per line")),
          *decomposer]),
        ("spectrum", "eigenvalues of the walk and its lifted chain", cmd_spectrum,
         "--output-dir",
         [graph, *decomposer,
          ("--k", dict(type=int, help="keep top-k by modulus"))]),
        ("cluster", "fuzzy modules or modularity maximization", cmd_cluster, "--output-dir",
         [graph, *decomposer,
          ("--method", dict(choices=["cmsm", "qbar-max", "q-max"], default="cmsm")),
          ("--m", dict(help="module count or 'auto'")),
          ("--m-max", dict(type=int)),
          ("--theta", dict(type=float))]),
        ("modularity", "score a given full partition", cmd_modularity, "--output-dir",
         [graph, *decomposer, ("--partition", dict(
             required=True, help="TSV node<TAB>module_index, every node assigned"))]),
        ("export-graph", "emit the communication or cycle graph", cmd_export_graph, "--output",
         [graph, *decomposer,
          ("--which", dict(choices=["communication", "cycle"], default="communication")),
          ("--format", dict(choices=["dot", "tsv", "json"], default="tsv")),
          ("--no-self-loops", dict(dest="self_loops", action="store_false"))]),
    ]
    for name, summary, run, output, options in commands:
        # an option left out stays out of the namespace, so RunConfig supplies its default
        p = subparsers.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        p.set_defaults(run=run)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.add_argument(output, dest="out", metavar=output[2:].upper().replace("-", "_"),
                       required=True)
    return ap


def _refuse(given: dict, names, option: str) -> None:
    """Raise ValueError naming the first of `names` given along with `option`, which
    leaves it unread: echoed, it would seem to have shaped the run."""
    for name in names:
        if name in given:
            raise ValueError(f"--{name.replace('_', '-')} and {option} exclude each other")


def _config_from_args(args) -> RunConfig:
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
    if args.command == "generate":  # a parameter its generator does not take goes unread
        _refuse(given, sorted({"eps", "p"}.difference(_GENERATORS[args.generator])), args.generator)
    elif "input" not in given and "trajectory" not in given:
        raise ValueError("--input is required")
    if "trajectory" in given:
        # a stored walk is decomposed as it is: no graph, decomposer or walk option applies
        _refuse(given, ("input", "decomposer", "T", "seed", "start"), "--trajectory")
        given.update(decomposer=None, T=None, seed=None)  # echoed as null: nothing drew it
    if given.get("decomposer") == "iterative":
        _refuse(given, ("start",), "--decomposer iterative")  # the peel starts at no node
    if given.get("method", "cmsm") != "cmsm":
        _refuse(given, ("m", "m_max", "theta"), f"--method {given['method']}")
    return RunConfig(**given)


def _validate_numbers(config: RunConfig) -> None:
    if config.T is not None and config.T < 2:
        raise ValueError("trajectory must contain at least 2 states")
    if not 0.5 < config.theta < 1:
        raise ValueError("theta must lie in (0.5, 1)")
    if config.m != "auto":
        if not config.m.lstrip("-").isdigit() or int(config.m) < 2:
            raise ValueError("m must be 'auto' or an integer >= 2")
    if config.m_max < 2:
        raise ValueError("m-max must be >= 2")
    if config.k is not None and config.k < 1:
        raise ValueError("k must be >= 1")
    if config.seed is not None and config.seed < 0:
        raise ValueError("seed must be >= 0")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        _validate_numbers(config)
        out = Path(args.out)
        if args.command == "generate":  # the one command with no decomposition source
            return args.run(config, out)
        return args.run(config, _load_pipeline(config), out)
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
