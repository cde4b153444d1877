"""SHA-256 of every artifact the benchmark's six-command job writes for one input.

Runs decompose, spectrum, cluster cmsm / qbar-max / q-max and export-graph, the
job of perfbench/workloads.py, through `cycleflow.cli.main` in this process, and
prints `sha256  relpath` for each file written, in path order.  It also runs
generate for the barbell, wheel-switch and ring graphs, writing under
`generate/`, which checks the edge-list writer; generate makes that directory
itself, as every command makes its own.  With
`--trajectory PATH` it also runs `decompose --trajectory PATH`, writing under
`trajectory/`.  With `--exports` it also runs export-graph in every other
format, with and without self-loops, writing under `exports/`; the cycle graph
only for `--decomposer iterative`, as a sampled cycle graph is |cycles|^2 dense.
It then also runs `spectrum --k 3`, writing under `exports/spectrum-k3/`.
Run against two source trees on the same input files, it shows whether a change
kept every artifact byte-identical.  Pass the inputs by the same paths both
times: every JSON artifact echoes them.  Artifacts that read BLAS results
(π, K, the spectra) are byte-identical only on the same BLAS build and thread
count, so the script pins OpenBLAS, OpenMP and MKL to one thread before numpy
is imported, as perfbench does, and names numpy's BLAS on stderr.

Usage: PYTHONPATH=src python scripts/artifact_digests.py graph.tsv
           [--decomposer sample|iterative] [--T 1000000] [--seed 0]
           [--trajectory walk.txt] [--exports]
"""

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # read once, when numpy loads its BLAS

import numpy as np  # noqa: E402

from cycleflow.cli import main as cli_main  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import COMMANDS, Workload, job  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("input", help="edge-list TSV")
    ap.add_argument("--decomposer", choices=["sample", "iterative"], default="sample")
    ap.add_argument("--T", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trajectory", help="timeseries file, one node id per line")
    ap.add_argument("--exports", action="store_true",
                    help="also export the graphs in every format, with and without self-loops")
    args = ap.parse_args()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"numpy {np.__version__}, BLAS {blas['name']} {blas.get('version', '')}, 1 thread",
          file=sys.stderr)
    # family and n only build a workload's graph; the job reads decomposer and T
    wl = Workload(family="input", n=0, decomposer=args.decomposer, T=args.T)
    with tempfile.TemporaryDirectory() as tmp:
        argvs = job(wl, args.seed, args.input, tmp)
        commands = list(COMMANDS)
        for name, params in (("barbell", ["--n", "40", "--eps", "0.1"]),
                             ("wheel-switch", ["--n", "10", "--p", "0.37"]),
                             ("ring", ["--n", "12"])):
            argvs[name] = ["generate", name, *params, "--output", f"{tmp}/generate/{name}.tsv"]
            commands.append(name)
        if args.trajectory is not None:
            argvs["trajectory"] = ["decompose", "--trajectory", args.trajectory,
                                   "--output-dir", f"{tmp}/trajectory"]
            commands.append("trajectory")
        if args.exports:
            source = ["--input", args.input, "--decomposer", args.decomposer,
                      "--T", str(args.T), "--seed", str(args.seed)]
            kinds = ["communication"] + (["cycle"] if args.decomposer == "iterative" else [])
            for which in kinds:
                for fmt in ("tsv", "dot", "json"):
                    for loops in ([], ["--no-self-loops"]):
                        if (which, fmt, loops) == ("communication", "tsv", []):
                            continue  # the job's own export
                        name = f"{which}{'-no-self-loops' if loops else ''}.{fmt}"
                        argvs[name] = ["export-graph", *source, "--which", which,
                                       "--format", fmt, *loops, "--output",
                                       f"{tmp}/exports/{name}"]
                        commands.append(name)
            argvs["spectrum-k3"] = ["spectrum", *source, "--k", "3",
                                    "--output-dir", f"{tmp}/exports/spectrum-k3"]
            commands.append("spectrum-k3")
        for command in commands:
            with contextlib.redirect_stdout(sys.stderr):
                code = cli_main(argvs[command])
            if code != 0:
                sys.exit(f"{command} exited with code {code}")
        for path in sorted(p for p in Path(tmp).rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(tmp).as_posix()}")


if __name__ == "__main__":
    main()
