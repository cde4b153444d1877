"""CLI-level benchmark of cycleflow: the six-command batch job on one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload barbell-sampled --seed 0 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 38 --trace 1

For each workload it
  1. sets up `SETUP_REPEATS` times in fresh processes (import cycleflow,
     generate the seeded graph, write the edge-list TSV); `setup_s` is the median;
  2. runs passes of decompose, spectrum, cluster cmsm / qbar-max / q-max and
     export-graph through `cycleflow.cli.main`, each pass in a fresh worker
     process (worker.py, BLAS threads pinned), until `--seconds` is used up;
  3. checks every pass's outputs, outside the timed region.

With `--trace 0` it reports end-to-end metrics: medians over passes of the
whole job (`pipeline_s`) and of each command, peak RSS of the workers, and
the share of commands that succeeded.  Each end-to-end time is wall time
normalized to a fixed reference host speed by the probe in hostspeed.py,
timed around each command in the same process; without it host-speed swings
of ~1.6x dominate the spread between runs.  Raw wall times per pass are
printed in the human-readable lines.  With `--trace 1` untraced and traced
passes alternate, and it reports per-layer metrics (medians over the traced
passes; span times are raw wall time) plus `trace.overhead_s`, taken from
normalized pass times.  Human-readable lines come first; the last
stdout line is one JSON object.  `--smoke` runs tiny sizes, one pass each.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import COMMANDS, SMOKE, WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
BLAS_THREADS = "1"
DEADLINE_S = 170.0  # a run must end within 180 s
CHECK_RESERVE_S = 30.0

END_TO_END_UNITS = {"setup_s": "s", "pipeline_s": "s",
                    **{f"{c}_s": "s" for c in COMMANDS},
                    "peak_rss_mb": "MB", "ops_ok": "share"}

LAYER_UNITS = {
    "graph.read_edge_list_s": "s", "graph.transition_matrix_s": "s",
    "graph.stationary_distribution_s": "s", "graph.simulate_s": "s",
    "graph.simulate_steps_per_s": "1/s", "graph.self_s": "s",
    "cycles.sample_decomposition_s": "s", "cycles.sample_steps_per_s": "1/s",
    "cycles.iterative_decomposition_s": "s", "cycles.verify_flow_decomposition_s": "s",
    "cycles.decomposition_to_json_s": "s", "cycles.n_cycles": "count",
    "cycles.decompositions_built": "count", "cycles.self_s": "s",
    "lifted.node_to_cycle_matrix_s": "s", "lifted.cycle_to_node_matrix_s": "s",
    "lifted.spectrum_s": "s", "lifted.spectrum_reversible_s": "s",
    "lifted.node_to_cycle_calls": "count", "lifted.b_bytes_computed": "bytes",
    "lifted.self_s": "s",
    "commgraph.communication_graph_s": "s", "commgraph.export_graph_s": "s",
    "commgraph.intensity_nnz": "count", "commgraph.self_s": "s",
    "clustering.estimate_num_modules_s": "s", "clustering.find_cores_s": "s",
    "clustering.committors_s": "s", "clustering.m": "count",
    "clustering.transition_size": "count", "clustering.self_s": "s",
    "modularity.maximize_qbar_s": "s", "modularity.maximize_q_s": "s",
    "modularity.merges_qbar": "count", "modularity.merges_q": "count",
    "modularity.self_s": "s",
    "cli.load_pipeline_s": "s", "cli.self_s": "s", "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _last_line(proc: subprocess.CompletedProcess, what: str) -> str:
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{what} exited with code {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def _metadata(seed: int) -> dict:
    import numpy

    git_sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"seed": seed, "git_sha": git_sha, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0))}


def _layer_metrics(passes: list) -> dict:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    per_pass = []
    for p in traced:
        m = {name: 0.0 for name in LAYER_UNITS}
        m.update({k: v for k, v in p["layers"].items() if k in LAYER_UNITS})
        lay = p["layers"]
        m["graph.simulate_steps_per_s"] = (
            lay.get("graph.steps", 0) / lay["graph.simulate_s"]
            if lay.get("graph.simulate_s") else 0.0)
        m["cycles.sample_steps_per_s"] = (
            lay.get("cycles.steps", 0) / lay["cycles.sample_decomposition_s"]
            if lay.get("cycles.sample_decomposition_s") else 0.0)
        m["cli.output_bytes"] = p["output_bytes"]
        per_pass.append(m)
    out = {name: statistics.median(m[name] for m in per_pass) for name in LAYER_UNITS}
    out["trace.overhead_s"] = (
        statistics.median(sum(p["seconds"].values()) for p in traced)
        - statistics.median(sum(p["seconds"].values()) for p in untraced))
    return out


def _breakdown(traced: list) -> dict:
    """Median over traced passes of each command's total and library-function times."""
    out = {}
    if not traced:
        return out
    for cmd in COMMANDS:
        keys = {k for p in traced for k in p["per_command"][cmd] if not k.startswith("cli.")}
        out[cmd] = {k: statistics.median(p["per_command"][cmd].get(k, 0.0) for p in traced)
                    for k in sorted(keys)}
    return out


def _end_to_end(passes: list, setups: list, peak_rss_mb: float, attempted: int,
                failed: int) -> dict:
    out = {"setup_s": statistics.median(setups),
           "pipeline_s": statistics.median(sum(p["seconds"].values()) for p in passes)}
    for c in COMMANDS:
        out[f"{c}_s"] = statistics.median(p["seconds"][c] for p in passes)
    out["peak_rss_mb"] = peak_rss_mb
    out["ops_ok"] = (attempted - failed) / attempted
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """Set up, run and check one workload; returns its result record."""
    t_start = time.perf_counter()
    wl = (SMOKE if smoke else WORKLOADS)[name]
    workdir = Path(".bench_work") / f"{name}-s{seed}"  # relative: outputs echo it
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    graph = f"{workdir.as_posix()}/graph.tsv"
    env = _env()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_inputs.py"), name, str(seed), graph,
                 str(int(smoke))], env=env, capture_output=True, text=True, timeout=60)
            setups.append(float(_last_line(proc, "set-up")))
        passes = []
        t_passes = time.perf_counter()
        while True:
            # with tracing, untraced and traced passes alternate so that the
            # overhead is measured under the same conditions
            traced = trace and len(passes) % 2 == 1
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--workload", name,
                 "--seed", str(seed), "--traced", str(int(traced)),
                 "--workdir", workdir.as_posix(), "--pass-index", str(len(passes))]
                + (["--smoke"] if smoke else []),
                env=env, capture_output=True, text=True,
                timeout=DEADLINE_S - (time.perf_counter() - t_start))
            passes.append(json.loads(_last_line(proc, "worker")))
            if len(passes) < 1 + trace:
                continue
            elapsed = time.perf_counter() - t_passes
            next_end = elapsed * (len(passes) + 1) / len(passes)
            if smoke or next_end > seconds or next_end > DEADLINE_S - CHECK_RESERVE_S:
                break

        import checks
        import cycleflow as cf

        if not Path(cf.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"cycleflow imported from {cf.__file__}, not {SRC}")
        failures = checks.check_run(cf, wl, graph, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for (k, cmd), msgs in sorted(failures.items()):
        for msg in msgs:
            print(f"FAILED {name} pass {k} {cmd}: {msg}", file=sys.stderr)
    attempted = len(COMMANDS) * len(passes)
    failed = len(failures)
    if trace:
        metrics = _layer_metrics(passes)
        units = LAYER_UNITS
        samples = sum(p["traced"] for p in passes)
    else:
        metrics = _end_to_end(passes, setups, max(p["peak_rss_mb"] for p in passes),
                              attempted, failed)
        units = END_TO_END_UNITS
        samples = len(passes)
    return {"workload": name, "attempted": attempted, "failed": failed,
            "samples": samples, "setup_samples": len(setups),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            "breakdown": _breakdown([p for p in passes if p["traced"]]),
            "pass_seconds": [round(sum(p["seconds"].values()), 4) for p in passes],
            "pass_wall_seconds": [round(sum(p["wall_seconds"].values()), 4) for p in passes]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, one pass each")
    args = ap.parse_args(argv)
    if not (SRC / "cycleflow" / "__init__.py").is_file():
        print(f"error: no cycleflow sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, args.trace, args.smoke)
                   for n in names]
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):
            Path(".bench_work").rmdir()  # only if no other run is using it

    print(json.dumps({"run": _metadata(args.seed)}))
    for r in results:
        what = "traced passes" if args.trace else "passes"
        print(f"# {r['workload']}: medians of {r['samples']} {what}, setup median of "
              f"{r['setup_samples']}; {r['failed']}/{r['attempted']} commands failed; "
              f"pass seconds {r['pass_seconds']}, as wall time {r['pass_wall_seconds']}")
        for k, m in r["metrics"].items():
            print(f"{r['workload']:16s} {k:38s} {m['value']:.6g} {m['unit']}")
        for cmd, funcs in r["breakdown"].items():
            total = funcs.pop("total")
            top = sorted(funcs.items(), key=lambda kv: -kv[1])[:4]
            print(f"# {r['workload']} {cmd}: {total:.3f} s; "
                  + ", ".join(f"{k} {v / total:.0%}" for k, v in top))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
