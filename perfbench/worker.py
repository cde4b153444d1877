"""Run one pass of a workload's six-command job in this process.

Started by run.py in a fresh process per pass, with the BLAS thread count
pinned in its environment, so that the peak RSS it reports belongs to this
workload alone and each pass draws its own memory layout (timings differ by
up to ~10% between processes on shared hosts; the median over passes then
covers several).  Commands run through `cycleflow.cli.main([...])`.  The
host-speed probe (hostspeed.py) runs before the first command and after each
one, outside the timed regions.

Prints one JSON object on its last stdout line: command wall times, the same
times normalized to the reference host speed, exit codes, per-layer metrics
if traced, peak RSS.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import COMMANDS, SMOKE, WORKLOADS, job  # noqa: E402


def run_pass(cli, argvs: dict, tracer: Tracer | None) -> dict:
    times, normalized, codes = {}, {}, {}
    sink = io.StringIO()
    hostspeed.probe()  # warm-up
    before = hostspeed.probe()
    for name in COMMANDS:
        gc.collect()
        with contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            if tracer is None:
                rc = cli.main(argvs[name])
            else:
                with tracer.command(name):
                    rc = cli.main(argvs[name])
            times[name] = time.perf_counter() - t0
        codes[name] = rc
        sink.seek(0)
        sink.truncate()
        after = hostspeed.probe()
        normalized[name] = hostspeed.normalize(times[name], before, after)
        before = after
    return {"traced": tracer is not None, "wall_seconds": times, "seconds": normalized,
            "exit_codes": codes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--pass-index", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    wl = (SMOKE if args.smoke else WORKLOADS)[args.workload]

    import cycleflow.cli as cli

    outdir = f"{args.workdir}/pass{args.pass_index}"
    tracer = Tracer() if args.traced else None
    if tracer is not None:
        tracer.install()
    try:
        record = run_pass(cli, job(wl, args.seed, f"{args.workdir}/graph.tsv", outdir), tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    record["outdir"] = outdir
    record["output_bytes"] = sum(p.stat().st_size for p in Path(outdir).rglob("*")
                                 if p.is_file())
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        record["per_command"] = tracer.command_breakdown()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
