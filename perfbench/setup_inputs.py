"""One set-up sample, in a fresh process: import cycleflow, build and write the graph.

run.py starts this several times and reports the median as `setup_s`.
Prints the elapsed seconds, normalized to the reference host speed by the
host-speed probe run right after, on its last stdout line.
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

import cycleflow  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import SMOKE, WORKLOADS, build_graph  # noqa: E402


def main(workload: str, seed: int, out: str, smoke: bool) -> None:
    wl = (SMOKE if smoke else WORKLOADS)[workload]
    cycleflow.write_edge_list(build_graph(cycleflow, wl, seed), out)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4] == "1")
    elapsed = time.perf_counter() - t0
    import hostspeed

    hostspeed.probe()  # warm-up
    speed = hostspeed.probe()
    print(hostspeed.normalize(elapsed, speed, speed))
