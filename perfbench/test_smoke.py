"""Smoke test of the benchmark harness: tiny sizes, one pass per workload.

    python3 -m pytest -q perfbench/test_smoke.py

Not part of the Tier-1 suite, whose test path is tests/.
"""

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(run_py: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", "all", "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170)


def _result(trace: int) -> dict:
    proc = _run(HERE / "run.py", trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(trace, kind):
    result = _result(trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {f"{w['name']}.{m['name']}": m["unit"]
                for w in SPEC["workloads"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace == 0:
        assert all(result["metrics"][f"{w['name']}.ops_ok"]["value"] == 1.0
                   for w in SPEC["workloads"])


def test_counts_repeat_for_a_seed():
    def counts():
        return {k: v["value"] for k, v in _result(1)["metrics"].items()
                if v["unit"] in ("count", "bytes")}
    assert counts() == counts()


def test_fails_without_the_sources():
    # a tree holding only the benchmark: it must refuse, not report a result
    bare = HERE.parent / ".bench_work" / "no-sources"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = _run(bare / HERE.name / "run.py", 0)
    finally:
        shutil.rmtree(bare)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()  # only if no run is using it
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
