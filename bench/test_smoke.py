"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest bench/test_smoke.py      # or: python3 bench/test_smoke.py

Fails if a run exits non-zero, if any metric named in BENCHMARK.json is
missing or carries another unit, or if any correctness check or operation
fails.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().split("\n")[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_clean(workload, trace):
    result = run_tiny(workload, trace)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for metric in expected:
        got = result["metrics"].get(metric["name"])
        assert got is not None, f"{metric['name']} missing"
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float)), metric["name"]


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
