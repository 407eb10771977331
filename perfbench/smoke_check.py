"""Smoke test of the benchmark harness at tiny sizes.

Run from the root of the checkout, either directly or through pytest:

    python3 perfbench/smoke_check.py
    python3 -m pytest -q perfbench/smoke_check.py

It runs every workload with --smoke, untraced and traced, and asserts
that the outputs pass their checks, that every metric is printed with a
unit, that the final JSON line holds exactly the metrics BENCHMARK.json
declares, and that the computed counts repeat exactly on a second seed.
The file name keeps it out of the package's default test collection.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("spin-ensemble", "molecule-ensemble", "sampling-scan", "reference-sweep")
# Printed on every workload, untraced; the JSON line carries only the
# BENCHMARK.json subset.
COMMON = {"wall_s": "s", "setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB",
          "fail_frac": "ratio"}
RATES = {
    "spin-ensemble": {"traj_steps_per_s": "trajectory-steps/s",
                      "traj_steps_per_s_1t": "trajectory-steps/s", "parallel_eff": "ratio"},
    "molecule-ensemble": {"traj_steps_per_s": "trajectory-steps/s"},
    "sampling-scan": {"traj_steps_per_s": "trajectory-steps/s"},
    "reference-sweep": {"sweep_points_per_s": "1/s"},
}
COUNTS = ("linalg.matexp_matrices", "noisegate.gates_built", "noisegate.sk_macs",
          "engine.noise_bytes")


def run(workload: str, trace: int, seed: int = 1):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()[:4]
            printed[name] = (float(value), unit)
    return printed, json.loads(lines[-1])


def test_smoke():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            printed, result = run(workload, trace)
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert list(result["metrics"]) == [m["name"] for m in declared[kind]]
            for m in declared[kind]:
                assert result["metrics"][m["name"]]["unit"] == m["unit"], m
                assert printed[m["name"]][1] == m["unit"], m
            expected = dict(COMMON, **RATES[workload])
            for name, unit in expected.items():
                assert printed[name][1] == unit, (workload, name, printed.get(name))
            if trace:
                again, _ = run(workload, trace, seed=2)
                for name in COUNTS:
                    assert printed[name] == again[name], (workload, name)


if __name__ == "__main__":
    test_smoke()
    print("smoke check passed")
