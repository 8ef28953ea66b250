"""Smoke test of the benchmark, kept out of the package's test suite.

    python3 perfbench/smoke.py

Runs every workload at tiny sizes for one second, untraced and traced,
and checks that each run prints every metric of ``BENCHMARK.json`` with
its unit, ends with the result object and reports no failed operation.
It also checks that ``layers.json`` maps every per-layer metric, and
that without the package source the benchmark fails without a result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_run(workload: str, trace: int) -> None:
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"{workload} trace={trace}: metrics {sorted(got)} != {sorted(expected)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
        assert any(line.startswith(f"  {name} = ") and f" {m['unit']} (n=" in line
                   for line in lines), f"{name} not printed with its unit"
    assert any(line.startswith("  failed_frac = 0 frac ") for line in lines), "failed_frac is not 0"
    assert result["failed"] == 0 and result["correct"] and result["attempted"] >= 1, result
    print(f"ok {workload} trace={trace}: {result['attempted']} operations")


def check_layer_map() -> None:
    layers = json.loads((HERE / "layers.json").read_text())
    names = {m["name"] for m in SPEC["per_layer"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    assert set(layers) == names, sorted(set(layers) ^ names)
    for name, entry in layers.items():
        assert set(entry["moves"]) <= e2e, (name, entry["moves"])
        assert set(entry["on"]) | set(entry["no_change_predicted_on"]) <= set(WORKLOADS), name
    print("ok layers.json covers every per-layer metric")


def check_without_source() -> None:
    bare = HERE / "out" / f"bare-{os.getpid()}"
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*"):
            if path.is_file():
                shutil.copy(path, bare / "perfbench")
        proc = bench(bare, "--workload", WORKLOADS[0], "--seed", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "benchmark succeeded without the package source"
    assert '"correct"' not in proc.stdout, "benchmark printed a result without the package source"
    print("ok without the package source: exit", proc.returncode)


def main() -> int:
    check_layer_map()
    check_without_source()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
