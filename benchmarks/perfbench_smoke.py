#!/usr/bin/env python
"""Smoke-check the wiring of the end-to-end benchmark (``perfbench/``).

Usage (from the repository root; ``make perfbench-smoke`` runs it)::

    python3 benchmarks/perfbench_smoke.py

Runs ``perfbench/run.py`` briefly and traced on each serving workload
and fails unless every run exits 0 and its last output line is a JSON
result whose ``metrics`` name every ``per_layer`` metric declared in
``BENCHMARK.json``.  The tracer wraps program functions by name, so a
refactor that renames or moves one of them shows up here as a missing
metric or a crash, long before a full benchmark run.

The result's ``correct`` flag is printed but not gated: float32 VSAN
rankings can differ between batch 16 and batch 1 on near-tied scores
(see ``docs/SERVING.md``), so it depends on how requests happen to be
batched.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve-hot", "serve-catalog")
SECONDS = 6


def check(workload: str, expected: list[str]) -> list[str]:
    """Run one traced workload; return the problems found (empty = OK)."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "1", "--seconds", str(SECONDS), "--trace", "1",
    ]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if run.returncode != 0:
        return [f"exit code {run.returncode}:\n{run.stderr[-2000:]}"]
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = result["metrics"]
    except (IndexError, ValueError, KeyError, TypeError) as error:
        return [f"last line is not a JSON result ({error})"]
    print(f"{workload}: correct={result.get('correct')} "
          f"attempted={result.get('attempted')} "
          f"failed={result.get('failed')}")
    missing = [name for name in expected if name not in metrics]
    return [f"missing per-layer metric {name}" for name in missing]


def main() -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = [entry["name"] for entry in manifest["per_layer"]]
    failures = 0
    for workload in WORKLOADS:
        problems = check(workload, expected)
        for problem in problems:
            print(f"{workload}: {problem}")
        failures += bool(problems)
    if failures:
        print(f"FAIL: {failures} workload(s) broke the benchmark wiring")
        return 1
    print(f"OK: {len(WORKLOADS)} workloads, {len(expected)} per-layer "
          "metrics each")
    return 0


if __name__ == "__main__":
    sys.exit(main())
