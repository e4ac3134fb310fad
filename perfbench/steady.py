"""Steadiness check: run workloads repeatedly and report spreads.

Runs ``perfbench/run.py`` sequentially (one run at a time, so runs do
not compete for cores) for every workload and seed, then prints, per
workload and end-to-end metric, the median and the quartile spread
``(Q3 - Q1) / median`` of each set of runs, the shift between the two
sets' medians, and the metric's bound from ``BENCHMARK.json``::

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --workloads serve-catalog --runs 5 --sets 1

The check passes when every run prints exactly the manifest's
end-to-end metrics, in their units, every run's output checks pass and,
for every metric (``setup_s`` included), each set's spread is at most its bound
and the second set's median is worse than the first's by at most the
bound; it exits 1 otherwise.  A run whose output checks fail still
contributes its metrics and is listed at the end.  Each workload's
first seed is also run once more, in a fresh process, and its
``REPRODUCIBLE`` metrics (the final NDCG@10 of training) must come out
bit for bit the same.  A spread
above a third of its bound is marked ``*``: that metric is within its
bound but too noisy for the bound to catch a change of that size
reliably.  Use the spreads to set the bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Metrics that one seed must reproduce exactly across runs.
REPRODUCIBLE = ("ndcg_at_10",)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stderr[-2000:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range as a share of the median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median) if median else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """How much ``second`` is worse than ``first``, as a share of it."""
    change = (second - first) / abs(first) if first else 0.0
    return -change if better == "higher" else change


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads",
        default=",".join(w["name"] for w in spec["workloads"]),
    )
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2, choices=(1, 2))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    units = {name: m["unit"] for name, m in bounds.items()}
    within_bounds = True
    failures = []
    for workload in args.workloads.split(","):
        sets = []
        for index in range(args.sets):
            runs = []
            for run in range(args.runs):
                seed = args.first_seed + index * args.runs + run
                result = run_once(workload, seed, args.seconds, 0)
                runs.append(result["metrics"])
                printed = {
                    name: m["unit"] for name, m in result["metrics"].items()
                }
                if printed != units:
                    failures.append(
                        f"{workload} seed {seed}: metrics {printed} are "
                        f"not the manifest's {units}"
                    )
                if not result["correct"] or result["failed"]:
                    failures.append(
                        f"{workload} seed {seed}: correct="
                        f"{result['correct']} failed={result['failed']}"
                    )
                values = " ".join(
                    f"{name}={m['value']:.4g}"
                    for name, m in result["metrics"].items()
                )
                print(f"{workload} set {index + 1} seed {seed}: {values}",
                      flush=True)
            sets.append(runs)
        first = sets[0][0]
        if any(name in first for name in REPRODUCIBLE):
            seed = args.first_seed
            again = run_once(workload, seed, args.seconds, 0)["metrics"]
            for name in REPRODUCIBLE:
                if name not in first:
                    continue
                values = first[name]["value"], again[name]["value"]
                same = values[0] == values[1]
                print(f"{workload} seed {seed} again: {name} "
                      f"{'identical' if same else 'DIFFERS'} {values}",
                      flush=True)
                if not same:
                    failures.append(f"{workload} seed {seed}: {name} "
                                    f"not reproduced {values}")
        print(f"\n{workload}")
        print(f"  {'metric':16s} {'bound':>6s} " + " ".join(
            f"{'median' + str(i + 1):>12s} {'iqr/med' + str(i + 1):>9s}"
            for i in range(args.sets)
        ) + ("  shift" if args.sets == 2 else ""))
        for name in sets[0][0]:
            bound = bounds[name]["bound"]
            cells = []
            medians = []
            for runs in sets:
                median, share = spread([r[name]["value"] for r in runs])
                medians.append(median)
                mark = "*" if share > bound / 3 else " "
                cells.append(f"{median:12.5g} {share:8.3%}{mark}")
                if share > bound:
                    within_bounds = False
            line = f"  {name:16s} {bound:6.2f} " + " ".join(cells)
            if len(medians) == 2:
                shift = worse_by(*medians, bounds[name]["better"])
                line += f"  {shift:+.3%}"
                if shift > bound:
                    within_bounds = False
            print(line, flush=True)
    for failure in failures:
        print(f"output checks failed: {failure}")
    print("\nwithin bounds" if within_bounds else "\nNOT within bounds")
    return 0 if within_bounds and not failures else 1


if __name__ == "__main__":
    sys.exit(main())
