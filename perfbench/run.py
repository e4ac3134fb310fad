"""End-to-end and per-layer benchmark of the VSAN train-then-serve stack.

Run from the repository root::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 35 \
        --trace 0

``--trace 0`` prints the workload's end-to-end metrics; ``--trace 1``
runs the workload twice (untraced, then with spans recorded around the
public functions of every layer) and prints the per-layer metrics plus
the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Earlier
lines carry the machine stamp, the workload's input properties and a
human-readable breakdown.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys

# Pin BLAS (and any OpenMP pool) to one thread *before* numpy is
# imported anywhere: the router and the single shard worker already
# fill both cores of the reference machine, and a threaded BLAS in each
# forked worker would oversubscribe them.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("serve-hot", "serve-catalog")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(
            f"error: no repro package under {source}; run from a full "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, source)
    sys.path.insert(0, ROOT)

    from perfbench.harness import run_workload

    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
