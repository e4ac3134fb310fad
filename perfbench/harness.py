"""Runs one workload and prints its stamp, inputs, report and result."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time

import numpy as np

from . import host, serving, training, tracing

# Set-ups per untraced run; setup_s is their host-quiet median.  A
# catalogue set-up (index build) takes ~1.5 s, a hot one ~0.2 s.
SETUPS = {"serve-hot": 15, "serve-catalog": 5}
SPANS_DIR = ".perfbench"  # span exports of the traced run, under the root


def emit(kind: str, payload) -> None:
    print(f"{kind} {json.dumps(payload, sort_keys=True)}", flush=True)


def stamp(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or any reaped child (Linux
    reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


metric = tracing.metric

SPECS = {
    "serve-hot": serving.SERVE_HOT,
    "serve-catalog": serving.SERVE_CATALOG,
}
# Share of --seconds given to training; serving takes the rest (see
# ``serving.OPEN_SHARE`` / ``CLOSED_SHARE``).
TRAIN_SHARE = 0.4


def run_pipeline(spec, seed: int, seconds: float, setups: int,
                 split) -> dict:
    """Set up ``setups`` times, then, with the last deployment serving
    its initial model: train, roll out the trained model and serve
    (:func:`perfbench.serving.measure`).  Returns the raw results."""
    inputs = serving.make_inputs(spec, seed, seconds)
    deployment, setup_times = serving.set_up(spec, inputs, setups)
    with deployment.cluster:
        # The router process, pinned to the first CPU, trains.
        trained = training.train(
            split, seed, training.epochs_for(TRAIN_SHARE * seconds),
            host.HostSteal(serving.CPUS[:1]),
        )
        first = serving.served_model(deployment.model, trained["model"])
        results = serving.measure(
            spec, seed, seconds, deployment, inputs, first
        )
    results["setup_times"] = setup_times
    results["training"] = trained
    return results


def latency_ms(phases, percentile: float) -> float:
    """Host-quiet median over the open-loop rounds of each round's
    latency percentile (>= 1,000 requests a round)."""
    return host.quiet_median(
        (1e3 * np.percentile(phase.latencies, percentile), phase.steal)
        for phase in phases
    )


def end_to_end(results: dict) -> dict:
    phases = results["phases"]
    trained = results["training"]
    offered = sum(p.offered for p in phases)
    within = sum(p.within_slo for p in phases)
    return {
        "setup_s": metric(host.quiet_median(results["setup_times"]), "s"),
        "latency_p50_ms": metric(latency_ms(phases, 50), "ms"),
        "latency_p99_ms": metric(latency_ms(phases, 99), "ms"),
        "slo_attainment": metric(within / offered, "ratio"),
        "rollout_s": metric(
            host.quiet_median(results["rollout_times"]), "s"
        ),
        "epoch_s": metric(
            (trained["fit_seconds"] - trained["fit_steal"])
            / trained["epochs"],
            "s",
        ),
        "ndcg_at_10": metric(
            trained["history"].validation_scores[-1][1], "ratio"
        ),
    }


def check(spec, seed: int, split, results: dict) -> dict:
    """Every output check of a run: the served probe rankings (see
    :func:`perfbench.serving.check_probes`) and the training repeat
    (see :func:`perfbench.training.repeat_check`)."""
    checks = serving.check_probes(spec, seed, results)
    checks["training"] = training.repeat_check(
        split, seed, results["training"]
    )
    return checks


def counts(results: dict, checks: dict) -> tuple[int, int]:
    """(attempted, failed): every offered request, every probe, the fit
    and its repeat."""
    phases = results["phases"] + results["closed_phases"]
    attempted = sum(p.offered for p in phases) + checks["probes"] + 2
    failed = (
        sum(p.shed + p.failed + p.wrong for p in phases)
        + checks["mismatches"] + checks["training"]["mismatches"]
    )
    return attempted, failed


def seconds_and_steal(samples) -> list:
    return [[round(t, 4), round(steal, 3)] for t, steal in samples]


def report(spec, split, results: dict, checks: dict) -> None:
    for phase in results["phases"] + results["closed_phases"]:
        emit("phase", phase.summary())
    trained = results["training"]
    emit("inputs", {
        **serving.input_properties(spec, results),
        **training.input_properties(split, trained["epochs"]),
    })
    emit("checks", {
        "probe_mismatches": checks["mismatches"],
        "probes": checks["probes"],
        "short_lists": checks["short_lists"],
        # Quality, not correctness: see perfbench/README.md.
        "recall_at_10": checks["recall_at_10"],
        "rebuilt_recall_at_10": checks["rebuilt_recall_at_10"],
        **checks["training"],
        "validation_scores": trained["history"].validation_scores,
        # Printed, not metrics; see perfbench/README.md.
        "capacity_rps": round(results["capacity_rps"], 1),
        "capacity_windows": results["capacity_windows"],
        "peak_rss_mb": round(peak_rss_mb(), 1),
        "rollout_seconds": seconds_and_steal(results["rollout_times"]),
        "setup_seconds": seconds_and_steal(results["setup_times"]),
        "fit_seconds": round(trained["fit_seconds"], 4),
        "fit_steal_seconds": round(trained["fit_steal"], 4),
    })


def stats_delta(results: dict) -> dict:
    before = results["blocks"][0]["stats"]
    after = results["blocks"][1]["stats"]
    return {
        key: after[key] - before[key]
        for key in ("served", "fallbacks", "narrow_ranked",
                    "dense_fallbacks")
    }


def queue_waits(recorder, results: dict) -> list[float]:
    start, end = results["window"]
    dispatches = []
    for name, began, _, _, measure in recorder.spans:
        if name == "pool.send" and measure and start <= began <= end:
            dispatches.extend([began] * measure[0])
    dues = results["queue_dues"]
    return [sent - due for sent, due in zip(dispatches, dues)]


def traced(spec, seed: int, seconds: float, split):
    """One untraced run (the overhead baseline), then one with spans
    recorded; returns the per-layer metrics and the traced run."""
    plain = end_to_end(run_pipeline(spec, seed, seconds, 1, split))
    export_dir = tempfile.mkdtemp(prefix="spans-", dir=spans_dir())
    recorder = tracing.SpanRecorder()
    patches = tracing.install(recorder, export_dir)
    try:
        results = run_pipeline(spec, seed, seconds, 1, split)
    finally:
        patches.remove()
    worker_spans, gauges = tracing.load_exports(export_dir)
    shutil.rmtree(export_dir, ignore_errors=True)
    span_lists = [recorder.spans, worker_spans]
    train_window = results["training"]["window"]
    serve = tracing.Layers(span_lists, *results["window"])
    train = tracing.Layers(span_lists, *train_window)
    both = tracing.Layers(span_lists, train_window[0], results["window"][1])
    phases = results["phases"] + results["closed_phases"]
    metrics = {
        **tracing.serving_metrics(
            serve, gauges, queue_waits(recorder, results),
            shed=sum(p.shed for p in phases),
            submitted=sum(p.offered for p in phases),
            stats=stats_delta(results),
            build_seconds=tracing.span_seconds(
                span_lists, "retrieval.build"
            ),
        ),
        **tracing.training_metrics(train),
        **tracing.compile_metrics(both),
        **overheads(end_to_end(results), plain),
    }
    print("layers, training window (self = span minus child spans):")
    print("\n".join(train.table()))
    print("layers, serving window:")
    print("\n".join(serve.table()))
    return metrics, results


def overheads(traced_e2e: dict, plain: dict) -> dict:
    """Tracing overhead: traced end-to-end value minus untraced."""
    return {
        f"overhead.{name}": metric(
            traced_e2e[name]["value"] - plain[name]["value"],
            traced_e2e[name]["unit"],
        )
        for name in ("latency_p50_ms", "latency_p99_ms", "rollout_s",
                     "epoch_s")
    }


# ----------------------------------------------------------------------
# Entry
# ----------------------------------------------------------------------

def spans_dir() -> str:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, SPANS_DIR)
    os.makedirs(path, exist_ok=True)
    return path


def run_workload(workload: str, seed: int, seconds: float,
                 trace: int) -> int:
    emit("stamp", stamp(workload, seed, seconds, trace))
    started = time.perf_counter()
    spec = SPECS[workload]
    split = training.make_split()
    try:
        if trace:
            metrics, results = traced(spec, seed, seconds, split)
        else:
            results = run_pipeline(
                spec, seed, seconds, SETUPS[workload], split
            )
            metrics = end_to_end(results)
        checks = check(spec, seed, split, results)
    except serving.BenchmarkError as error:
        print(f"error: output check failed: {error}", file=sys.stderr)
        return 1
    report(spec, split, results, checks)
    attempted, failed = counts(results, checks)
    correct = failed == 0
    emit("elapsed", {"seconds": round(time.perf_counter() - started, 3)})
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }), flush=True)
    return 0
