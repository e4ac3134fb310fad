"""Span tracing from outside the program, and the per-layer metrics.

The traced run wraps the public functions of every layer *where their
callers look them up* (a module attribute for an imported function, the
class attribute for a method) before the serving cluster forks, so the
shard worker inherits the wrappers.  Each call records one span —
name, start, end, the enclosing span in the same process — plus an
optional measurement of its arguments or result.  Spans stay in
memory; a forked worker writes its own out whenever the cluster asks
it for stats (the wrapped :meth:`RecommendService.raw_stats`), because
forked workers exit without running ``atexit``.

A layer's self time is its span time minus the time its child spans
cover.  Per-layer metrics are computed from spans that start inside
the timed window only.
"""

from __future__ import annotations

import functools
import os
import pickle
import time
from collections import defaultdict

import numpy as np

clock = time.perf_counter


class SpanRecorder:
    """In-memory span list of one process (``[name, start, end, parent,
    measure]`` rows; ``parent`` indexes the enclosing span or is -1)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pid = os.getpid()

    def wrap(self, fn, name: str, measure=None):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(recorder.spans))
            recorder.spans.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[1] = start
                span[2] = end
            if measure is not None:
                span[4] = measure(args, result)
            return result

        return traced


class Patches:
    """Install/remove wrappers; each entry restores the exact attribute
    it replaced (including class-level absence for inherited methods)."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list = []

    def wrap(self, owner, attr: str, name: str, measure=None,
             classmethod_=False):
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        if classmethod_:
            wrapped = classmethod(
                self.recorder.wrap(original.__func__, name, measure)
            )
        else:
            wrapped = self.recorder.wrap(original, name, measure)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original if had_own else None))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()


def _rows(args, result):
    return len(args[1])


def _batch_message(args, result):
    message = args[2]
    if message and message[0] == "batch":
        return (len(message[1]), len(pickle.dumps(message)))
    return None


def _prefetch(args, result):
    return (len(args[1]), int(result))


def _queries(args, result):
    return int(np.asarray(args[1]).shape[0])


def _refresh_mode(args, result):
    return result.get("mode") if isinstance(result, dict) else None


def _bailed(args, result):
    return result is None


def _padding(args, result):
    rows = np.asarray(result)
    real = int(np.count_nonzero(rows))
    return (rows.size - real, real)


def install(recorder: SpanRecorder, export_dir: str) -> Patches:
    """Wrap the training layers (batching, trainer step, clipping,
    optimizer, evaluator) and the serving layers (router, transport,
    service, engine, retrieval, ranking), plus the model forward and
    the compile layer both use.  Call before the cluster forks."""
    from repro.core import VSAN
    from repro.optim import Adam
    from repro.pool import ForkedWorkerPool
    from repro.retrieval import RetrievalEngine
    from repro.retrieval.index import IVFIndex
    from repro.serve import cluster as cluster_mod
    from repro.serve import service as service_mod
    from repro.serve.engine import InferenceEngine
    from repro.tensor import compile as compile_mod
    from repro.train import trainer as trainer_mod

    patches = Patches(recorder)
    patches.wrap(trainer_mod, "trim_batch", "batching.trim", _padding)
    patches.wrap(trainer_mod, "training_step_values", "trainer.step")
    patches.wrap(trainer_mod, "clip_grad_norm", "trainer.clip")
    patches.wrap(Adam, "step", "optim.step")
    patches.wrap(trainer_mod, "evaluate_recommender", "evaluator.pass")
    patches.wrap(trainer_mod, "build_program", "compile.trace", _bailed)
    patches.wrap(cluster_mod.ServingCluster, "submit", "cluster.submit")
    patches.wrap(cluster_mod.ServingCluster, "pump", "cluster.pump")
    # The router's blocking wait on the worker pipes, so pump's self
    # time is the work of absorbing replies, not the idle wait.
    patches.wrap(cluster_mod._mpc, "wait", "cluster.wait")
    patches.wrap(ForkedWorkerPool, "send", "pool.send", _batch_message)
    patches.wrap(service_mod.RecommendService, "recommend_many",
                 "service.recommend_many", _rows)
    patches.wrap(InferenceEngine, "prefetch", "engine.prefetch", _prefetch)
    patches.wrap(service_mod, "rank_items_batch", "rank")
    patches.wrap(service_mod, "rank_top_scores", "rank")
    patches.wrap(VSAN, "score_batch", "vsan.forward", _rows)
    patches.wrap(VSAN, "hidden_last", "vsan.forward", _rows)
    patches.wrap(RetrievalEngine, "score_topk", "retrieval.score_topk",
                 _rows)
    patches.wrap(RetrievalEngine, "refresh", "retrieval.refresh",
                 _refresh_mode)
    patches.wrap(IVFIndex, "search", "retrieval.search", _queries)
    patches.wrap(IVFIndex, "build", "retrieval.build",
                 classmethod_=True)
    _install_compile(patches, compile_mod)

    raw_stats = service_mod.RecommendService.raw_stats

    @functools.wraps(raw_stats)
    def exporting_raw_stats(service):
        if os.getpid() != recorder.pid:
            export(recorder, service, export_dir)
        return raw_stats(service)

    service_mod.RecommendService.raw_stats = exporting_raw_stats
    patches._undo.append(
        (service_mod.RecommendService, "raw_stats", raw_stats)
    )
    return patches


def _install_compile(patches: Patches, compile_mod) -> None:
    patches.wrap(compile_mod, "build_program", "compile.trace", _bailed)
    patches.wrap(compile_mod.Program, "replay", "compile.replay")
    patches.wrap(compile_mod.Program, "replay_backward",
                 "compile.replay_backward")


def export(recorder: SpanRecorder, service, export_dir: str) -> None:
    """Write this worker's spans plus engine gauges to ``export_dir``."""
    gauges = {}
    for rung in service.stats()["rungs"].values():
        engine = rung.get("engine")
        if engine and engine.get("cache"):
            gauges["cache_bytes_per_entry"] = engine["cache"][
                "bytes_per_entry"
            ]
            break
    path = os.path.join(export_dir, f"spans-{os.getpid()}.pkl")
    with open(path + ".tmp", "wb") as handle:
        pickle.dump({"spans": recorder.spans, "gauges": gauges}, handle)
    os.replace(path + ".tmp", path)


def span_seconds(span_lists, name: str) -> float:
    """Mean duration of every ``name`` span, timed window or not (index
    builds happen during set-up)."""
    durations = [
        end - start
        for spans in span_lists
        for span_name, start, end, _, _ in spans
        if span_name == name
    ]
    return float(np.mean(durations)) if durations else 0.0


def load_exports(export_dir: str) -> tuple[list[list], dict]:
    spans: list[list] = []
    gauges: dict = {}
    for name in sorted(os.listdir(export_dir)):
        if not name.endswith(".pkl"):
            continue
        with open(os.path.join(export_dir, name), "rb") as handle:
            data = pickle.load(handle)
        offset = len(spans)
        for span in data["spans"]:
            span = list(span)
            if span[3] >= 0:
                span[3] += offset
            spans.append(span)
        gauges.update(data["gauges"])
    return spans, gauges


class Layers:
    """Aggregates over the spans of one or more processes that start
    inside ``[window_start, window_end]``."""

    def __init__(self, span_lists, window_start: float, window_end: float):
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.measures = defaultdict(list)
        self.measured_time = defaultdict(float)
        for spans in span_lists:
            child_time = [0.0] * len(spans)
            for span in spans:
                if span[3] >= 0:
                    child_time[span[3]] += span[2] - span[1]
            for index, (name, start, end, _, measure) in enumerate(spans):
                if not window_start <= start <= window_end:
                    continue
                duration = end - start
                self.count[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - child_time[index]
                if measure is not None:
                    self.measures[name].append(measure)
                    self.measured_time[name] += duration

    def mean_us(self, name: str, per: float | None = None) -> float:
        calls = self.count[name]
        if not calls:
            return 0.0
        return 1e6 * self.total[name] / (per if per else calls)

    def self_us(self, name: str) -> float:
        calls = self.count[name]
        return 1e6 * self.self_time[name] / calls if calls else 0.0

    def table(self) -> list[str]:
        lines = []
        for name in sorted(self.count):
            lines.append(
                f"  {name:28s} calls {self.count[name]:8d}  "
                f"total {1e3 * self.total[name]:10.1f} ms  "
                f"self {1e3 * self.self_time[name]:10.1f} ms"
            )
        return lines


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def serving_metrics(layers: Layers, gauges: dict, queue_waits: list,
                    shed: int, submitted: int, stats: dict,
                    build_seconds: float) -> dict:
    """Per-layer metrics of a serving run (see README for definitions)."""
    batches = [m for m in layers.measures["pool.send"] if m is not None]
    requests = sum(m[0] for m in batches)
    served = sum(layers.measures["service.recommend_many"])
    prefetched = layers.measures["engine.prefetch"]
    looked_up = sum(m[0] for m in prefetched)
    forwarded = sum(m[1] for m in prefetched)
    rows = sum(layers.measures["vsan.forward"])
    service_self = (
        layers.total["service.recommend_many"]
        - layers.total["engine.prefetch"]
        - layers.total["rank"]
    )
    search_queries = sum(layers.measures["retrieval.search"])
    modes = layers.measures["retrieval.refresh"]
    total_served = stats["served"]
    ranked = stats["narrow_ranked"] + stats["dense_fallbacks"]
    return {
        "cluster.submit_us": metric(layers.mean_us("cluster.submit"), "us"),
        "cluster.pump_us": metric(layers.self_us("cluster.pump"), "us"),
        "cluster.batch_size": metric(
            requests / len(batches) if batches else 0.0, "requests"
        ),
        "cluster.queue_wait_ms": metric(
            1e3 * float(np.mean(queue_waits)) if queue_waits else 0.0, "ms"
        ),
        "cluster.shed_ratio": metric(
            shed / submitted if submitted else 0.0, "ratio"
        ),
        "pool.send_us": metric(
            1e6 * layers.measured_time["pool.send"] / len(batches)
            if batches else 0.0,
            "us",
        ),
        "pool.batch_bytes": metric(
            float(np.mean([m[1] for m in batches])) if batches else 0.0,
            "bytes",
        ),
        "service.recommend_many_us": metric(
            layers.mean_us("service.recommend_many", per=served), "us"
        ),
        "service.self_us": metric(
            1e6 * service_self / served if served else 0.0, "us"
        ),
        "service.degraded_ratio": metric(
            stats["fallbacks"] / total_served if total_served else 0.0,
            "ratio",
        ),
        "engine.prefetch_us": metric(layers.mean_us("engine.prefetch"), "us"),
        "engine.cache_hit_ratio": metric(
            1.0 - forwarded / looked_up if looked_up else 0.0, "ratio"
        ),
        "engine.forward_rows": metric(
            rows / layers.count["vsan.forward"]
            if layers.count["vsan.forward"] else 0.0,
            "rows",
        ),
        "engine.cache_bytes_per_entry": metric(
            gauges.get("cache_bytes_per_entry", 0.0), "bytes"
        ),
        "vsan.score_us_per_row": metric(
            layers.mean_us("vsan.forward", per=rows), "us"
        ),
        "retrieval.score_topk_us": metric(
            layers.mean_us("retrieval.score_topk"), "us"
        ),
        "retrieval.search_us": metric(
            layers.mean_us("retrieval.search", per=search_queries), "us"
        ),
        "retrieval.narrow_ratio": metric(
            stats["narrow_ranked"] / ranked if ranked else 0.0, "ratio"
        ),
        "retrieval.refresh_ms": metric(
            layers.mean_us("retrieval.refresh") / 1e3, "ms"
        ),
        "retrieval.updates": metric(modes.count("update"), "count"),
        "retrieval.rebuilds": metric(modes.count("rebuild"), "count"),
        "retrieval.build_s": metric(build_seconds, "s"),
        "rank.us_per_request": metric(
            layers.mean_us("rank", per=served), "us"
        ),
    }


def compile_metrics(layers: Layers) -> dict:
    replays = layers.count["compile.replay"]
    replay_time = (
        layers.total["compile.replay"]
        + layers.total["compile.replay_backward"]
    )
    return {
        "compile.traces": metric(layers.count["compile.trace"], "count"),
        "compile.replays": metric(replays, "count"),
        "compile.bails": metric(
            sum(layers.measures["compile.trace"]), "count"
        ),
        "compile.replay_ms": metric(
            1e3 * replay_time / replays if replays else 0.0, "ms"
        ),
    }


def training_metrics(layers: Layers) -> dict:
    """Per-layer metrics of a training run (see README for definitions)."""
    padding = layers.measures["batching.trim"]
    pad_cells = sum(m[0] for m in padding)
    tokens = sum(m[1] for m in padding)
    return {
        "batching.trim_us": metric(layers.mean_us("batching.trim"), "us"),
        "batching.pad_ratio": metric(
            pad_cells / tokens if tokens else 0.0, "ratio"
        ),
        "trainer.step_ms": metric(
            layers.mean_us("trainer.step") / 1e3, "ms"
        ),
        "trainer.clip_ms": metric(
            layers.mean_us("trainer.clip") / 1e3, "ms"
        ),
        "optim.step_ms": metric(layers.mean_us("optim.step") / 1e3, "ms"),
        "evaluator.pass_s": metric(
            layers.mean_us("evaluator.pass") / 1e6, "s"
        ),
    }
