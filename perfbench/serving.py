"""The serving phase of the workloads ``serve-hot`` and ``serve-catalog``.

Both run one shard with one replica (router + worker = two busy
processes) behind :class:`repro.serve.ServingCluster`, and drive it
with the benchmark's own loops over the public data plane
(``submit`` / ``pump`` / ``flush``):

- **open loop** at a fixed offered rate: each request is timed from
  the moment it was *due* (its scheduled arrival) to the ``pump`` that
  absorbs its reply, so the router's batch-fill wait and any generator
  lateness are inside the number.  The client waits on the worker
  pipes (``pump(timeout=lag)``) instead of sleeping, and lets the
  router flush on full batches only.
- **closed loop** with a fixed number of requests outstanding, whose
  completion rate is ``capacity_rps``.

With one replica the worker answers in submission order, so the
``records`` the cluster appends (one per terminal request) map back to
submissions in FIFO order; the mapping is checked user by user.
"""

from __future__ import annotations

import copy
import gc
import os
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core import VSAN
from repro.data.synthetic import ZipfTrafficConfig, zipf_traffic
from repro.serve import (
    ClusterConfig,
    EngineConfig,
    IndexConfig,
    Recommendation,
    RecommendService,
    ServiceConfig,
    ServingCluster,
)
from repro.tensor import set_default_dtype
from repro.tensor.compile import invalidate

from . import training
from .host import HostSteal, quiet_median, usable_cpus

clock = time.perf_counter

PRIMARY = "vsan"
MODEL_SEED = 0
USERS = 1_000_000
ROUTER_BATCH = 16
MAX_QUEUE = 256
OUTSTANDING = 64  # closed loop: four router batches in flight
WINDOW = 0.25  # closed loop: seconds per capacity sample
ROUNDS = 5  # open loop + closed loop rounds per run
# Shares of --seconds for the open loops and the closed loops, spread
# over the rounds; each round's open loop must offer at least 1,000
# requests, so its p99 has ten samples beyond it.
OPEN_SHARE = 0.4
CLOSED_SHARE = 0.12
ROLLOUTS = 3  # canary rollouts between consecutive rounds
SUCCESSORS = ROLLOUTS * (ROUNDS - 1)  # rolled out after the trained model
CHURN = 0.01  # share of item vectors each successor changes
PROBES = 1024
WARMUP_REQUESTS = 512
SETTLE_TIMEOUT = 30.0
SLO_SECONDS = ServiceConfig().deadline  # 250 ms
TOP_N = 10
# The CPUs the benchmark may use, read before :func:`pin` narrows this
# process's own affinity to the first of them.
CPUS = usable_cpus()[:2]


class BenchmarkError(RuntimeError):
    """A check the benchmark makes on the program's outputs failed."""


@dataclass(frozen=True)
class ServeSpec:
    """One serving workload's shape: catalogue, users and offered
    rate.  Every served model has the trained model's architecture
    (see :mod:`perfbench.training`)."""

    num_items: int
    user_zipf: float
    rate: float
    index: IndexConfig | None = None
    planted_centers: int = 0


SERVE_HOT = ServeSpec(num_items=training.NUM_ITEMS, user_zipf=1.2, rate=600.0)

SERVE_CATALOG = ServeSpec(
    num_items=100_000,
    user_zipf=0.7,
    rate=500.0,
    index=IndexConfig(
        nlist=1024, nprobe=4, candidates=64, quantize="int8", seed=0,
        kmeans_iters=4,
    ),
    planted_centers=512,
)


class ProbedService(RecommendService):
    """A :class:`RecommendService` that remembers its last ``PROBES``
    answers and reports them (plus its stats snapshot) through
    :meth:`describe_rungs`, which :meth:`ServingCluster.describe` reads
    from the replica.  That is how the benchmark compares the rankings
    the cluster actually served with an in-process reference."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.recent: deque = deque(maxlen=PROBES)

    def recommend_many(self, histories, top_n=None, **kwargs):
        results = super().recommend_many(histories, top_n=top_n, **kwargs)
        self.recent.extend(results)
        return results

    def describe_rungs(self) -> dict:
        description = super().describe_rungs()
        description["perfbench"] = {
            "recent": [
                (result.items.tolist(), result.rung)
                if isinstance(result, Recommendation) else None
                for result in self.recent
            ],
            "stats": self.stats(),
        }
        return description


def service_config() -> ServiceConfig:
    return ServiceConfig(top_n=TOP_N)


def make_factory(model, spec: ServeSpec):
    engine = EngineConfig(index=spec.index)

    def factory():
        return ProbedService(
            [(PRIMARY, model)], num_items=spec.num_items,
            config=service_config(), engine=engine,
        )

    return factory


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

def build_model(spec: ServeSpec) -> VSAN:
    """The model the cluster serves before the trained one (eval mode).
    On a planted catalogue its item vectors are drawn around
    ``planted_centers`` cluster centres (as in the retrieval
    benchmarks), so the IVF index has structure to find.  The model
    and its catalogue are the workload's fixed serving state; the run
    seed draws the traffic, the probes, the training run and the
    rollout churn."""
    model = training.build_model(spec.num_items, MODEL_SEED)
    model.eval()
    if spec.planted_centers:
        rng = np.random.default_rng((MODEL_SEED, 1))
        centers = 2.0 * rng.standard_normal(
            (spec.planted_centers, training.DIM)
        )
        weight = model.output.weight.data
        assign = rng.integers(0, len(centers), size=spec.num_items + 1)
        noise = rng.standard_normal((spec.num_items + 1, weight.shape[0]))
        weight[...] = (centers[assign] + 0.2 * noise).T.astype(weight.dtype)
    return model


def served_model(initial: VSAN, trained: VSAN) -> VSAN:
    """What the trained model becomes in the served catalogue.  On the
    training corpus's own catalogue it is served as it is.  On a larger
    catalogue, the trained weights replace the initial model's, and the
    trained item vectors replace the first ``training.NUM_ITEMS``
    catalogue items' (the rest keep theirs), so the rollout changes
    about 2% of a 100k-item index."""
    if trained.num_items == initial.num_items:
        return trained
    state = initial.state_dict()
    for name, value in trained.state_dict().items():
        target = state[name]
        if target.shape != value.shape:
            head = tuple(slice(0, size) for size in value.shape)
            target[head] = value
            value = target
        state[name] = value
    model = copy.deepcopy(initial)
    invalidate(model)
    model.load_state_dict(state)
    return model


def successors(seed: int, model: VSAN, count: int):
    """The ``count`` models rolled out after ``model``, in order: each
    a copy of the previous with ``CHURN`` of its item vectors replaced
    by another item's vector plus noise."""
    rng = np.random.default_rng((seed, 2))
    for _ in range(count):
        model = churned(model, rng)
        yield model


def churned(model: VSAN, rng: np.random.Generator) -> VSAN:
    successor = copy.deepcopy(model)
    invalidate(successor)
    weight = successor.output.weight.data
    num_items = model.num_items
    count = max(1, int(round(CHURN * num_items)))
    items = 1 + rng.choice(num_items, size=count, replace=False)
    donors = 1 + rng.integers(0, num_items, size=count)
    scale = float(weight[:, 1:].std())
    noise = rng.standard_normal((weight.shape[0], count))
    weight[:, items] = (
        weight[:, donors] + 0.2 * scale * noise
    ).astype(weight.dtype)
    return successor


def make_traffic(spec: ServeSpec, seed: int, seconds: float) -> list:
    """Warm-up, open-loop and closed-loop requests, in that order, from
    one Zipf stream over a 1M-user population."""
    open_requests = int(spec.rate * OPEN_SHARE * seconds) + 1
    closed_requests = int(4_000 * CLOSED_SHARE * seconds) + 1
    config = ZipfTrafficConfig(
        num_users=USERS, num_items=spec.num_items,
        num_requests=WARMUP_REQUESTS + open_requests + closed_requests,
        rate=spec.rate, user_zipf_exponent=spec.user_zipf,
    )
    return list(zipf_traffic(config, seed))


def make_probes(spec: ServeSpec, seed: int) -> list:
    """A fixed probe set: the first ``PROBES`` distinct users of an
    independent stream."""
    config = ZipfTrafficConfig(
        num_users=USERS, num_items=spec.num_items, num_requests=4 * PROBES,
        rate=spec.rate, user_zipf_exponent=spec.user_zipf,
    )
    probes, seen = [], set()
    for user, history, _ in zipf_traffic(config, seed + 7_919):
        if user not in seen:
            seen.add(user)
            probes.append((user, history))
        if len(probes) == PROBES:
            break
    return probes


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------

class Phase:
    """Per-phase accounting, the latencies of answered requests
    (seconds from due to the absorbing ``pump``) and the steal time
    the phase suffered."""

    def __init__(self, name: str):
        self.name = name
        self.offered = 0
        self.completed = 0
        self.shed = 0
        self.failed = 0
        self.wrong = 0
        self.latencies: list[float] = []
        self.steal = 0.0
        self.within_slo = 0
        self.lateness: list[float] = []
        self.seconds = 0.0

    def summary(self) -> dict:
        return {
            "phase": self.name,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "failed": self.failed,
            "wrong": self.wrong,
            "seconds": round(self.seconds, 4),
        }


class LoadClient:
    """Submits requests and maps the cluster's terminal records back to
    them (FIFO with one replica)."""

    def __init__(self, cluster: ServingCluster, steal):
        self.cluster = cluster
        self.steal = steal
        self.seen = len(cluster.records)
        self.queued: deque = deque()  # (due, user, phase), FIFO
        self.dues: list[float] = []  # due time of every queued request

    def submit(self, phase: Phase, due: float, user, history) -> None:
        phase.offered += 1
        status = self.cluster.submit(user, history)
        records = self.cluster.records
        if status == "queued":
            self.queued.append((due, user, phase))
            self.dues.append(due)
            if len(records) != self.seen:
                raise BenchmarkError("a queued request left a record")
            return
        record = records[self.seen]
        self.seen += 1
        if record[1] != user:
            raise BenchmarkError("admission record does not match request")
        if status == "shed":
            phase.shed += 1
        else:
            phase.failed += 1

    def absorb(self, now: float) -> int:
        """Account every record appended since the last call; returns
        how many requests were answered."""
        records = self.cluster.records
        answered = 0
        while self.seen < len(records):
            _, user, status, rung, _ = records[self.seen]
            self.seen += 1
            due, expected, phase = self.queued.popleft()
            if user != expected:
                raise BenchmarkError(
                    f"reply for user {user} arrived where user {expected} "
                    "was due; replies are out of submission order"
                )
            answered += 1
            if status != "ok":
                phase.failed += 1
                continue
            phase.completed += 1
            latency = now - due
            phase.latencies.append(latency)
            if rung != PRIMARY:
                phase.wrong += 1
            elif latency <= SLO_SECONDS:
                phase.within_slo += 1
        return answered

    def settle(self) -> None:
        """Flush the partial batch and absorb replies until nothing is
        outstanding."""
        self.cluster.flush()
        limit = clock() + SETTLE_TIMEOUT
        while self.queued:
            if clock() > limit:
                raise BenchmarkError("replies did not arrive in time")
            self.cluster.pump(timeout=0.05)
            self.absorb(clock())

    def serve_all(self, phase: Phase, requests) -> Phase:
        """Serve ``(user, history)`` pairs as fast as the cluster takes
        them, ``OUTSTANDING`` at a time, and settle."""
        for user, history in requests:
            while len(self.queued) >= OUTSTANDING:
                self.cluster.pump(timeout=0.05)
                self.absorb(clock())
            self.submit(phase, clock(), user, history)
        self.settle()
        return phase

    def open_loop(self, phase: Phase, requests) -> Phase:
        """Offer ``requests`` (``(user, history, arrival)``, arrival in
        seconds from the phase start) on schedule."""
        cluster = self.cluster
        origin = requests[0][2]
        stolen = self.steal()
        start = clock()
        for user, history, arrival in requests:
            due = start + (arrival - origin)
            while True:
                now = clock()
                lag = due - now
                if lag <= 0:
                    break
                if cluster.pump(timeout=lag):
                    self.absorb(clock())
            phase.lateness.append(-lag)
            self.submit(phase, due, user, history)
            if lag < -0.001 and cluster.pump(timeout=0.0):
                self.absorb(clock())
        self.settle()
        phase.seconds = clock() - start
        phase.steal = self.steal() - stolen
        return phase

    def closed_loop(self, phase: Phase, source, seconds: float) -> list:
        """Keep ``OUTSTANDING`` requests from ``source`` in flight for
        ``seconds`` (at least two windows); returns ``(completion rate,
        steal)`` per ``WINDOW``-second window after the first (the
        pipeline filling)."""
        cluster = self.cluster
        start = clock()
        end = start + seconds
        window_end = start + WINDOW
        counted = 0
        stolen = self.steal()
        windows = []
        while True:
            while len(self.queued) < OUTSTANDING:
                user, history, _ = next(source)
                self.submit(phase, clock(), user, history)
            cluster.pump(timeout=0.05)
            now = clock()
            answered = self.absorb(now)
            if now >= window_end:
                steal = self.steal()
                windows.append(
                    (counted / (now - window_end + WINDOW), steal - stolen)
                )
                stolen = steal
                counted = 0
                window_end = now + WINDOW
                if window_end > end and len(windows) > 1:
                    break
            counted += answered
        self.settle()
        phase.seconds = clock() - start
        return windows[1:]


def _cycle(items):
    if not items:
        raise BenchmarkError("the closed loop has no requests to send")
    while True:
        yield from items


def check_accounting(cluster: ServingCluster, phase: Phase) -> None:
    if not cluster.accounted():
        raise BenchmarkError(f"cluster accounting broken after {phase.name}")
    if not cluster.merged_service_stats().accounted():
        raise BenchmarkError(
            f"merged ServiceStats accounting broken after {phase.name}"
        )
    terminal = phase.completed + phase.shed + phase.failed
    if terminal != phase.offered:
        raise BenchmarkError(
            f"{phase.name}: offered {phase.offered} but {terminal} terminal"
        )


def served_probes(cluster: ServingCluster, client: LoadClient,
                  probes: list) -> list:
    """Serve the probe set through the cluster; returns what the replica
    answered, in probe order."""
    phase = client.serve_all(Phase("probes"), probes)
    check_accounting(cluster, phase)
    if phase.completed != len(probes):
        raise BenchmarkError("probe requests were not all answered")
    recent = perfbench_block(cluster)["recent"]
    return recent[-len(probes):]


def perfbench_block(cluster: ServingCluster) -> dict:
    description = cluster.describe()
    return description[cluster.live_shards[0]]["perfbench"]


def valid_ranking(items, history, num_items: int) -> bool:
    """The service's contract: 1 to ``TOP_N`` distinct in-catalogue
    items, none from the history."""
    items = list(items)
    seen = set(int(item) for item in history)
    return (
        1 <= len(items) <= TOP_N
        and len(set(items)) == len(items)
        and all(1 <= item <= num_items for item in items)
        and not seen.intersection(items)
    )


def forwarded_rows(block: dict) -> tuple[int, int]:
    """(requests served, rows the engine forwarded) from a replica's
    stats snapshot."""
    rung = block["stats"]["rungs"][PRIMARY]
    batcher = rung["engine"]["batcher"]
    return rung["served"], batcher["batched_requests"]


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------

def pin(cluster: ServingCluster, cpus: list[int]) -> None:
    """One busy process per core: the router on the first of ``cpus``,
    the shard worker on the second (no-op with fewer than two)."""
    if len(cpus) < 2:
        return
    os.sched_setaffinity(0, {cpus[0]})
    for process in cluster.pool.processes:
        os.sched_setaffinity(process.pid, {cpus[1]})


@dataclass
class Deployment:
    cluster: ServingCluster
    model: VSAN
    steal: HostSteal
    setup: tuple[float, float]  # (seconds, steal)


def deploy(spec: ServeSpec, warm_up: list) -> Deployment:
    """Build the model, fork the cluster and warm it up with the
    ``(user, history)`` pairs of ``warm_up``; timed as ``setup_s`` (up
    to the first timed request).  The inputs are generated beforehand,
    outside the clock: they are the load generator's work, not the
    program's."""
    steal = HostSteal(CPUS)
    stolen = steal()
    start = clock()
    model = build_model(spec)
    cluster = ServingCluster(
        make_factory(model, spec),
        config=ClusterConfig(
            num_shards=1, replicas_per_shard=1, batch_size=ROUTER_BATCH,
            max_queue=MAX_QUEUE, worker_timeout=60.0,
        ),
    )
    try:
        pin(cluster, CPUS)
        client = LoadClient(cluster, steal)
        warm = client.serve_all(Phase("warm-up"), warm_up)
        check_accounting(cluster, warm)
        if warm.completed != len(warm_up):
            raise BenchmarkError("warm-up requests were not all answered")
    except BaseException:
        cluster.close()
        raise
    return Deployment(cluster, model, steal,
                      (clock() - start, steal() - stolen))


def make_inputs(spec: ServeSpec, seed: int, seconds: float) -> dict:
    """Traffic, warm-up requests and probe set of one run."""
    set_default_dtype(np.float32)
    traffic = make_traffic(spec, seed, seconds)
    return {
        "traffic": traffic,
        "probes": make_probes(spec, seed),
        "warm_up": [
            (user, history)
            for user, history, _ in traffic[:WARMUP_REQUESTS]
        ],
    }


def set_up(spec: ServeSpec, inputs: dict, setups: int):
    """Set up ``setups`` times; returns the last deployment (the one
    measured) and every set-up's ``(seconds, steal)``."""
    setup_times = []
    deployment = None
    for _ in range(setups):
        if deployment is not None:
            deployment.cluster.close()
            deployment = None
        # Collect the previous deployment's garbage outside the clock.
        gc.collect()
        deployment = deploy(spec, inputs["warm_up"])
        setup_times.append(deployment.setup)
    return deployment, setup_times


def measure(spec: ServeSpec, seed: int, seconds: float,
            deployment: Deployment, inputs: dict, first: VSAN) -> dict:
    """Roll out ``first`` (the trained model), then ``ROUNDS`` rounds of
    open loop, closed loop and (between rounds) ``ROLLOUTS`` canary
    rollouts of its successors, so every metric samples the
    host over the whole run; then the probe set."""
    cluster = deployment.cluster
    steal = deployment.steal
    client = LoadClient(cluster, steal)
    traffic, probes = inputs["traffic"], inputs["probes"]
    open_count = int(spec.rate * OPEN_SHARE * seconds) + 1
    timed = traffic[WARMUP_REQUESTS:WARMUP_REQUESTS + open_count]
    closed = _cycle(traffic[WARMUP_REQUESTS + open_count:])
    segment = len(timed) // ROUNDS
    closed_seconds = CLOSED_SHARE * seconds / ROUNDS
    rolled = successors(seed, first, SUCCESSORS)
    probe_histories = [history for _, history in probes]
    open_phases, closed_phases, windows, rollout_times = [], [], [], []
    before = perfbench_block(cluster)
    window_start = clock()

    def roll_out(model):
        stolen = steal()
        start = clock()
        outcome = cluster.rollout(PRIMARY, model, probe_histories)
        rollout_times.append((clock() - start, steal() - stolen))
        if not outcome.ok:
            raise BenchmarkError(f"rollout failed: {outcome.reason}")

    roll_out(first)
    for index in range(ROUNDS):
        last = index == ROUNDS - 1
        chunk = timed[index * segment:None if last else (index + 1) * segment]
        phase = client.open_loop(Phase(f"open-{index + 1}"), chunk)
        check_accounting(cluster, phase)
        open_phases.append(phase)
        phase = Phase(f"closed-{index + 1}")
        windows.extend(client.closed_loop(phase, closed, closed_seconds))
        check_accounting(cluster, phase)
        closed_phases.append(phase)
        for _ in range(0 if last else ROLLOUTS):
            roll_out(next(rolled))
    window_end = clock()
    after = perfbench_block(cluster)

    served = served_probes(cluster, client, probes)
    return {
        "phases": open_phases,
        "closed_phases": closed_phases,
        "capacity_rps": quiet_median(windows),
        "capacity_windows": len(windows),
        "rollout_times": rollout_times,
        "served_probes": served,
        "probes": probes,
        "traffic": traffic,
        "timed": timed,
        "first": first,
        "blocks": (before, after),
        "window": (window_start, window_end),
        "queue_dues": client.dues,
    }


def check_probes(spec: ServeSpec, seed: int, results: dict) -> dict:
    """Compare the served probe rankings with in-process references.

    The reference is a :class:`RecommendService` with the cluster's
    engine configuration, taken through the same model sequence (its
    index built on the deployed model, then refreshed by the trained
    model and every rolled-out successor); every served ranking must
    equal its answer bitwise and be a valid ranking.  With an index,
    ``recall_at_10`` measures the served top-10 against exact dense
    scoring of the final model, ``rebuilt_recall_at_10`` does the same
    for an index built afresh on the final model, and ``short_lists``
    counts answers with fewer than ``TOP_N`` items (the probed lists
    held too few candidates).
    """
    probes = results["probes"]
    reference = RecommendService(
        [(PRIMARY, build_model(spec))], num_items=spec.num_items,
        config=service_config(), engine=EngineConfig(index=spec.index),
    )
    # The warm-up's path: the batch prefetch builds the index on the
    # deployed model, outside any request's deadline.
    reference.recommend_many([probes[0][1]])
    model = results["first"]
    reference.swap_model(PRIMARY, model)
    for model in successors(seed, model, SUCCESSORS):
        reference.swap_model(PRIMARY, model)
    exact = rebuilt = None
    if spec.index is not None:
        exact = RecommendService(
            [(PRIMARY, model)], num_items=spec.num_items,
            config=service_config(), engine=EngineConfig(),
        )
        rebuilt = RecommendService(
            [(PRIMARY, model)], num_items=spec.num_items,
            config=service_config(), engine=EngineConfig(index=spec.index),
        )
        rebuilt.recommend_many([probes[0][1]])
    mismatches = short = 0
    overlaps, rebuilt_overlaps = [], []
    for (_, history), answer in zip(probes, results["served_probes"]):
        if answer is None or answer[1] != PRIMARY:
            mismatches += 1
            continue
        items = np.asarray(answer[0], dtype=np.int64)
        expected = reference.recommend(history).items
        if not (
            np.array_equal(items, expected)
            and valid_ranking(items, history, spec.num_items)
        ):
            mismatches += 1
        short += len(items) < TOP_N
        if exact is not None:
            best = set(exact.recommend(history).items.tolist())
            overlaps.append(len(best.intersection(items.tolist())) / TOP_N)
            fresh = rebuilt.recommend(history).items.tolist()
            rebuilt_overlaps.append(len(best.intersection(fresh)) / TOP_N)
    return {
        "mismatches": mismatches,
        "short_lists": short,
        "recall_at_10": float(np.mean(overlaps)) if overlaps else None,
        "rebuilt_recall_at_10": (
            float(np.mean(rebuilt_overlaps)) if rebuilt_overlaps else None
        ),
        "probes": len(probes),
    }


def input_properties(spec: ServeSpec, results: dict) -> dict:
    traffic = results["traffic"]
    timed = results["timed"]
    seen = {user for user, _, _ in traffic[:WARMUP_REQUESTS]}
    repeats = 0
    for user, _, _ in timed:
        if user in seen:
            repeats += 1
        seen.add(user)
    (served_0, rows_0), (served_1, rows_1) = (
        forwarded_rows(block) for block in results["blocks"]
    )
    served = served_1 - served_0
    rows = rows_1 - rows_0
    lateness = np.concatenate([
        np.asarray(phase.lateness) for phase in results["phases"]
    ])
    per_round = [len(phase.latencies) for phase in results["phases"]]
    return {
        "repeat_user_share": round(repeats / len(timed), 4),
        "cache_hit_ratio": round(1.0 - rows / served, 4) if served else 0.0,
        "mean_history_length": round(
            float(np.mean([len(h) for _, h, _ in timed])), 3
        ),
        "generator_lateness_p99_ms": round(
            1e3 * float(np.percentile(lateness, 99)), 4
        ),
        "offered_rate_rps": spec.rate,
        "latency_samples_per_round": min(per_round),
        "latency_samples": sum(per_round),
    }
