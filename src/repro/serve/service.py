"""`RecommendService`: fault-tolerant top-N recommendation.

The service owns an ordered **fallback chain** of scoring rungs — e.g.
``VSAN → SASRec → POP`` — and guarantees that a valid request either
gets a *valid, finite ranking* from the highest healthy rung or a typed
error, never a silent garbage ranking:

1. **Validation** — histories are checked (1-D, non-empty, integer ids
   in ``1..num_items``), truncated to the most recent ``max_history``
   items, with unknown ids either rejected or dropped
   (:class:`InvalidRequest` is raised when nothing valid remains).
2. **Fallback chain** — each rung is guarded by a
   :class:`repro.serve.breaker.CircuitBreaker`.  A rung that raises,
   overruns the deadline, or emits NaN/``+inf`` scores records a breaker
   failure and traffic flows to the next rung; once its failure rate
   trips the breaker the rung is skipped outright until the cooldown
   elapses and half-open probes re-close it.
3. **Retries** — failures that subclass
   :class:`repro.serve.errors.TransientError` are retried in place with
   exponential backoff + jitter before falling through.
4. **Deadlines** — the budget is enforced *by detection*: a synchronous
   model call cannot be preempted, so any call that takes longer than
   the budget is counted as a ``timeout`` failure on that rung and
   traffic degrades to the next rung (a late-but-valid degraded answer
   beats no answer; the breaker is what protects latency over time by
   skipping a persistently slow rung).  The budget is **cumulative**
   across the whole request: every call is charged against what earlier
   rungs, retries, and backoffs left over, each retry backoff is capped
   at the remaining budget, and a retry is skipped outright when the
   remainder cannot cover ``base_delay``.  :class:`DeadlineExceeded` is
   raised only when *no* rung could answer and the budget was spent.
5. **Accounting** — :meth:`RecommendService.stats` snapshots per-rung
   attempts/failures/latencies and breaker states; every request lands
   in exactly one of served / rejected / exhausted / deadline buckets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..eval.metrics import (
    NonFiniteScoresError,
    rank_items_batch,
    rank_top_scores,
)
from ..retrieval import TopScores
from .breaker import CircuitBreaker
from .engine import EngineConfig, InferenceEngine
from .errors import (
    AllRungsFailed,
    DeadlineExceeded,
    InvalidRequest,
    ServeError,
    TransientError,
)
from .loading import safe_load_model
from .retry import RetryPolicy
from .stats import ServiceStats

__all__ = ["Recommendation", "RecommendService", "ServiceConfig"]

_UNSET = object()


@dataclass
class ServiceConfig:
    """Request-handling policy knobs.

    Args:
        top_n: default recommendation list length.
        deadline: default time budget in seconds (``None`` =
            unbounded).  Enforced by detection: a rung call that takes
            longer counts as a ``timeout`` failure and the chain
            degrades; :class:`DeadlineExceeded` is raised only when no
            rung answers and the budget is spent.
        max_history: histories longer than this are truncated to their
            most recent items (mirrors the models' attention windows).
        unknown_items: ``"reject"`` raises :class:`InvalidRequest` on
            out-of-vocabulary ids; ``"drop"`` silently filters them
            (rejecting only if nothing remains).
        exclude_history: remove already-seen items from rankings.
    """

    top_n: int = 10
    deadline: float | None = 0.25
    max_history: int = 200
    unknown_items: str = "reject"
    exclude_history: bool = True

    def __post_init__(self):
        if self.top_n < 1:
            raise ValueError("top_n must be >= 1")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        if self.max_history < 1:
            raise ValueError("max_history must be >= 1")
        if self.unknown_items not in ("reject", "drop"):
            raise ValueError("unknown_items must be 'reject' or 'drop'")


@dataclass
class Recommendation:
    """A served ranking plus provenance.

    ``degraded`` is ``True`` whenever a rung below the primary answered;
    ``fallbacks`` counts the rungs that were skipped or failed first.
    """

    items: np.ndarray
    rung: str
    latency: float
    degraded: bool
    fallbacks: int


class _Rung:
    def __init__(self, name: str, model, breaker: CircuitBreaker):
        self.name = name
        self.model = model
        self.breaker = breaker

    @property
    def engine(self) -> InferenceEngine | None:
        """The rung's engine, when the service routes through one."""
        model = self.model
        return model if isinstance(model, InferenceEngine) else None


class RecommendService:
    """Serve top-N recommendations through a guarded fallback chain.

    Args:
        rungs: ordered ``(name, recommender)`` pairs, best model first;
            each recommender needs ``score_batch(histories)``.  The last
            rung should be something that cannot fail (e.g. ``POP``).
        num_items: vocabulary size; scores must be ``num_items + 1``
            wide (index 0 = padding).
        config: request policy (:class:`ServiceConfig`).
        retry: in-place retry policy for transient failures; default
            retries once with a 10 ms backoff.
        breaker_factory: builds one breaker per rung; defaults to
            :class:`CircuitBreaker` on the service clock.
        clock: monotonic time source (injectable for deterministic
            deadline/breaker tests).
        engine: route every rung through an
            :class:`repro.serve.engine.InferenceEngine` (micro-batching,
            LRU score cache, guaranteed no-tape forwards).  Pass an
            :class:`EngineConfig` to tune it, ``True`` for the defaults,
            or leave ``None`` for direct model calls.  Breakers, retries,
            and deadlines see the engine exactly like a model, so the
            fault machinery composes with batching unchanged.
    """

    def __init__(
        self,
        rungs,
        num_items: int,
        config: ServiceConfig | None = None,
        retry: RetryPolicy | None = None,
        breaker_factory=None,
        clock=time.monotonic,
        engine: EngineConfig | bool | None = None,
    ):
        rungs = list(rungs)
        if not rungs:
            raise ValueError("need at least one rung")
        names = [name for name, _ in rungs]
        if len(set(names)) != len(names):
            raise ValueError(f"rung names must be unique: {names}")
        if num_items < 1:
            raise ValueError("num_items must be >= 1")
        self.num_items = num_items
        self.config = config or ServiceConfig()
        self.retry = retry or RetryPolicy(
            max_attempts=2, base_delay=0.01, max_delay=0.1
        )
        self._clock = clock
        if engine is True:
            engine = EngineConfig()
        self.engine_config = engine or None
        if breaker_factory is None:
            breaker_factory = lambda: CircuitBreaker(clock=clock)  # noqa: E731
        self._rungs = [
            _Rung(
                name,
                InferenceEngine(model, config=engine, clock=clock)
                if engine else model,
                breaker_factory(),
            )
            for name, model in rungs
        ]
        self._stats = ServiceStats(names)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def recommend(
        self,
        history,
        top_n: int | None = None,
        deadline=_UNSET,
    ) -> Recommendation:
        """Rank ``top_n`` items for one user history.

        Raises :class:`InvalidRequest`, :class:`DeadlineExceeded`, or
        :class:`AllRungsFailed`; any returned ranking is guaranteed
        finite, deduplicated, in-vocabulary, and free of the user's own
        history (when ``exclude_history`` is on).
        """
        self._stats.requests += 1
        try:
            history, top_n = self._validate(history, top_n)
        except InvalidRequest:
            self._stats.rejected += 1
            raise
        return self._serve(history, top_n, deadline)

    def recommend_many(
        self,
        histories,
        top_n: int | None = None,
        deadline=_UNSET,
    ) -> list:
        """Serve a batch of requests with one coalesced forward.

        Each request is validated once; the valid histories are then
        pushed through the highest non-open rung's engine in
        micro-batches (one padded forward per ``max_batch`` chunk,
        warming the score cache), and each request is served with
        :meth:`recommend`'s breaker, retry, and deadline semantics,
        picking its row up from the cache instead of paying its own
        forward pass.  Batch-coalescing time is attributed to the batch
        (the per-request latency stats measure the serve itself).

        Rankings equal a :meth:`recommend` loop's bit for bit only where
        the BLAS kernels are row-deterministic, i.e. where a row's
        scores do not depend on how many rows share the forward (the
        tests check this in float64).  In float32, near-tied scores can
        round differently at batch 16 than at batch 1 and swap adjacent
        ranks.

        Returns a list aligned with ``histories`` whose elements are
        :class:`Recommendation` on success and the raised
        :class:`~repro.serve.errors.ServeError` on failure — errors are
        returned, not raised, so one bad request cannot fail the batch.
        Requires the service to be built with ``engine=`` for the
        speedup; without one this degrades to the sequential loop.
        """
        requests = []
        for history in histories:
            self._stats.requests += 1
            try:
                requests.append(self._validate(history, top_n))
            except InvalidRequest as error:
                self._stats.rejected += 1
                requests.append(error)
        valid = [
            request[0]
            for request in requests
            if not isinstance(request, InvalidRequest)
        ]
        if valid:
            for rung in self._rungs:
                engine = rung.engine
                if engine is None:
                    continue
                # Only the highest healthy rung is warmed: lower rungs
                # see traffic only when requests degrade, and an open
                # breaker means "stop hammering this model" — prefetch
                # must respect that too.
                if rung.breaker.allow():
                    engine.prefetch(valid)
                break
        results = []
        for request in requests:
            if isinstance(request, InvalidRequest):
                results.append(request)
                continue
            try:
                results.append(self._serve(*request, deadline))
            except ServeError as error:
                results.append(error)
        return results

    def _serve(
        self, history: np.ndarray, top_n: int, deadline
    ) -> Recommendation:
        """Walk the rung ladder for one validated request."""
        budget = self.config.deadline if deadline is _UNSET else deadline
        start = self._clock()
        causes: dict[str, str] = {}
        for index, rung in enumerate(self._rungs):
            if not rung.breaker.allow():
                self._stats.rungs[rung.name].short_circuited += 1
                causes[rung.name] = "breaker open"
                continue
            ranked = self._attempt(rung, history, top_n, start, budget,
                                   causes)
            if ranked is not None:
                if index > 0:
                    self._stats.fallbacks += 1
                self._stats.served[rung.name] += 1
                return Recommendation(
                    items=ranked,
                    rung=rung.name,
                    latency=self._clock() - start,
                    degraded=index > 0,
                    fallbacks=index,
                )
        elapsed = self._clock() - start
        if budget is not None and elapsed >= budget:
            self._stats.deadline_exceeded += 1
            error = DeadlineExceeded(
                f"no rung answered within the {budget}s budget "
                f"({elapsed:.3f}s elapsed); causes: {causes}"
            )
            error.causes = dict(causes)
            raise error
        self._stats.exhausted += 1
        raise AllRungsFailed(
            f"all {len(self._rungs)} rungs failed", causes
        )

    def _attempt(
        self, rung: _Rung, history, top_n, start, budget, causes,
    ) -> np.ndarray | None:
        """Try one rung, retrying transient failures in place.

        Returns the ranking, or ``None`` (with breaker/stats updated and
        ``causes[rung]`` set) to fall through to the next rung.
        """
        rstats = self._stats.rungs[rung.name]
        for attempt in range(self.retry.max_attempts):
            rstats.attempts += 1
            called_at = self._clock()
            # The budget is cumulative across the whole request: each
            # call only gets what earlier rungs, retries, and backoffs
            # left over — never a fresh full budget.
            remaining = (
                None if budget is None else budget - (called_at - start)
            )
            try:
                scores = rung.model.score_batch([history])
            except Exception as error:  # noqa: BLE001 — rung isolation
                rung.breaker.record_failure()
                rstats.failures["error"] += 1
                causes[rung.name] = f"error: {error}"
                if (
                    isinstance(error, TransientError)
                    and attempt < self.retry.max_attempts - 1
                    and self._pause_within_budget(attempt, start, budget)
                ):
                    continue
                return None
            elapsed = self._clock() - called_at
            if budget is not None and elapsed > max(remaining, 0.0):
                # The call returned, but outran what was left of the
                # budget: a caller with a real deadline has given up on
                # it, so it counts as a failure and a cheaper rung gets
                # a shot.
                rung.breaker.record_failure()
                rstats.failures["timeout"] += 1
                causes[rung.name] = (
                    f"timeout ({elapsed:.3f}s call with "
                    f"{max(remaining, 0.0):.3f}s of the {budget}s "
                    f"budget left)"
                )
                return None
            try:
                if isinstance(scores, TopScores):
                    ranked = self._rank_narrow(rung, scores, history, top_n)
                else:
                    ranked = self._rank(scores, history, top_n)
            except (NonFiniteScoresError, ValueError) as error:
                rung.breaker.record_failure()
                rstats.failures["non_finite"] += 1
                causes[rung.name] = f"invalid scores: {error}"
                return None
            rung.breaker.record_success()
            rstats.successes += 1
            rstats.latency.add(elapsed)
            return ranked
        return None

    def _pause_within_budget(self, attempt, start, budget) -> bool:
        """Back off before a retry iff the remaining budget allows it.

        Returns ``False`` (skip the retry entirely) when the budget is
        spent or the remainder cannot even cover ``base_delay`` — a
        retry that would start after the deadline helps nobody.  The
        pause itself is capped at the remaining budget so a jittered
        backoff can never sleep the request past its deadline.
        """
        if budget is None:
            self.retry.pause(attempt)
            return True
        remaining = budget - (self._clock() - start)
        if remaining <= 0.0 or remaining < self.retry.base_delay:
            return False
        self.retry.pause(attempt, limit=remaining)
        return True

    # ------------------------------------------------------------------
    # Validation and ranking
    # ------------------------------------------------------------------
    def _validate(
        self, history, top_n: int | None
    ) -> tuple[np.ndarray, int]:
        top_n = self.config.top_n if top_n is None else top_n
        if top_n < 1:
            raise InvalidRequest(f"top_n must be >= 1, got {top_n}")
        array = np.asarray(history)
        if array.ndim != 1:
            raise InvalidRequest(
                f"history must be 1-D, got shape {array.shape}"
            )
        if array.size == 0:
            raise InvalidRequest("history is empty")
        if not np.issubdtype(array.dtype, np.integer):
            if np.issubdtype(array.dtype, np.floating) and np.all(
                np.isfinite(array)
            ) and np.all(array == np.floor(array)):
                array = array.astype(np.int64)
            else:
                raise InvalidRequest(
                    f"history must hold integer item ids, got dtype "
                    f"{array.dtype}"
                )
        array = array.astype(np.int64, copy=False)
        invalid = (array < 1) | (array > self.num_items)
        if invalid.any():
            if self.config.unknown_items == "reject":
                bad = np.unique(array[invalid])
                raise InvalidRequest(
                    f"history contains {int(invalid.sum())} unknown or "
                    f"invalid item ids (valid range 1..{self.num_items}): "
                    f"{bad[:5].tolist()}{'…' if len(bad) > 5 else ''}"
                )
            array = array[~invalid]
            if array.size == 0:
                raise InvalidRequest(
                    "history is empty after dropping unknown item ids"
                )
        if len(array) > self.config.max_history:
            array = array[-self.config.max_history:]
        return array, top_n

    def _rank(
        self, scores, history: np.ndarray, top_n: int
    ) -> np.ndarray:
        scores = np.asarray(scores, dtype=np.float64)
        expected = (1, self.num_items + 1)
        if scores.shape != expected:
            raise ValueError(
                f"expected scores of shape {expected}, got {scores.shape}"
            )
        exclude = [history] if self.config.exclude_history else None
        ranked = rank_items_batch(
            scores, top_n, exclude=exclude, check_finite=True
        )[0]
        # Drop the -inf sentinel tail: when fewer than top_n items are
        # rankable the batch kernel pads the list with excluded/padding
        # ids, which a service must never actually recommend.
        masked = scores[0].copy()
        masked[0] = -np.inf
        if exclude is not None:
            masked[history] = -np.inf
        ranked = ranked[masked[ranked] > -np.inf]
        if ranked.size == 0:
            raise ValueError("no rankable items after exclusions")
        return ranked

    def _rank_narrow(
        self, rung: _Rung, top: TopScores, history: np.ndarray, top_n: int
    ) -> np.ndarray:
        """Rank a candidate-native response without densifying it.

        The narrow twin of :meth:`_rank`: O(C log C) over the packed
        candidate list instead of O(|I|) over a scattered row, with the
        same exclusion semantics (history ids masked out, the 0-pad tail
        stripped exactly like the dense path's ``-inf`` tail).  When the
        exclusions swallow *every* retrieved candidate the request falls
        back to one true dense forward through the rung's engine
        (``score_batch_dense``) — the full catalogue can still be ranked,
        it just costs the allocation the narrow path normally avoids.
        Both outcomes are counted in the service stats
        (``narrow_ranked`` / ``dense_fallbacks``).
        """
        if len(top) != 1:
            raise ValueError(
                f"expected a 1-row narrow response, got {len(top)} rows"
            )
        if top.width != self.num_items + 1:
            raise ValueError(
                f"narrow width {top.width} does not match the service "
                f"vocabulary ({self.num_items + 1})"
            )
        exclude = [history] if self.config.exclude_history else None
        ranked = rank_top_scores(
            top, top_n, exclude=exclude, check_finite=True
        )[0]
        ranked = ranked[ranked != 0]
        if ranked.size == 0:
            dense = getattr(rung.model, "score_batch_dense", None)
            if dense is None:
                raise ValueError(
                    "no rankable candidates after exclusions and the "
                    "rung has no dense fallback"
                )
            self._stats.dense_fallbacks += 1
            return self._rank(dense([history]), history, top_n)
        self._stats.narrow_ranked += 1
        return ranked

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def reload_rung(
        self,
        name: str,
        path,
        registry: dict[str, type],
        check_finite: bool = True,
        retries: RetryPolicy | None = None,
    ) -> None:
        """Hot-swap a rung's model from a checkpoint.

        The file is loaded through
        :func:`repro.serve.loading.safe_load_model` (corrupt/truncated/
        NaN-weight files raise :class:`repro.nn.CheckpointError` and the
        current model keeps serving); on success the rung's breaker is
        reset so the fresh model starts with a clean slate, and — when
        the rung runs through an engine — every cached score for the old
        weights is invalidated (version bump + eager clear).
        """
        rung = self._rung(name)
        self._install(rung, safe_load_model(
            path, registry, check_finite=check_finite, retries=retries
        ))

    def swap_model(self, name: str, model) -> None:
        """Replace a rung's model with an already-built one (same cache
        invalidation as :meth:`reload_rung`)."""
        self._install(self._rung(name), model)

    @staticmethod
    def _install(rung: _Rung, model) -> None:
        engine = rung.engine
        if engine is not None:
            engine.set_model(model)
        else:
            rung.model = model
        rung.breaker.reset()

    def set_engine_config(self, engine: EngineConfig | bool | None) -> None:
        """Re-wrap every rung for a different engine configuration.

        Shard workers use this to apply a per-shard
        :class:`EngineConfig` override after the (shared) factory has
        built the service — e.g. a retrieval index or a bigger score
        cache on hot shards only.  Each rung's *current* model is kept;
        engines are rebuilt around it (fresh cache/batcher), and
        ``None`` unwraps back to direct model calls.
        """
        if engine is True:
            engine = EngineConfig()
        engine = engine or None
        self.engine_config = engine
        for rung in self._rungs:
            model = (
                rung.engine.model if rung.engine is not None else rung.model
            )
            rung.model = (
                InferenceEngine(model, config=engine, clock=self._clock)
                if engine else model
            )

    def current_model(self, name: str):
        """The model currently serving rung ``name`` (unwrapping the
        engine when the rung routes through one) — what a canary
        rollback must restore."""
        rung = self._rung(name)
        engine = rung.engine
        return engine.model if engine is not None else rung.model

    def warm_programs(self, batch_sizes) -> int:
        """Pre-trace compiled scoring programs for ``batch_sizes``.

        A respawned cluster replica calls this before rejoining the
        ring: for each rung whose model compiles its scoring forwards
        (:mod:`repro.tensor.compile`), one probe ``score_batch`` runs
        per hot batch size, so the replica's first real flushes *replay*
        programs instead of paying the trace.  Sizes are translated to
        the model-level shapes the engine's micro-batcher will actually
        produce (``max_batch`` chunks plus the ragged remainder); probes
        call the model directly, so no score cache or stats counter
        moves.  Returns how many programs were traced.
        """
        from ..tensor.compile import programs_for

        warmed = 0
        for rung in self._rungs:
            engine = rung.engine
            model = engine.model if engine is not None else rung.model
            if not getattr(model, "compile_scoring", False):
                continue
            if getattr(model, "max_length", None) is None:
                continue
            chunk_sizes: set[int] = set()
            for size in batch_sizes:
                size = int(size)
                if size < 1:
                    continue
                if engine is not None:
                    full, remainder = divmod(size, engine.config.max_batch)
                    if full:
                        chunk_sizes.add(engine.config.max_batch)
                    if remainder:
                        chunk_sizes.add(remainder)
                else:
                    chunk_sizes.add(size)
            probe = np.array([1], dtype=np.int64)
            for size in sorted(chunk_sizes):
                before = len(programs_for(model))
                model.score_batch([probe] * size)
                warmed += len(programs_for(model)) - before
        return warmed

    def describe_rungs(self) -> dict:
        """Per-rung model identity: class name plus the engine's model
        version and a summary of its configuration (both ``None`` for
        direct model calls).  The cluster's canary rollout uses this to
        assert which model generation each shard is actually serving;
        the engine summary is how heterogeneous per-shard overrides
        stay observable from the router."""
        description = {}
        for rung in self._rungs:
            engine = rung.engine
            model = engine.model if engine is not None else rung.model
            description[rung.name] = {
                "model": type(model).__name__,
                "version": (
                    engine.model_version if engine is not None else None
                ),
                "engine": (
                    {
                        "max_batch": engine.config.max_batch,
                        "cache_capacity": engine.config.cache_capacity,
                        "cache_capacity_bytes":
                            engine.config.cache_capacity_bytes,
                        "retrieval": engine.config.index is not None,
                        "narrow": engine.config.narrow,
                    }
                    if engine is not None else None
                ),
            }
        return description

    def breaker(self, name: str) -> CircuitBreaker:
        """The breaker guarding rung ``name`` (for tests/ops)."""
        return self._rung(name).breaker

    def _rung(self, name: str) -> _Rung:
        for rung in self._rungs:
            if rung.name == name:
                return rung
        raise KeyError(
            f"no rung named {name!r}; have "
            f"{[rung.name for rung in self._rungs]}"
        )

    def raw_stats(self) -> ServiceStats:
        """The live :class:`ServiceStats` object (picklable), so shard
        processes can ship it over a pipe for cross-process
        :meth:`ServiceStats.merge` aggregation."""
        return self._stats

    def stats(self) -> dict:
        """JSON-friendly snapshot of all counters and breaker states
        (plus per-rung engine cache/batcher stats when engines are on)."""
        return self._stats.snapshot(
            breakers={
                rung.name: rung.breaker.snapshot() for rung in self._rungs
            },
            engines={
                rung.name: rung.engine.snapshot()
                for rung in self._rungs
                if rung.engine is not None
            },
        )
