"""The batched, cache-aware, optionally parallel partitioning front door.

:class:`PartitionEngine` is the API production callers are expected to
use: single queries go through :meth:`PartitionEngine.solve` (NumPy
kernels + the prime-structure cache), and independent query streams go
through :meth:`PartitionEngine.solve_many`, which runs one loop either
in-process or on contiguous chunks in a process pool; results come back
**in input order** regardless of pool scheduling.

Queries are plain data (:class:`PartitionQuery`) that serialize
losslessly to JSONL — the wire format of the ``repro batch`` CLI
subcommand, whose raw lines workers parse themselves.  Failures are
*per query*: an infeasible bound yields a :class:`QueryResult` with
``error`` set instead of poisoning the whole batch.

Telemetry is *not* dropped at the process boundary: every result comes
back with a small ``telemetry`` dict (wall-clock, cache-stats delta,
and — when the engine's tracer is enabled — the worker's serialized
span records), and :meth:`PartitionEngine.solve_many` folds them, in
query order, into a :class:`BatchStats` left on
``engine.last_batch_stats`` plus the engine's
:class:`~repro.observability.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.feasibility import PartitioningError
from repro.core.pipeline import partition_chain
from repro.engine.cache import CacheStats, PlanCache, PrimeStructureCache
from repro.engine.kernels import HAVE_NUMPY
from repro.graphs.chain import Chain
from repro.graphs.metrics import chain_bandwidth_lower_bound, optimality_gap
from repro.instrumentation.counters import OpCounter
from repro.observability.live import NULL_HUB
from repro.observability.metrics import Histogram, MetricsRegistry
from repro.observability.spans import NULL_TRACER, HubLike, Tracer

#: Objectives accepted by the engine — the same vocabulary as
#: :func:`repro.core.pipeline.partition_chain`.
OBJECTIVES = (
    "bandwidth",
    "bottleneck",
    "processors",
    "bottleneck+processors",
    "bottleneck+bandwidth",
)


@dataclass(frozen=True)
class PartitionQuery:  # repro-lint: disable=REPRO002 (field defaults block slots on py39)
    """One independent partitioning question: a chain, a bound, an objective.

    ``tag`` is an opaque caller label carried through to the result
    (request ids, sweep coordinates, ...).
    """

    alpha: Tuple[float, ...]
    beta: Tuple[float, ...]
    bound: float
    objective: str = "bandwidth"
    tag: Optional[str] = None

    @classmethod
    def from_chain(
        cls,
        chain: Chain,
        bound: float,
        objective: str = "bandwidth",
        tag: Optional[str] = None,
    ) -> "PartitionQuery":
        return cls(
            tuple(chain.alpha_array.tolist()),
            tuple(chain.beta_array.tolist()),
            bound,
            objective,
            tag,
        )

    def chain(self) -> Chain:
        return Chain(self.alpha, self.beta)

    @classmethod
    def from_json(cls, line: str) -> "PartitionQuery":
        """Parse one JSONL query record.

        ``alpha`` and ``beta`` must be JSON arrays of numbers and
        ``bound`` a number: ``float`` would otherwise read ``"12"``
        character by character and accept ``"3"`` or ``true``.
        """
        record = json.loads(line)
        alpha = _numbers("alpha", record["alpha"])
        beta = _numbers("beta", record.get("beta", []))
        bound = record["bound"]
        if type(bound) not in _NUMBER_TYPES:
            raise ValueError(f"bound must be a number, got {type(bound).__name__}")
        objective = record.get("objective", "bandwidth")
        return cls(alpha, beta, float(bound), objective, record.get("tag"))


#: What ``json.loads`` makes of a JSON number (``bool`` is not one).
_NUMBER_TYPES = frozenset((int, float))


def _numbers(name: str, values: Any) -> Tuple[float, ...]:
    """``values`` as floats, if it is a JSON array of numbers."""
    if not isinstance(values, list):
        raise ValueError(
            f"{name} must be a JSON array of numbers, got {type(values).__name__}"
        )
    types = set(map(type, values))
    if types <= _NUMBER_TYPES:
        # ``float`` returns a float unchanged, so only ints need it.
        return tuple(map(float, values) if int in types else values)
    odd = min(t.__name__ for t in types - _NUMBER_TYPES)
    raise ValueError(f"{name} must be a JSON array of numbers, got an element of type {odd}")


def _parse_items(items: List[Any], tracer: Tracer) -> List[PartitionQuery]:
    """``items`` as queries: raw ``(lineno, line)`` records are parsed in
    one ``batch.parse`` span, stopping at the first (lowest) bad line."""
    if not items or isinstance(items[0], PartitionQuery):
        return items
    queries = []
    with tracer.span("batch.parse", lines=len(items)):
        for lineno, line in items:
            try:
                queries.append(PartitionQuery.from_json(line))
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                raise ValueError(f"invalid query record on line {lineno}: {exc!s}") from exc
    return queries


@dataclass
class QueryResult:  # repro-lint: disable=REPRO002 (field defaults block slots on py39)
    """The answer to one query, positionally matched to its input.

    ``index`` is the query's position in the submitted batch —
    ``solve_many`` guarantees ``results[i].index == i``.
    """

    index: int
    tag: Optional[str]
    objective: str
    bound: float
    cut_indices: List[int] = field(default_factory=list)
    weight: float = 0.0
    num_components: int = 1
    error: Optional[str] = None
    #: Per-query measurement shipped back from the solving process:
    #: ``duration_s``, a ``cache`` hit/miss delta, and (traced runs
    #: only) ``spans``.  Excluded from :meth:`to_json` — the JSONL wire
    #: format carries answers; telemetry is aggregated by the engine
    #: and exported through trace files instead.
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_json(self) -> str:
        """The result as one strict JSON line.

        JSON has no literal for a non-finite number, so a ``bound`` or
        ``weight`` of ``inf``/NaN is written as ``null`` (an error
        record's message already names the bad bound; a weight is
        infinite only when the cut must use an ``inf`` edge).
        """
        record: Dict = {
            "index": self.index,
            "tag": self.tag,
            "objective": self.objective,
            "bound": _json_number(self.bound),
        }
        if self.ok:
            record.update(
                cut=self.cut_indices,
                weight=_json_number(self.weight),
                components=self.num_components,
            )
        else:
            record["error"] = self.error
        return json.dumps(record, allow_nan=False)


def _json_number(value: float) -> Optional[float]:
    """``value``, or ``None`` when JSON cannot represent it."""
    return value if math.isfinite(value) else None


class BatchStats:
    """Deterministically merged telemetry from one ``solve_many`` call.

    Workers serialize their measurements with each result; the engine
    folds them back in query order, so two runs of the same batch yield
    identical aggregates (latency histograms aside, which depend on
    wall-clock but merge in the same order).
    """

    __slots__ = (
        "queries",
        "failures",
        "cache",
        "counter",
        "latency",
        "gap",
        "trace_records",
        "wall_s",
        "workers",
    )

    def __init__(self, workers: int = 0) -> None:
        self.queries = 0
        self.failures = 0
        #: Summed per-query cache deltas (worker-side caches included).
        self.cache = CacheStats()
        #: Op-counts summed out of every worker span (search steps, ...).
        self.counter = OpCounter()
        #: Per-query wall-clock, measured in the solving process.
        self.latency = Histogram("batch.query_latency_s")
        #: Per-query optimality gap vs the combinatorial lower bound —
        #: populated only under ``REPRO_VERIFY`` (see
        #: :func:`repro.graphs.metrics.chain_bandwidth_lower_bound`).
        self.gap = Histogram("solve.optimality_gap")
        #: Worker span records in query order, each tagged ``query_index``.
        self.trace_records: List[Dict[str, Any]] = []
        self.wall_s = 0.0
        self.workers = workers

    def absorb(self, result: "QueryResult") -> None:
        """Fold one result's telemetry in (call in index order)."""
        self.queries += 1
        if not result.ok:
            self.failures += 1
        telemetry = result.telemetry
        if not telemetry:
            return
        self.latency.observe(telemetry.get("duration_s", 0.0))
        if "optimality_gap" in telemetry:
            self.gap.observe(telemetry["optimality_gap"])
        delta = telemetry.get("cache")
        if delta:
            self.cache.hits += delta.get("hits", 0)
            self.cache.interval_hits += delta.get("interval_hits", 0)
            self.cache.misses += delta.get("misses", 0)
            self.cache.evictions += delta.get("evictions", 0)
        for record in telemetry.get("spans", ()):
            tagged = dict(record)
            tagged["query_index"] = result.index
            self.trace_records.append(tagged)
            for name, value in record.get("counts", {}).items():
                self.counter.add(name, value)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "queries": self.queries,
            "failures": self.failures,
            "workers": self.workers,
            "wall_s": self.wall_s,
            "cache": {
                "hits": self.cache.hits,
                "interval_hits": self.cache.interval_hits,
                "misses": self.cache.misses,
                "evictions": self.cache.evictions,
                "hit_rate": self.cache.hit_rate,
            },
            "counts": self.counter.as_dict(),
            "latency": self.latency.summary(),
            "optimality_gap": (
                self.gap.summary() if self.gap.count else None
            ),
        }

    def __repr__(self) -> str:
        return (
            f"BatchStats(queries={self.queries}, failures={self.failures}, "
            f"cache_hit_rate={self.cache.hit_rate:.2f})"
        )


class PartitionEngine:
    """Cache-aware partitioning engine with a batched front door.

    Parameters
    ----------
    backend:
        ``"numpy"`` (default when NumPy is importable) or ``"python"``.
    cache:
        A :class:`PrimeStructureCache` to share with other engines, or
        ``None`` to own a private one.
    max_workers:
        Default process-pool width for :meth:`solve_many`; ``0``/``1``
        solves serially in-process (still cached).  ``None`` lets the
        pool pick ``os.cpu_count()``.
    tracer:
        A :class:`repro.observability.Tracer`.  Disabled by default —
        single-query solves then take exactly the untraced fast path.
        When enabled, ``solve`` records nested spans and per-query
        latency metrics, and ``solve_many`` workers trace each query
        and ship the span records back.
    metrics:
        A :class:`repro.observability.MetricsRegistry` to share, or
        ``None`` to own a private one.  Batch aggregates always land
        here (they cost nothing on the single-query path).
    hub:
        A :class:`repro.observability.TelemetryHub` for live telemetry,
        or ``None`` for the zero-overhead :data:`NULL_HUB`.  With a
        live hub, every solve publishes a ``solve`` event *as it
        completes* (batch paths stream results incrementally, not at
        batch end) and every batch publishes a closing ``batch`` event
        — the feed behind ``repro batch --stream`` and ``repro top``.
    """

    __slots__ = (
        "backend",
        "cache",
        "plans",
        "max_workers",
        "tracer",
        "metrics",
        "hub",
        "last_batch_stats",
    )

    def __init__(
        self,
        backend: Optional[str] = None,
        cache: Optional[PrimeStructureCache] = None,
        plans: Optional[PlanCache] = None,
        max_workers: Optional[int] = 0,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        hub: Optional[HubLike] = None,
    ) -> None:
        if backend is None:
            backend = "numpy" if HAVE_NUMPY else "python"
        if backend not in ("python", "numpy"):
            raise ValueError(f"unknown backend {backend!r}")
        self.backend = backend
        self.hub = hub if hub is not None else NULL_HUB
        self.cache = cache or PrimeStructureCache(backend=backend, hub=self.hub)
        self.plans = plans or PlanCache()
        self.max_workers = max_workers
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.last_batch_stats: Optional[BatchStats] = None

    # ------------------------------------------------------------------
    # Single queries
    # ------------------------------------------------------------------
    def solve(
        self,
        chain: Chain,
        bound: float,
        objective: str = "bandwidth",
        *,
        search: str = "binary",
    ) -> ChainCutResult:
        """Solve one query through the fast path.

        ``"bandwidth"`` (Algorithm 4.1) runs through the prime-structure
        cache with the configured kernels and ``collect_stats`` off; the
        other objectives delegate to
        :func:`repro.core.pipeline.partition_chain` (tree algorithms,
        uncached).
        """
        if not self.tracer.enabled and not self.hub.enabled:
            return _solve_one(self, chain, bound, objective, None, search)
        t0 = time.perf_counter()
        with self.tracer.span(
            "engine_solve", objective=objective, n=chain.num_tasks, bound=bound
        ):
            result = _solve_one(self, chain, bound, objective, self.tracer, search)
        duration = time.perf_counter() - t0
        self.metrics.counter("engine.queries").inc()
        self.metrics.histogram("engine.query_latency_s").observe(duration)
        gap: Optional[float] = None
        if "REPRO_VERIFY" in os.environ and objective == "bandwidth":
            # Verification runs already pay for a pure-Python re-solve;
            # the combinatorial lower bound is noise next to that, and
            # turns every verified solve into a quality sample.
            gap = optimality_gap(
                result.weight, chain_bandwidth_lower_bound(chain, bound)
            )
            self.metrics.histogram("solve.optimality_gap").observe(gap)
        if self.hub.enabled:
            self.hub.publish(
                {
                    "kind": "event",
                    "event": "solve",
                    "objective": objective,
                    "n": chain.num_tasks,
                    "bound": bound,
                    "weight": result.weight,
                    "ok": True,
                    "duration_s": duration,
                }
            )
            self.hub.publish_metric("engine.query_latency_s", "observe", duration)
            if gap is not None:
                self.hub.publish_metric("solve.optimality_gap", "observe", gap)
        return result

    # ------------------------------------------------------------------
    # Multi-query sweeps (compiled plans)
    # ------------------------------------------------------------------
    def solve_sweep(
        self,
        chain: Chain,
        bounds: Sequence[float],
        *,
        return_cuts: bool = False,
    ) -> Any:
        """Optimal bandwidth for every bound in ``bounds``, one batched pass.

        Routes through a :class:`~repro.engine.plan.CompiledChainPlan`
        cached by chain fingerprint in :attr:`plans`, so repeated sweeps
        over the same chain share frozen arrays and built structures.
        Returns the per-bound weights (a float64 array on the NumPy
        backend, a list on the Python fallback), or ``(weights, cuts)``
        with ``return_cuts=True``.  Answers are bit-identical to
        per-call :meth:`solve`; under ``REPRO_VERIFY=1`` every element
        is certified against the pure-Python solver.

        On ``backend="python"`` (or when NumPy is missing) the sweep
        degrades to per-call solves through the structure cache — same
        answers, no compiled fast path.
        """
        if self.backend != "numpy" or not HAVE_NUMPY:
            results = [self.solve(chain, float(b)) for b in bounds]
            weights = [r.weight for r in results]
            if return_cuts:
                return weights, [list(r.cut_indices) for r in results]
            return weights
        tracer = self.tracer if self.tracer.enabled else None
        plan = self.plans.get(
            chain, tracer=tracer, metrics=self.metrics, hub=self.hub
        )
        return plan.solve_bounds(bounds, return_cuts=return_cuts)

    def cache_stats(self) -> CacheStats:
        return self.cache.stats

    def snapshot_metrics(self) -> MetricsRegistry:
        """The engine's registry with current cache gauges folded in.

        Cache hit/miss counts accumulate on :class:`CacheStats` (no
        per-lookup metric cost); this snapshot mirrors them into the
        registry so one export carries everything.
        """
        stats = self.cache.stats
        self.metrics.gauge("engine.cache.hits").set(stats.hits)
        self.metrics.gauge("engine.cache.interval_hits").set(stats.interval_hits)
        self.metrics.gauge("engine.cache.misses").set(stats.misses)
        self.metrics.gauge("engine.cache.evictions").set(stats.evictions)
        self.metrics.gauge("engine.cache.hit_rate").set(stats.hit_rate)
        self.metrics.gauge("engine.cache.entries").set(len(self.cache))
        plan_stats = self.plans.stats
        self.metrics.gauge("engine.plan.cache.hits").set(plan_stats.hits)
        self.metrics.gauge("engine.plan.cache.misses").set(plan_stats.misses)
        self.metrics.gauge("engine.plan.cache.evictions").set(
            plan_stats.evictions
        )
        self.metrics.gauge("engine.plan.cache.plans").set(len(self.plans))
        self.metrics.gauge("engine.plan.cache.occupancy").set(
            self.plans.occupancy
        )
        return self.metrics

    # ------------------------------------------------------------------
    # Batched queries
    # ------------------------------------------------------------------
    def solve_many(
        self,
        queries: Union[Sequence[PartitionQuery], Sequence[Tuple[int, str]]],
        *,
        max_workers: Optional[int] = None,
        chunksize: Optional[int] = None,
        use_plans: bool = True,
    ) -> List[QueryResult]:
        """Solve independent queries, returning results in input order.

        ``queries`` holds :class:`PartitionQuery` objects or the raw
        ``(lineno, line)`` records :meth:`solve_jsonl` sends to a pool.
        Everything runs through :func:`_solve_serial`: in-process, or
        in a pool worker per contiguous chunk of ``chunksize`` items
        (same-chain queries in a chunk share a plan).
        ``use_plans=False`` restores strictly per-call solves.
        """
        items: List[Any] = list(queries)
        workers = self._pool_width(max_workers, len(items))
        t0 = time.perf_counter()
        if not workers:
            results = _solve_serial(
                self, _parse_items(items, self.tracer), use_plans,
                self.tracer.enabled,
            )
        else:
            if chunksize is None:
                chunksize = max(1, len(items) // (4 * workers))
            chunks = [
                (start, items[start:start + chunksize], self.backend,
                 self.tracer.enabled, use_plans)
                for start in range(0, len(items), chunksize)
            ]
            # Chunks come back in input order, so the first raw-line
            # error raised here is the lowest bad line.  Each result
            # streams to the live hub as its chunk lands; the aggregate
            # below still folds in query-index order.
            results = []
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for answers in pool.map(_solve_chunk, chunks):
                    if self.hub.enabled:
                        for answer in answers:
                            self._publish_result(answer)
                    results.extend(answers)
        self._aggregate_batch(results, workers, time.perf_counter() - t0)
        return results

    def _pool_width(self, max_workers: Optional[int], size: int) -> int:
        """Process-pool width for a batch of ``size``; 0 runs in-process."""
        if max_workers is None:
            max_workers = self.max_workers
        if max_workers in (0, 1) or size <= 1:
            return 0
        if max_workers is not None and max_workers < 0:
            raise ValueError("max_workers must be >= 0")
        return max_workers or os.cpu_count() or 1

    def _publish_result(self, result: QueryResult) -> None:
        """Stream one finished query to the live hub (call sites guard
        on ``hub.enabled`` — REPRO012 — so the disabled path never gets
        here)."""
        hub = self.hub
        if hub.enabled:
            telemetry = result.telemetry or {}
            duration = telemetry.get("duration_s", 0.0)
            hub.publish(
                {
                    "kind": "event",
                    "event": "solve",
                    "index": result.index,
                    "tag": result.tag,
                    "objective": result.objective,
                    "bound": result.bound,
                    "ok": result.ok,
                    "weight": result.weight,
                    "error": result.error,
                    "duration_s": duration,
                }
            )
            hub.publish_metric(
                "engine.batch.query_latency_s", "observe", duration
            )
            if "optimality_gap" in telemetry:
                hub.publish_metric(
                    "solve.optimality_gap", "observe",
                    telemetry["optimality_gap"],
                )

    def _aggregate_batch(
        self, results: List[QueryResult], workers: int, wall_s: float
    ) -> None:
        """Merge per-result telemetry into ``last_batch_stats`` and the
        engine registry — the fix for workers silently discarding their
        ``OpCounter``/``CacheStats``.  Results arrive (and are folded)
        in query order, so the aggregate is deterministic."""
        batch = BatchStats(workers=workers)
        batch.wall_s = wall_s
        for result in results:
            batch.absorb(result)
        self.last_batch_stats = batch
        metrics = self.metrics
        metrics.counter("engine.batch.batches").inc()
        metrics.counter("engine.batch.queries").inc(batch.queries)
        metrics.counter("engine.batch.failures").inc(batch.failures)
        metrics.counter("engine.batch.cache_hits").inc(
            batch.cache.hits + batch.cache.interval_hits
        )
        metrics.counter("engine.batch.cache_misses").inc(batch.cache.misses)
        metrics.gauge("engine.batch.workers").set(workers)
        metrics.gauge("engine.batch.queue_depth").set(batch.queries)
        metrics.histogram("engine.batch.wall_s").observe(wall_s)
        metrics.histogram("engine.batch.query_latency_s").merge(batch.latency)
        if batch.gap.count:
            metrics.histogram("solve.optimality_gap").merge(batch.gap)
        if self.hub.enabled:
            self.hub.publish(
                {
                    "kind": "event",
                    "event": "batch",
                    "queries": batch.queries,
                    "failures": batch.failures,
                    "workers": workers,
                    "wall_s": wall_s,
                    "cache_hit_rate": batch.cache.hit_rate,
                    "plan_occupancy": self.plans.occupancy,
                    "latency": batch.latency.summary(),
                }
            )

    def solve_jsonl(
        self,
        lines: Iterable[str],
        *,
        max_workers: Optional[int] = None,
        chunksize: Optional[int] = None,
        use_plans: bool = True,
    ) -> List[QueryResult]:
        """Parse JSONL query records and solve them as one batch.

        Raises :class:`ValueError` naming the lowest offending line on
        a malformed record; solver-level failures (e.g. infeasible
        bounds) are still captured per-result, not raised.  With a
        pool, each worker parses its own chunk of raw lines.
        """
        records: List[Any] = [
            (lineno, line) for lineno, line in enumerate(lines, 1) if line.strip()
        ]
        if not self._pool_width(max_workers, len(records)):
            # In-process batches parse up front: the batch wall time
            # (``engine.batch.wall_s``) then covers the solve alone.
            records = _parse_items(records, self.tracer)
        return self.solve_many(
            records, max_workers=max_workers, chunksize=chunksize,
            use_plans=use_plans,
        )


# Per-process engine for pool workers: built on first use so the cache
# persists across the chunks a worker processes.
_WORKER_ENGINE: Optional[PartitionEngine] = None


def _worker_engine(backend: str) -> PartitionEngine:
    global _WORKER_ENGINE
    if _WORKER_ENGINE is None or _WORKER_ENGINE.backend != backend:
        # Intentional per-process cache: each worker owns its engine so
        # prime structures persist across the chunks it processes, and
        # nothing here must ever flow back to the parent.
        _WORKER_ENGINE = PartitionEngine(backend=backend, max_workers=0)  # repro-lint: disable=REPRO006 (per-process cache)
    return _WORKER_ENGINE


def _solve_one(
    engine: PartitionEngine,
    chain: Chain,
    bound: float,
    objective: str,
    tracer: Optional[Tracer],
    search: str = "binary",
) -> ChainCutResult:
    """One query against an engine's cache, optionally under a tracer."""
    if objective == "bandwidth":
        return engine.cache.solve(chain, bound, search=search, tracer=tracer)
    if objective not in OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r}; expected one of {OBJECTIVES}"
        )
    return partition_chain(chain, bound, objective)


def _solve_serial(
    engine: PartitionEngine, queries: List[PartitionQuery], use_plans: bool, trace: bool
) -> List[QueryResult]:
    """The one batch loop: plan-route bandwidth groups, per-call
    everything else.  Results are indexed by position in ``queries``.

    Bandwidth queries are grouped by chain content; groups with at
    least two feasible finite bounds go through
    :meth:`PartitionEngine.solve_sweep` (identical answers, shared
    structural work).  Infeasible or non-finite bounds keep per-call
    error semantics, and a group-level failure leaves its queries to
    per-call solves so errors stay per query.  ``trace`` disables plan
    routing — per-query spans are the contract there.
    """
    routed = use_plans and engine.backend == "numpy" and HAVE_NUMPY and not trace
    groups: Dict[Tuple[tuple, tuple], List[Tuple[int, PartitionQuery]]] = {}
    for i, q in enumerate(queries):
        if routed and q.objective == "bandwidth":
            groups.setdefault((q.alpha, q.beta), []).append((i, q))
    results: List[Optional[QueryResult]] = [None] * len(queries)
    verify = "REPRO_VERIFY" in os.environ
    for (alpha, beta), members in groups.items():
        alpha_max = max(alpha) if alpha else 0.0
        eligible = [
            (i, q)
            for i, q in members
            if math.isfinite(q.bound) and 0.0 < q.bound and alpha_max <= q.bound
        ]
        if len(eligible) < 2:
            continue
        chain = Chain(alpha, beta)
        t0 = time.perf_counter()
        try:
            weights, cuts = engine.solve_sweep(
                chain, [q.bound for _, q in eligible], return_cuts=True
            )
        except (PartitioningError, ValueError):
            # e.g. a verification failure: the per-call loop below
            # re-runs the group so the error lands on one query only.
            engine.metrics.counter("engine.plan.group_fallbacks").inc()
            continue
        share = (time.perf_counter() - t0) / len(eligible)
        for (i, q), weight, cut in zip(eligible, weights, cuts):
            answer = QueryResult(
                i, q.tag, q.objective, q.bound, list(cut), float(weight),
                len(cut) + 1,
            )
            answer.telemetry = {"duration_s": share, "plan_group": len(eligible)}
            if verify:
                answer.telemetry["optimality_gap"] = optimality_gap(
                    float(weight), chain_bandwidth_lower_bound(chain, q.bound)
                )
            results[i] = answer
            if engine.hub.enabled:
                engine._publish_result(answer)
    out: List[QueryResult] = []
    for i, (q, result) in enumerate(zip(queries, results)):
        if result is None:
            result = _solve_query(i, q, engine, trace)
            if engine.hub.enabled:
                engine._publish_result(result)
        out.append(result)
    return out


def _solve_chunk(chunk: tuple) -> List[QueryResult]:
    """Pool worker entry: parse one contiguous chunk, run
    :func:`_solve_serial` on it and number the results from ``start``.
    A traced chunk's ``batch.parse`` span rides on its first result."""
    start, items, backend, trace, use_plans = chunk
    tracer = Tracer() if trace else NULL_TRACER
    queries = _parse_items(items, tracer)
    results = _solve_serial(_worker_engine(backend), queries, use_plans, trace)
    for result in results:
        result.index += start
    telemetry = results[0].telemetry
    if trace and telemetry is not None:
        telemetry["spans"][:0] = tracer.records()
    return results


def _solve_query(
    index: int, query: PartitionQuery, engine: PartitionEngine, trace: bool
) -> QueryResult:
    """Solve one query; never raises (errors land in the result).

    Always measures wall-clock and the cache-stats delta (a handful of
    int reads); with ``trace``, also runs the query under a fresh
    per-query tracer and serializes its spans into
    ``telemetry["spans"]``, which is how worker-process spans cross
    back to the parent engine.
    """
    objective, bound = query.objective, query.bound
    stats = engine.cache.stats
    before = (stats.hits, stats.interval_hits, stats.misses, stats.evictions)
    tracer = Tracer() if trace else None
    t0 = time.perf_counter()
    gap: Optional[float] = None
    try:
        chain = query.chain()
        result = _solve_one(engine, chain, bound, objective, tracer)
        answer = QueryResult(
            index, query.tag, objective, bound, list(result.cut_indices),
            result.weight, result.num_components,
        )
        if "REPRO_VERIFY" in os.environ and objective == "bandwidth":
            gap = optimality_gap(
                result.weight, chain_bandwidth_lower_bound(chain, bound)
            )
    except (PartitioningError, ValueError) as exc:  # repro-lint: disable=REPRO024 error is captured into the QueryResult payload and published downstream
        answer = QueryResult(index, query.tag, objective, bound, error=str(exc))
    duration = time.perf_counter() - t0
    stats = engine.cache.stats  # clear() swaps the object; re-read
    telemetry: Dict[str, Any] = {
        "duration_s": duration,
        "cache": {
            "hits": stats.hits - before[0],
            "interval_hits": stats.interval_hits - before[1],
            "misses": stats.misses - before[2],
            "evictions": stats.evictions - before[3],
        },
    }
    if gap is not None:
        telemetry["optimality_gap"] = gap
    if tracer is not None:
        telemetry["spans"] = tracer.records()
    answer.telemetry = telemetry
    return answer
