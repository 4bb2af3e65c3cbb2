"""Single-query solving and the compiled-plan LRU.

Production traffic rarely asks one isolated question about a chain: the
inverse solvers probe many bounds during a search, the Figure-2 sweeps
walk a whole grid of ``K`` values, and batch workloads repeat popular
``(chain, K)`` pairs.  This module holds the two objects that make the
repeats cheap:

- :class:`PlanCache`, an LRU of
  :class:`~repro.engine.plan.CompiledChainPlan` keyed by chain content
  fingerprint (:meth:`repro.graphs.chain.Chain.fingerprint`), so equal
  chains — even deserialized copies in different worker processes —
  share one plan.  Each plan memoizes Algorithm 4.1's answer per
  *stability interval*: a structure computed at bound ``K`` remains
  valid for every ``K'`` in ``[K, min_prime_weight)`` — raising the
  bound only changes a minimal critical window once it stops exceeding
  the bound, and the smallest window weight is exactly
  ``min_prime_weight``.  Sorted-``K`` sweeps therefore hit the memo on
  every probe that lands inside an earlier structure's interval.
- :class:`PrimeStructureCache`, the single-query front end
  (``PartitionEngine.solve``): it takes the chain's plan from its
  :class:`PlanCache` and asks the plan for one bound, keeping the
  hit/miss accounting, the ``cache`` telemetry events and the
  ``REPRO_VERIFY`` cross-check.  Single queries and bound sweeps
  therefore share one memo.

The memo is *exact*: a served result is always element-for-element
identical to a fresh pure-Python computation (property-tested).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Optional, Tuple

from repro.core.bandwidth import ChainCutResult
from repro.engine.plan import CompiledChainPlan, compile_chain
from repro.graphs.chain import Chain
from repro.observability.live import NULL_HUB
from repro.verify.markers import concurrent_entry, shared_state

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.observability import MetricsRegistry, Tracer
    from repro.observability.spans import HubLike


class CacheStats:
    """Hit/miss accounting, exposed for tests and capacity planning."""

    __slots__ = ("hits", "interval_hits", "misses", "evictions")

    def __init__(
        self,
        hits: int = 0,
        interval_hits: int = 0,
        misses: int = 0,
        evictions: int = 0,
    ) -> None:
        self.hits = hits
        self.interval_hits = interval_hits
        self.misses = misses
        self.evictions = evictions

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, interval_hits={self.interval_hits}, "
            f"misses={self.misses}, evictions={self.evictions})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheStats):
            return NotImplemented
        return (
            self.hits == other.hits
            and self.interval_hits == other.interval_hits
            and self.misses == other.misses
            and self.evictions == other.evictions
        )

    @property
    def lookups(self) -> int:
        return self.hits + self.interval_hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return (self.hits + self.interval_hits) / total if total else 0.0


@shared_state(lock="_lock")
class PrimeStructureCache:
    """Algorithm 4.1 for one ``(chain, bound)`` through the chain's plan.

    Parameters
    ----------
    hub:
        A live :class:`~repro.observability.TelemetryHub`, or ``None``
        for the no-op default.  With a live hub, misses and evictions
        publish ``cache`` events — the feed the ``repro top`` cache
        panel and capacity planning watch.

    The per-chain memo lives in the plans of :attr:`plans`, the
    engine's one chain LRU; tune it with ``plans.max_plans`` (chains)
    and a plan's ``max_structures`` (intervals per chain).

    **Thread safety.**  The cache is shared across request threads, so
    every entry point (``solve``/``clear``) serializes on one reentrant
    ``_lock`` declared via ``@shared_state`` — the concurrency analyzer
    (REPRO013) and the race-hammer harness both key off that
    declaration.  The plan's own lock guards its memo, which bound
    sweeps on other threads mutate too.
    """

    __slots__ = ("plans", "stats", "hub", "_lock")

    def __init__(self, hub: Optional["HubLike"] = None) -> None:
        self.plans = PlanCache()
        self.stats = CacheStats()
        self.hub = hub if hub is not None else NULL_HUB
        self._lock = threading.RLock()

    def _publish_cache_event(self, action: str, bound: float) -> None:
        """Publish one ``cache`` event (callers guard on ``hub.enabled``)."""
        if self.hub.enabled:
            self.hub.publish(
                {
                    "kind": "event",
                    "event": "cache",
                    "action": action,
                    "bound": bound,
                    "hits": self.stats.hits,
                    "interval_hits": self.stats.interval_hits,
                    "misses": self.stats.misses,
                    "evictions": self.stats.evictions,
                    "hit_rate": self.stats.hit_rate,
                }
            )

    @concurrent_entry
    def solve(
        self,
        chain: Chain,
        bound: float,
        *,
        tracer: Optional["Tracer"] = None,
    ) -> ChainCutResult:
        """Algorithm 4.1 through the chain's plan memo.

        The optimal cut depends only on the prime structure, so a bound
        inside a memoized stability interval is served the memoized
        result (an exact ``hit`` when the entry was built at this very
        bound, an ``interval_hit`` otherwise); a miss solves once and
        memoizes the result for the structure's whole interval.

        An enabled ``tracer`` records a ``cache_solve`` span whose
        ``outcome`` attribute distinguishes exact hits, interval
        (warm-start) hits and misses, and whether a sweep actually ran;
        ``None``/disabled tracing costs one branch.
        """
        if tracer is None or not tracer.enabled:
            return self._solve_impl(chain, bound)
        with tracer.span(
            "cache_solve", n=chain.num_tasks, bound=bound, search="binary"
        ) as span:
            before = (
                self.stats.hits, self.stats.interval_hits, self.stats.misses,
            )
            result = self._solve_impl(chain, bound, tracer=tracer, span=span)
            hits, interval_hits, misses = (
                self.stats.hits - before[0],
                self.stats.interval_hits - before[1],
                self.stats.misses - before[2],
            )
            span.set(
                "outcome",
                "miss" if misses else ("interval_hit" if interval_hits else "hit"),
            )
            span.add("cache_hits", hits)
            span.add("cache_interval_hits", interval_hits)
            span.add("cache_misses", misses)
        return result

    def _solve_impl(
        self,
        chain: Chain,
        bound: float,
        tracer: Optional[Any] = None,
        span: Optional[Any] = None,
    ) -> ChainCutResult:
        with self._lock:
            stats = self.stats
            plan, evicted_chain = self.plans.fetch(chain)
            if evicted_chain:
                stats.evictions += 1
                if self.hub.enabled:
                    self._publish_cache_event("evict_chain", 0.0)
            result, outcome, swept, evicted = plan.solve_bound(
                bound, tracer=tracer
            )
            if outcome == "miss":
                stats.misses += 1
                stats.evictions += evicted
                if self.hub.enabled:
                    self._publish_cache_event("miss", bound)
                    if evicted:
                        self._publish_cache_event("evict", bound)
            elif outcome == "hit":
                stats.hits += 1
            else:
                stats.interval_hits += 1
            if span is not None:
                span.set("sweep_ran", swept)
        if "REPRO_VERIFY" in os.environ:
            # Self-certification (REPRO_VERIFY=1): certificate-check the
            # served result and cross-check it against a fresh pure-Python
            # solve at the *queried* bound — exactly the paths (kernel,
            # memoized, warm-started) where a stale or divergent answer
            # could otherwise slip through.  Imported lazily: verify sits
            # above the engine in the layering.
            from repro.verify.runtime import maybe_verify_cache_solve

            maybe_verify_cache_solve(chain, bound, result)
        return result

    @concurrent_entry
    def clear(self) -> None:
        """Drop every memoized plan and reset the statistics."""
        with self._lock:
            self.plans.clear()
            self.stats = CacheStats()

    def __len__(self) -> int:
        """Memoized structures, summed over the cached plans."""
        return self.plans.structures()


@shared_state(lock="_lock")
class PlanCache:
    """LRU of :class:`~repro.engine.plan.CompiledChainPlan` by fingerprint.

    The engine's one chain LRU: single queries (through
    :class:`PrimeStructureCache`), successive ``solve_sweep`` calls,
    fingerprint-grouped ``solve_many`` batches and the Pareto-frontier
    probe loop all reuse one plan per chain, so its frozen arrays *and*
    its memo of built structures amortize across calls.  Sharing is
    exact: equal fingerprints mean equal chain content, and a plan's
    answers are pure functions of that content.

    ``max_plans`` defaults to 64 chains, the single-query capacity the
    engine has always had.  ``interval_hits`` on :attr:`stats` stays
    zero — stability-interval reuse happens inside each plan's own memo,
    not at this layer.

    Thread-safe under one reentrant ``_lock`` (``@shared_state``), the
    same discipline as :class:`PrimeStructureCache`; each plan guards
    its memo with its own lock.
    """

    __slots__ = ("max_plans", "stats", "_plans", "_lock")

    def __init__(self, max_plans: int = 64) -> None:
        self.max_plans = max(1, int(max_plans))
        self.stats = CacheStats()
        self._plans: "OrderedDict[str, CompiledChainPlan]" = OrderedDict()
        self._lock = threading.RLock()

    @concurrent_entry
    def fetch(
        self,
        chain: Chain,
        *,
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
        hub: Optional["HubLike"] = None,
    ) -> Tuple[CompiledChainPlan, bool]:
        """``(plan, evicted)``: the cached plan for ``chain``, compiled
        (with the given telemetry) on first sight, and whether that
        compile pushed the least recently used plan out."""
        key = chain.fingerprint()
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.stats.hits += 1
                return plan, False
            plan = compile_chain(chain, tracer=tracer, metrics=metrics, hub=hub)
            self._plans[key] = plan
            self.stats.misses += 1
            if len(self._plans) <= self.max_plans:
                return plan, False
            self._plans.popitem(last=False)
            self.stats.evictions += 1
            return plan, True

    @concurrent_entry
    def get(
        self,
        chain: Chain,
        *,
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
        hub: Optional["HubLike"] = None,
    ) -> CompiledChainPlan:
        """The cached plan for ``chain``, compiling one on first sight.

        The plan's ``tracer``/``metrics``/``hub`` are rebound to the
        caller's so telemetry always lands in the live registry (plans
        outlive the engines that created them when caches are shared).
        """
        with self._lock:
            plan, _ = self.fetch(chain, tracer=tracer, metrics=metrics, hub=hub)
            plan.tracer = tracer
            plan.metrics = metrics
            plan.hub = hub or NULL_HUB
            return plan

    @concurrent_entry
    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self.stats = CacheStats()

    def structures(self) -> int:
        """Memoized structures, summed over the cached plans."""
        with self._lock:
            return sum(map(len, self._plans.values()))

    def __len__(self) -> int:
        return len(self._plans)

    @property
    def occupancy(self) -> float:
        """Fill fraction ``len / max_plans`` in ``[0, 1]`` — the
        plan-cache gauge ``repro top`` renders."""
        return len(self._plans) / self.max_plans
