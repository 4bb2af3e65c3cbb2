"""Prime-structure and result caching across related queries.

Production traffic rarely asks one isolated question about a chain: the
inverse solvers probe many bounds during a search, the Figure-2 sweeps
walk a whole grid of ``K`` values, and batch workloads repeat popular
``(chain, K)`` pairs.  The seed implementation re-derives prefix sums,
prime subpaths and the edge reduction from scratch on every call.  This
module adds the shared-preprocessing layer:

- chains are identified by content fingerprint
  (:meth:`repro.graphs.chain.Chain.fingerprint`), so equal chains —
  even deserialized copies in different worker processes — share cache
  entries;
- per chain, every NumPy-kernel call reads the chain's own read-only
  float64 prefix/beta arrays (built once, by the ``Chain``);
- computed prime structures are kept in an LRU keyed by
  ``(fingerprint, K)``, together with the Algorithm-4.1 result computed
  from them (the optimal cut is a pure function of the structure);
- a binary-search miss on the NumPy backend is solved by the native
  fused kernel (:mod:`repro.engine.native`) in one C pass, which also
  reports the stability interval; the array structure is then built
  only on demand.  Without the native kernel the miss builds the
  structure and runs the Python sweep, with the same answers;
- **monotone warm-start:** a structure computed at bound ``K`` remains
  valid for every ``K'`` in ``[K, min_prime_weight)`` — raising the
  bound only changes a minimal critical window once it stops exceeding
  the bound, and the smallest window weight is exactly
  ``min_prime_weight``.  Sorted-``K`` sweeps therefore hit the cache on
  every probe that lands inside the previous structure's stability
  interval, turning a 100-point sweep into a handful of real solves.

The cache is *exact*: a served result is always element-for-element
identical to a fresh pure-Python computation (property-tested).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.core.bandwidth import ChainCutResult, bandwidth_min
from repro.core.prime_subpaths import compute_prime_structure
from repro.engine import kernels
from repro.engine.kernels import validate_bound_array
from repro.engine.plan import CompiledChainPlan, compile_chain
from repro.graphs.chain import Chain
from repro.observability.live import NULL_HUB
from repro.observability.spans import NULL_TRACER
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


class _CachedSolve:
    """One cached prime structure plus the solves derived from it.

    ``valid_from``/``valid_until`` delimit the half-open bound interval
    over which the structure (and therefore every derived result) is
    unchanged.  ``results`` memoizes Algorithm 4.1's answer per search
    strategy — the sweep is a pure function of the structure.

    A miss served by the native fused kernel learns the interval from
    the kernel and stores no structure (``structure is None``); the
    cache builds it at ``valid_from`` only if a caller asks for it.
    """

    __slots__ = ("structure", "valid_from", "valid_until", "results")

    def __init__(
        self,
        structure: Any,
        valid_from: float,
        valid_until: Optional[float] = None,
    ) -> None:
        self.structure = structure
        self.valid_from = valid_from
        self.valid_until: float = (
            structure.min_prime_weight() if valid_until is None else valid_until
        )
        self.results: Dict[str, ChainCutResult] = {}

    def covers(self, bound: float) -> bool:
        return self.valid_from <= bound < self.valid_until


class _ChainEntry:
    """Per-fingerprint state: the chain, its max task weight and the
    structure LRU."""

    __slots__ = ("chain", "alpha_max", "structures")

    def __init__(self, chain: Chain) -> None:
        self.chain = chain
        self.alpha_max = chain.max_vertex_weight()
        # (bound, apply_reduction) -> _CachedSolve, in LRU order.
        self.structures: "OrderedDict[Tuple[float, bool], _CachedSolve]" = (
            OrderedDict()
        )


@shared_state(lock="_lock")
class PrimeStructureCache:
    """LRU of prime structures and solves, keyed by chain fingerprint.

    Parameters
    ----------
    max_chains:
        Number of distinct chains kept (least recently used evicted).
    max_structures_per_chain:
        Structures kept per chain; also bounds the linear scan the
        interval warm-start performs.
    backend:
        ``"numpy"`` (default when available) or ``"python"`` — which
        kernels build structures on a miss.
    hub:
        A live :class:`~repro.observability.TelemetryHub`, or ``None``
        for the no-op default.  With a live hub, structure builds
        (misses) and evictions publish ``cache`` events — the feed the
        ``repro top`` cache panel and capacity planning watch.

    **Thread safety.**  The cache is shared across request threads in
    the upcoming ``repro serve`` arc, so every mutating entry point
    (``structure``/``solve``/``clear``) serializes on one reentrant
    ``_lock`` declared via ``@shared_state`` — the concurrency analyzer
    (REPRO013) and the race-hammer harness both key off that
    declaration.  Misses compute the structure while holding the lock:
    exactness beats miss parallelism here, because a duplicated build
    would double-count ``misses`` and tear the LRU order.
    """

    __slots__ = (
        "backend",
        "max_chains",
        "max_structures_per_chain",
        "stats",
        "hub",
        "_entries",
        "_lock",
    )

    def __init__(
        self,
        max_chains: int = 64,
        max_structures_per_chain: int = 32,
        backend: Optional[str] = None,
        hub: Optional["HubLike"] = None,
    ) -> None:
        if backend is None:
            from repro.engine.kernels import HAVE_NUMPY

            backend = "numpy" if HAVE_NUMPY else "python"
        if backend not in ("python", "numpy"):
            raise ValueError(f"unknown backend {backend!r}")
        self.backend = backend
        self.max_chains = max_chains
        self.max_structures_per_chain = max_structures_per_chain
        self.stats = CacheStats()
        self.hub = hub if hub is not None else NULL_HUB
        self._entries: "OrderedDict[str, _ChainEntry]" = OrderedDict()
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

    # ------------------------------------------------------------------
    # Internal plumbing
    # ------------------------------------------------------------------
    def _entry(self, chain: Chain) -> _ChainEntry:
        key = chain.fingerprint()
        entry = self._entries.get(key)
        if entry is None:
            entry = _ChainEntry(chain)
            self._entries[key] = entry
            if len(self._entries) > self.max_chains:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
                if self.hub.enabled:
                    self._publish_cache_event("evict_chain", 0.0)
        else:
            self._entries.move_to_end(key)
        return entry

    def _lookup(
        self, entry: _ChainEntry, bound: float, apply_reduction: bool
    ) -> Optional[_CachedSolve]:
        exact = entry.structures.get((bound, apply_reduction))
        if exact is not None:
            entry.structures.move_to_end((bound, apply_reduction))
            self.stats.hits += 1
            return exact
        # Monotone warm-start: any cached structure whose stability
        # interval contains the bound serves it exactly.
        for (_, reduced), cached in entry.structures.items():
            if reduced == apply_reduction and cached.covers(bound):
                self.stats.interval_hits += 1
                return cached
        return None

    def _build_structure(
        self,
        entry: _ChainEntry,
        bound: float,
        apply_reduction: bool,
        tracer: Optional["Tracer"] = None,
    ) -> Any:
        if self.backend == "numpy":
            return kernels.compute_prime_structure_numpy(
                entry.chain,
                bound,
                apply_reduction=apply_reduction,
                tracer=tracer,
            )
        return compute_prime_structure(
            entry.chain, bound, apply_reduction=apply_reduction, tracer=tracer,
        )

    def _structure_of(
        self,
        entry: _ChainEntry,
        cached: _CachedSolve,
        apply_reduction: bool,
        tracer: Optional["Tracer"] = None,
    ) -> Any:
        """``cached``'s structure, built now if a fused miss skipped it."""
        if cached.structure is None:
            cached.structure = self._build_structure(
                entry, cached.valid_from, apply_reduction, tracer=tracer
            )
        return cached.structure

    def _store(
        self,
        entry: _ChainEntry,
        bound: float,
        apply_reduction: bool,
        cached: _CachedSolve,
    ) -> _CachedSolve:
        """Insert a freshly solved miss into the structure LRU."""
        entry.structures[(bound, apply_reduction)] = cached
        evicted = False
        if len(entry.structures) > self.max_structures_per_chain:
            entry.structures.popitem(last=False)
            self.stats.evictions += 1
            evicted = True
        self.stats.misses += 1
        if self.hub.enabled:
            self._publish_cache_event("miss", bound)
            if evicted:
                self._publish_cache_event("evict", bound)
        return cached

    def _compute(
        self,
        entry: _ChainEntry,
        bound: float,
        apply_reduction: bool,
        tracer: Optional["Tracer"] = None,
    ) -> _CachedSolve:
        structure = self._build_structure(
            entry, bound, apply_reduction, tracer=tracer
        )
        return self._store(
            entry, bound, apply_reduction, _CachedSolve(structure, bound)
        )

    def _compute_fused(
        self,
        entry: _ChainEntry,
        bound: float,
        apply_reduction: bool,
        tracer: Optional["Tracer"] = None,
    ) -> Optional[_CachedSolve]:
        """A binary-search miss solved by the native fused kernel, with
        its result memoized; ``None`` when the kernel is unavailable."""
        from repro.engine import native

        if native.load() is None:
            return None
        active = tracer if tracer is not None else NULL_TRACER
        with active.span(
            "kernel_dispatch", kernel="native_fused", n=entry.chain.num_tasks
        ) as span:
            fused = native.fused_solve(
                kernels.prefix_array(entry.chain),
                kernels.beta_array(entry.chain),
                bound,
                apply_reduction,
            )
            if fused is None:
                return None
            span.set("p", fused.p)
            span.set("r", fused.r)
        cached = _CachedSolve(None, bound, fused.min_prime_weight)
        cached.results["binary"] = ChainCutResult(
            entry.chain, fused.cut, fused.weight
        )
        return self._store(entry, bound, apply_reduction, cached)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @concurrent_entry
    def structure(
        self,
        chain: Chain,
        bound: float,
        apply_reduction: bool = True,
        tracer: Optional["Tracer"] = None,
    ) -> Any:
        """The prime structure for ``(chain, bound)`` — cached, warm-started,
        or freshly computed with the configured backend."""
        with self._lock:
            entry = self._entry(chain)
            validate_bound_array(entry.alpha_max, bound)
            cached = self._lookup(entry, bound, apply_reduction)
            if cached is None:
                cached = self._compute(
                    entry, bound, apply_reduction, tracer=tracer
                )
            return self._structure_of(
                entry, cached, apply_reduction, tracer=tracer
            )

    @concurrent_entry
    def solve(
        self,
        chain: Chain,
        bound: float,
        *,
        apply_reduction: bool = True,
        search: str = "binary",
        tracer: Optional["Tracer"] = None,
    ) -> ChainCutResult:
        """Algorithm 4.1 through the cache.

        The optimal cut depends only on the prime structure, so a cached
        structure's memoized result is returned directly; otherwise the
        TEMP_S sweep runs once over the (cached or fresh) structure and
        its result is memoized for the structure's whole stability
        interval.

        An enabled ``tracer`` records a ``cache_solve`` span whose
        ``outcome`` attribute distinguishes exact hits, interval
        (warm-start) hits and misses, and whether a sweep actually ran;
        ``None``/disabled tracing costs one branch.
        """
        if tracer is None or not tracer.enabled:
            return self._solve_impl(chain, bound, apply_reduction, search)
        with tracer.span(
            "cache_solve", n=chain.num_tasks, bound=bound, search=search
        ) as span:
            before = (
                self.stats.hits, self.stats.interval_hits, self.stats.misses,
            )
            result = self._solve_impl(
                chain, bound, apply_reduction, search, tracer=tracer, span=span
            )
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
        apply_reduction: bool,
        search: str,
        tracer: Optional[Any] = None,
        span: Optional[Any] = None,
    ) -> ChainCutResult:
        with self._lock:
            entry = self._entry(chain)
            validate_bound_array(entry.alpha_max, bound)
            cached = self._lookup(entry, bound, apply_reduction)
            fused = False
            if (
                cached is None
                and search == "binary"
                and self.backend == "numpy"
            ):
                cached = self._compute_fused(
                    entry, bound, apply_reduction, tracer=tracer
                )
                fused = cached is not None
            if cached is None:
                cached = self._compute(
                    entry, bound, apply_reduction, tracer=tracer
                )
            result = cached.results.get(search)
            if span is not None:
                span.set("sweep_ran", fused or result is None)
            if result is None:
                structure = self._structure_of(
                    entry, cached, apply_reduction, tracer=tracer
                )
                if search == "binary":
                    cut, weight = kernels.bandwidth_sweep(structure)
                    result = ChainCutResult(chain, cut, weight)
                else:
                    result = bandwidth_min(
                        chain,
                        cached.valid_from,
                        apply_reduction=apply_reduction,
                        search=search,
                        structure=structure,
                    )
                cached.results[search] = result
        if "REPRO_VERIFY" in os.environ:
            # Self-certification (REPRO_VERIFY=1): certificate-check the
            # served result and cross-check it against a fresh pure-Python
            # solve at the *queried* bound — exactly the paths (kernel,
            # cached, warm-started) where a stale or divergent answer
            # could otherwise slip through.  Imported lazily: verify sits
            # above the engine in the layering.
            from repro.verify.runtime import maybe_verify_cache_solve

            maybe_verify_cache_solve(
                chain, bound, result, apply_reduction=apply_reduction
            )
        return result

    @concurrent_entry
    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return sum(len(e.structures) for e in self._entries.values())


@shared_state(lock="_lock")
class PlanCache:
    """LRU of :class:`~repro.engine.plan.CompiledChainPlan` by fingerprint.

    The compiled-plan twin of :class:`PrimeStructureCache`: repeated
    sweeps over the same chain — successive ``solve_sweep`` calls,
    fingerprint-grouped ``solve_many`` batches, the Pareto-frontier
    probe loop — reuse one plan, so its frozen arrays *and* its memo of
    built structures amortize across calls.  Sharing is exact for the
    same reason the structure cache is: equal fingerprints mean equal
    chain content, and a plan's answers are pure functions of that
    content.

    ``interval_hits`` on :attr:`stats` stays zero — stability-interval
    reuse happens inside each plan's own memo, not at this layer.

    Thread-safe under one reentrant ``_lock`` (``@shared_state``), the
    same discipline as :class:`PrimeStructureCache`.  Note the *plans*
    it hands out are not themselves locked: concurrent callers must not
    drive one plan's lazy memo from two threads (the serve arc shards
    sweeps per thread instead).
    """

    __slots__ = ("max_plans", "stats", "_plans", "_lock")

    def __init__(self, max_plans: int = 16) -> None:
        self.max_plans = max(1, int(max_plans))
        self.stats = CacheStats()
        self._plans: "OrderedDict[str, CompiledChainPlan]" = OrderedDict()
        self._lock = threading.RLock()

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

        A cache hit rebinds the plan's ``tracer``/``metrics``/``hub`` to
        the caller's so telemetry always lands in the live registry
        (plans outlive the engines that created them when caches are
        shared).
        """
        key = chain.fingerprint()
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                plan = compile_chain(
                    chain, tracer=tracer, metrics=metrics, hub=hub
                )
                self._plans[key] = plan
                self.stats.misses += 1
                if len(self._plans) > self.max_plans:
                    self._plans.popitem(last=False)
                    self.stats.evictions += 1
            else:
                self._plans.move_to_end(key)
                plan.tracer = tracer
                plan.metrics = metrics
                plan.hub = hub or NULL_HUB
                self.stats.hits += 1
            return plan

    @concurrent_entry
    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._plans)

    @property
    def occupancy(self) -> float:
        """Fill fraction ``len / max_plans`` in ``[0, 1]`` — the
        plan-cache gauge ``repro top`` renders."""
        return len(self._plans) / self.max_plans
