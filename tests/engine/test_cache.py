"""Unit tests for the single-query cache, the per-chain memo it shares
with bound sweeps, and the memo's monotone warm-start."""

import pytest

from repro.core.bandwidth import bandwidth_min
from repro.core.feasibility import InfeasibleBoundError
from repro.engine.cache import PlanCache, PrimeStructureCache
from repro.graphs.chain import Chain
from repro.graphs.generators import random_chain


class TestFingerprint:
    def test_equal_chains_share_fingerprint(self):
        a = Chain([1.0, 2.0, 3.0], [4.0, 5.0])
        b = Chain([1.0, 2.0, 3.0], [4.0, 5.0])
        assert a is not b
        assert a.fingerprint() == b.fingerprint()

    def test_different_weights_differ(self):
        a = Chain([1.0, 2.0], [4.0])
        assert a.fingerprint() != Chain([1.0, 2.5], [4.0]).fingerprint()
        assert a.fingerprint() != Chain([1.0, 2.0], [4.5]).fingerprint()

    def test_alpha_beta_boundary_is_unambiguous(self):
        # Same multiset of floats, different alpha/beta split.
        a = Chain([1.0, 2.0, 3.0], [4.0, 5.0])
        b = Chain([1.0, 2.0, 3.0, 4.0], [5.0, 5.0, 5.0])
        assert a.fingerprint() != b.fingerprint()

    def test_cached(self):
        chain = random_chain(100, rng=0)
        assert chain.fingerprint() is chain.fingerprint()


@pytest.fixture(params=["python", "numpy"])
def cache(request, monkeypatch):
    """``"numpy"``: the engine as shipped (the native kernel serves a
    miss when it loads, the NumPy structure otherwise).  ``"python"``:
    the native kernel off and the ``repro.core`` reference structure
    patched in as the miss's structure build, so the memo is checked
    over the reference too."""
    if request.param == "python":
        from repro.core.prime_subpaths import compute_prime_structure
        from repro.engine import kernels, native

        monkeypatch.setattr(native, "load", lambda: None)
        monkeypatch.setattr(
            kernels, "compute_prime_structure_numpy", compute_prime_structure
        )
    return PrimeStructureCache()


class TestCacheServing:
    def test_exact_hit(self, cache):
        chain = random_chain(100, rng=1)
        bound = 2.0 * chain.max_vertex_weight()
        first = cache.solve(chain, bound)
        second = cache.solve(chain, bound)
        assert second is first
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_equal_chain_different_object_hits(self, cache):
        chain = random_chain(100, rng=2)
        clone = Chain(list(chain.alpha), list(chain.beta))
        bound = 2.0 * chain.max_vertex_weight()
        cache.solve(chain, bound)
        cache.solve(clone, bound)
        assert cache.stats.hits == 1

    def test_results_match_reference(self, cache):
        chain = random_chain(150, rng=3)
        wmax = chain.max_vertex_weight()
        for ratio in (1.0, 1.4, 1.4, 2.0, 2.05, 6.0, 50.0):
            bound = ratio * wmax
            got = cache.solve(chain, bound)
            ref = bandwidth_min(chain, bound)
            assert got.cut_indices == ref.cut_indices
            assert got.weight == ref.weight

    def test_monotone_interval_hit(self, cache):
        # All-equal weights: primes only change when the bound crosses a
        # multiple of the task weight, so nearby bounds share structures.
        chain = Chain([2.0] * 50, [1.0] * 49)
        base = cache.solve(chain, 6.0)  # windows of weight 8 are prime
        assert cache.stats.misses == 1
        inside = cache.solve(chain, 7.0)  # < min prime weight (8.0)
        assert cache.stats.interval_hits == 1
        assert inside.cut_indices == base.cut_indices
        assert inside.cut_indices == bandwidth_min(chain, 7.0).cut_indices
        crossed = cache.solve(chain, 8.0)  # structure must change
        assert cache.stats.misses == 2
        assert crossed.cut_indices == bandwidth_min(chain, 8.0).cut_indices

    def test_interval_never_serves_below_computed_bound(self, cache):
        chain = Chain([2.0] * 50, [1.0] * 49)
        cache.solve(chain, 6.0)
        cache.solve(chain, 5.0)  # smaller: must recompute, never reuse up
        assert cache.stats.interval_hits == 0
        assert cache.stats.misses == 2

    def test_sorted_sweep_matches_fresh_python(self, cache):
        # Integer weights give integer prime weights, so every unit
        # interval of bounds shares one structure; probe sub-unit steps.
        chain = random_chain(120, rng=4, integer_weights=True)
        wmax = chain.max_vertex_weight()
        bounds = sorted(wmax + 0.25 * i for i in range(40))
        for bound in bounds:
            got = cache.solve(chain, bound)
            ref = bandwidth_min(chain, bound)
            assert (got.cut_indices, got.weight) == (ref.cut_indices, ref.weight)
        assert cache.stats.lookups == 40
        # Dense sorted sweeps must not recompute every probe.
        assert cache.stats.interval_hits + cache.stats.hits > 0

    def test_infeasible_bound_still_raises(self, cache):
        chain = random_chain(20, rng=5)
        with pytest.raises(InfeasibleBoundError):
            cache.solve(chain, 0.5 * chain.max_vertex_weight())


class TestEviction:
    def test_chain_lru(self):
        cache = PrimeStructureCache()
        cache.plans.max_plans = 2
        chains = [random_chain(30, rng=seed) for seed in (10, 11, 12)]
        for chain in chains:
            cache.solve(chain, 2.0 * chain.max_vertex_weight())
        assert cache.stats.evictions == 1
        # chains[0] was evicted: solving it again misses.
        misses = cache.stats.misses
        cache.solve(chains[0], 2.0 * chains[0].max_vertex_weight())
        assert cache.stats.misses == misses + 1

    def test_structure_lru_per_chain(self):
        cache = PrimeStructureCache()
        chain = random_chain(40, rng=13)
        cache.plans.get(chain).max_structures = 4
        wmax = chain.max_vertex_weight()
        for i in range(10):
            cache.solve(chain, wmax * (1.0 + i))
        assert len(cache) <= 4
        assert cache.stats.evictions >= 6

    def test_plan_lru_capacity_is_exact_and_at_least_one(self):
        assert PlanCache(max_plans=0).max_plans == 1
        plans = PlanCache(max_plans=3)
        for seed in (20, 21, 22):
            plans.get(random_chain(10, rng=seed))
        assert len(plans) == 3 and plans.stats.evictions == 0
        _, evicted = plans.fetch(random_chain(10, rng=23))
        assert evicted and len(plans) == 3

    def test_clear(self):
        cache = PrimeStructureCache()
        chain = random_chain(20, rng=14)
        cache.solve(chain, 2.0 * chain.max_vertex_weight())
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0


class TestCacheAccounting:
    """Accounting killers from mutation analysis: hit-rate arithmetic,
    the interval's closed-left boundary, exact capacity, and the traced
    outcome attribution."""

    def test_hit_rate_combines_exact_and_interval_hits(self):
        from repro.engine.cache import CacheStats

        stats = CacheStats(hits=3, interval_hits=2, misses=5)
        assert stats.hit_rate == 0.5

    def test_cached_solve_interval_is_closed_on_the_left(self):
        from repro.core.prime_subpaths import compute_prime_structure
        from repro.engine.plan import _FrozenStructure

        chain = random_chain(40, rng=3)
        bound = 1.5 * chain.max_vertex_weight()
        structure = compute_prime_structure(chain, bound)
        cached = _FrozenStructure(bound, structure.min_prime_weight(), 0.0)
        assert cached.covers(bound)  # valid_from itself is covered
        assert not cached.covers(cached.valid_until)
        assert not cached.covers(bound - 1e-9)

    def test_capacity_is_exact(self):
        # Exactly max_structures structures must fit in a chain's plan
        # without an eviction; the next distinct structure evicts one.
        cache = PrimeStructureCache()
        chain = random_chain(40, rng=3)
        cache.plans.get(chain).max_structures = 3
        wmax = chain.max_vertex_weight()
        # Descending bounds: none is covered by an earlier structure's
        # validity interval, so each solve is a genuine miss.
        for factor in (3.0, 2.5, 2.0):
            cache.solve(chain, factor * wmax)
        assert cache.stats.misses == 3
        assert cache.stats.evictions == 0
        cache.solve(chain, 1.5 * wmax)
        assert cache.stats.evictions == 1

    def test_span_outcome_after_interval_hit(self):
        from repro.core.prime_subpaths import compute_prime_structure
        from repro.observability import Tracer

        chain = random_chain(40, rng=3)
        bound = 1.5 * chain.max_vertex_weight()
        structure = compute_prime_structure(chain, bound)
        cache = PrimeStructureCache()
        cache.solve(chain, bound)  # miss
        cache.solve(chain, (bound + structure.min_prime_weight()) / 2.0)
        assert cache.stats.interval_hits == 1
        # An exact repeat AFTER an interval hit must still be reported
        # as a pure hit: the span deltas are per-call, not cumulative.
        tracer = Tracer()
        cache.solve(chain, bound, tracer=tracer)
        (record,) = [r for r in tracer.records() if r["name"] == "cache_solve"]
        assert record["attrs"]["outcome"] == "hit"
        assert record["counts"].get("cache_interval_hits", 0) == 0
        assert record["counts"].get("cache_hits", 0) == 1


class TestOneMemo:
    """Single queries and bound sweeps share each chain's plan memo,
    which keeps one entry per structure."""

    def test_lower_miss_replaces_the_higher_entry(self, cache):
        # K=6.5 and K=6 both give the windows of weight 8: one structure.
        chain = Chain([2.0] * 50, [1.0] * 49)
        cache.solve(chain, 6.5)
        cache.solve(chain, 6.0)
        plan = cache.plans.get(chain)
        assert [(f.valid_from, f.valid_until) for f in plan._memo.values()] == [
            (6.0, 8.0)
        ]
        assert plan._starts == [6.0]
        assert len(cache) == 1
        for bound in (6.2, 6.7):
            got = cache.solve(chain, bound)
            ref = bandwidth_min(chain, bound)
            assert (got.cut_indices, got.weight) == (ref.cut_indices, ref.weight)
        assert cache.stats.misses == 2
        assert cache.stats.interval_hits == 2
        assert len(cache) == 1

    def test_solve_answer_serves_the_sweep(self):
        from repro.engine import PartitionEngine

        engine = PartitionEngine()
        chain = random_chain(80, rng=21)
        bound = 2.0 * chain.max_vertex_weight()
        solo = engine.solve(chain, bound)
        weights, cuts = engine.solve_sweep(chain, [bound, bound], return_cuts=True)
        built = engine.metrics.counter("engine.plan.structures.built").value
        assert built == 0
        assert engine.metrics.counter("engine.plan.structures.reused").value == 1
        assert weights.tolist() == [solo.weight, solo.weight]
        assert cuts == [solo.cut_indices, solo.cut_indices]

    def test_sweep_interval_serves_the_cache(self, cache):
        chain = Chain([2.0] * 50, [1.0] * 49)
        plan = cache.plans.get(chain)
        plan.solve_bounds([6.0])  # builds [6, 8) without a cut
        got = cache.solve(chain, 7.5)
        assert cache.stats.interval_hits == 1 and cache.stats.misses == 0
        ref = bandwidth_min(chain, 7.5)
        assert (got.cut_indices, got.weight) == (ref.cut_indices, ref.weight)
        assert len(plan) == 1
