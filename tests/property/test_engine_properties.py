"""Property-based tests for the engine fast paths.

The NumPy kernels, the prime-structure cache, and the batch runner are
optimizations — not alternative algorithms — so their contract is exact
equality with the pure-Python reference: identical prime structures,
identical cuts, identical weights (the same floats, not merely close),
and identical ordering of batch results.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core.bandwidth import bandwidth_min
from repro.core.prime_subpaths import PrimeStructure
from repro.engine import PartitionEngine, PartitionQuery, native
from repro.engine.cache import PrimeStructureCache
from repro.engine.kernels import bandwidth_sweep, compute_prime_structure_numpy
from repro.graphs.chain import Chain

# Weights are drawn from small integer grids scaled by 0.5 so both exact
# ties and fractional values occur; uniform lists cover the all-equal
# degenerate case and n=1 covers the single-task one.
weight = st.integers(min_value=1, max_value=20).map(lambda v: v * 0.5)
edge_weight = st.integers(min_value=0, max_value=20).map(lambda v: v * 0.5)


@st.composite
def chain_and_bound(draw, max_tasks: int = 24):
    n = draw(st.integers(min_value=1, max_value=max_tasks))
    if draw(st.booleans()):
        alpha = draw(st.lists(weight, min_size=n, max_size=n))
        beta = draw(st.lists(edge_weight, min_size=n - 1, max_size=n - 1))
    else:  # all-equal weights
        alpha = [draw(weight)] * n
        beta = [draw(edge_weight)] * (n - 1)
    chain = Chain(alpha, beta)
    slack = draw(st.integers(min_value=0, max_value=40)) * 0.5
    return chain, chain.max_vertex_weight() + slack


@settings(max_examples=200, deadline=None)
@given(chain_and_bound())
def test_numpy_structure_identical_to_python(data):
    chain, bound = data
    ref = PrimeStructure.compute(chain, bound)
    fast = compute_prime_structure_numpy(chain, bound)
    assert ref.primes == fast.primes
    assert ref.edges == fast.edges


@settings(max_examples=100, deadline=None)
@given(chain_and_bound())
def test_numpy_structure_identical_without_reduction(data):
    chain, bound = data
    ref = PrimeStructure.compute(chain, bound, apply_reduction=False)
    fast = compute_prime_structure_numpy(chain, bound, apply_reduction=False)
    assert ref.primes == fast.primes
    assert ref.edges == fast.edges


@settings(max_examples=200, deadline=None)
@given(chain_and_bound())
def test_numpy_backend_identical_result(data):
    chain, bound = data
    ref = bandwidth_min(chain, bound)
    answers = [bandwidth_sweep(compute_prime_structure_numpy(chain, bound))]
    # The engine with the native kernel on, then off (NumPy structure
    # plus Python sweep, as on a host with no C compiler).
    fast = PartitionEngine().solve(chain, bound)
    with mock.patch.object(native, "load", lambda: None):
        fallback = PartitionEngine().solve(chain, bound)
    answers += [(r.cut_indices, r.weight) for r in (fast, fallback)]
    for cut, weight in answers:
        assert cut == ref.cut_indices
        assert weight == ref.weight  # exact, not approximate


@settings(max_examples=100, deadline=None)
@given(
    chain_and_bound(),
    st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=8),
)
def test_cache_identical_to_fresh_python(data, slacks):
    chain, base_bound = data
    cache = PrimeStructureCache()
    # Sorted ascending bounds plus repeats exercise exact hits, interval
    # hits and misses in one run; each answer must match a fresh solve.
    bounds = sorted(base_bound + s * 0.5 for s in slacks) + [base_bound]
    for bound in bounds:
        got = cache.solve(chain, bound)
        ref = bandwidth_min(chain, bound)
        assert got.cut_indices == ref.cut_indices
        assert got.weight == ref.weight


@settings(max_examples=100, deadline=None)
@given(
    chain_and_bound(),
    st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=10),
    st.randoms(use_true_random=False),
)
def test_plan_solve_bounds_identical_to_per_call(data, slacks, shuffler):
    from repro.engine.plan import compile_chain

    chain, base_bound = data
    # Unsorted bounds with duplicates, always including the tightest
    # feasible bound K = max(alpha) — the boundary the stability-interval
    # grouping must get exactly right.
    ks = [base_bound + s * 0.5 for s in slacks]
    ks += [chain.max_vertex_weight(), ks[0]]
    shuffler.shuffle(ks)
    weights, cuts = compile_chain(chain).solve_bounds(ks, return_cuts=True)
    for k, weight, cut in zip(ks, weights, cuts):
        ref = bandwidth_min(chain, k)
        assert weight == ref.weight  # exact, not approximate
        assert cut == list(ref.cut_indices)


@settings(max_examples=100, deadline=None)
@given(
    chain_and_bound(max_tasks=16),
    st.lists(
        st.integers(min_value=0, max_value=4), min_size=1, max_size=4
    ),
)
def test_plan_beta_sweep_identical_to_per_call(data, scales):
    from repro.engine.plan import compile_chain

    chain, bound = data
    betas = [[s * 0.5 * b for b in chain.beta] for s in scales]
    if chain.num_edges == 0:
        betas = [[] for _ in scales]
    out = compile_chain(chain).solve_beta_sweep(betas, bound)
    for row, weight in zip(betas, out):
        assert weight == bandwidth_min(Chain(chain.alpha, row), bound).weight


@settings(max_examples=50, deadline=None)
@given(st.lists(chain_and_bound(max_tasks=12), min_size=1, max_size=6))
def test_solve_many_preserves_input_order(batches):
    engine = PartitionEngine()
    queries = [
        PartitionQuery.from_chain(chain, bound, tag=str(i))
        for i, (chain, bound) in enumerate(batches)
    ]
    results = engine.solve_many(queries)
    assert [r.index for r in results] == list(range(len(queries)))
    assert [r.tag for r in results] == [q.tag for q in queries]
    for (chain, bound), result in zip(batches, results):
        ref = bandwidth_min(chain, bound)
        assert result.ok
        assert result.cut_indices == ref.cut_indices
        assert result.weight == ref.weight
