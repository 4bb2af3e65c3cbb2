"""Unit tests for the NumPy fast-path kernels.

The contract is *bit-identical* output to the pure-Python reference on
every input — the property suite hammers random instances; here we pin
the known worked example, the degenerate shapes, and the fast TEMP_S
sweep against the reference queue.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.core.bandwidth import bandwidth_min
from repro.core.feasibility import InfeasibleBoundError
from repro.core.prime_subpaths import PrimeStructure, compute_prime_structure
from repro.engine import kernels
from repro.graphs.chain import Chain
from repro.graphs.generators import random_chain, uniform_chain

FIGURE1 = Chain([4, 3, 5, 2, 6], [7, 1, 9, 2])


def assert_structures_equal(chain, bound, apply_reduction=True):
    ref = PrimeStructure.compute(chain, bound, apply_reduction=apply_reduction)
    fast = compute_prime_structure(
        chain, bound, apply_reduction=apply_reduction, backend="numpy"
    )
    assert ref.primes == fast.primes
    assert ref.edges == fast.edges
    assert ref.q_values == fast.q_values
    assert ref.p == fast.p and ref.r == fast.r


class TestPrimeStructureNumpy:
    def test_figure1_example(self):
        assert_structures_equal(FIGURE1, 9)

    def test_single_task(self):
        assert_structures_equal(Chain([5.0], []), 5.0)

    def test_bound_equals_max_alpha(self):
        chain = random_chain(50, rng=1)
        assert_structures_equal(chain, chain.max_vertex_weight())

    def test_bound_swallows_chain(self):
        chain = random_chain(50, rng=2)
        fast = compute_prime_structure(
            chain, chain.total_weight() + 1, backend="numpy"
        )
        assert fast.p == 0 and fast.r == 0
        assert fast.min_prime_weight() == float("inf")

    def test_all_equal_weights(self):
        chain = uniform_chain(40, vertex_weight=2.0, edge_weight=3.0)
        for bound in (2.0, 4.0, 6.0, 79.0, 80.0, 81.0):
            assert_structures_equal(chain, bound)

    def test_no_reduction(self):
        chain = random_chain(60, rng=3)
        assert_structures_equal(
            chain, 2.5 * chain.max_vertex_weight(), apply_reduction=False
        )

    def test_infeasible_bound_raises(self):
        with pytest.raises(InfeasibleBoundError):
            compute_prime_structure(FIGURE1, 5.0, backend="numpy")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            compute_prime_structure(FIGURE1, 9.0, backend="fortran")

    def test_array_structure_statistics_match(self):
        chain = random_chain(80, rng=4)
        bound = 3.0 * chain.max_vertex_weight()
        ref = PrimeStructure.compute(chain, bound)
        fast = compute_prime_structure(chain, bound, backend="numpy")
        assert fast.q == pytest.approx(ref.q)
        assert fast.mean_prime_length() == pytest.approx(ref.mean_prime_length())
        assert fast.min_prime_weight() == ref.min_prime_weight()


class TestMembershipKernel:
    def test_matches_reference_on_known_chain(self):
        from repro.core.prime_subpaths import edge_membership_intervals

        primes = PrimeStructure.compute(FIGURE1, 9).primes
        lo_ref, hi_ref = edge_membership_intervals(primes, FIGURE1.num_edges)
        first = np.asarray([p.first_edge for p in primes])
        last = np.asarray([p.last_edge for p in primes])
        lo, hi = kernels.membership_intervals(first, last, FIGURE1.num_edges)
        assert lo.tolist() == lo_ref
        assert hi.tolist() == hi_ref


class TestFastSweep:
    def test_matches_reference_queue(self):
        chain = random_chain(200, rng=5, vertex_range=(1, 10), edge_range=(1, 100))
        for ratio in (1.0, 1.3, 2.0, 5.0, 25.0):
            bound = ratio * chain.max_vertex_weight()
            ref = bandwidth_min(chain, bound)
            structure = compute_prime_structure(chain, bound, backend="numpy")
            cut, weight = kernels.bandwidth_sweep(structure)
            assert cut == ref.cut_indices
            assert weight == ref.weight

    def test_accepts_reference_structure(self):
        structure = PrimeStructure.compute(FIGURE1, 9)
        cut, weight = kernels.bandwidth_sweep(structure)
        ref = bandwidth_min(FIGURE1, 9)
        assert cut == ref.cut_indices and weight == ref.weight

    def test_empty_structure(self):
        assert kernels.sweep_min_cut([], [], [], []) == ([], 0.0)


class TestWeightOnlyFastPath:
    """The compiled-plan weight pipeline, pinned kernel by kernel.

    ``reduced_class_arrays`` + ``sweep_min_weight`` are the hottest form
    of Algorithm 4.1 (no per-edge arrays, no solution arena); both claim
    bit-identical results to the cut-capable path, so assert exactly
    that over a tie-heavy battery.
    """

    @staticmethod
    def battery():
        chains = [FIGURE1, uniform_chain(2), uniform_chain(25, 3.0, 5.0)]
        for n, seed in ((3, 1), (5, 2), (8, 3), (13, 4), (21, 5), (34, 6)):
            chains.append(random_chain(n, rng=seed))
            chains.append(random_chain(n, rng=seed + 100, integer_weights=True))
        chains.append(
            random_chain(
                80,
                rng=9,
                vertex_range=(1, 4),
                edge_range=(1, 3),
                integer_weights=True,
            )
        )
        return chains

    @staticmethod
    def bounds_for(chain):
        wmax = chain.max_vertex_weight()
        total = float(np.sum(np.asarray(chain.alpha, dtype=np.float64)))
        return (wmax, 1.1 * wmax, 1.5 * wmax, 2.0 * wmax, 3.0 * wmax, total)

    @staticmethod
    def class_arrays(chain, bound):
        prefix = kernels.prefix_array(chain)
        first_tasks, last_tasks = kernels.prime_windows(prefix, bound)
        if first_tasks.shape[0] == 0:
            return None
        beta = kernels.beta_array(chain)
        return kernels.reduced_class_arrays(
            beta, first_tasks, last_tasks, chain.num_edges
        )

    def test_pipeline_matches_bandwidth_min(self):
        for chain in self.battery():
            for bound in self.bounds_for(chain):
                arrays = self.class_arrays(chain, bound)
                if arrays is None:
                    weight = 0.0
                else:
                    class_w, class_first, class_last = arrays
                    head = int(np.searchsorted(class_first, 1))
                    weight = kernels.sweep_min_weight(
                        class_w.tolist(),
                        class_first.tolist(),
                        class_last.tolist(),
                        head,
                    )
                assert weight == bandwidth_min(chain, bound).weight

    def test_weight_sweep_matches_cut_sweep(self):
        # Identical reduced columns through both sweeps: the weight-only
        # recurrence must agree with the arena-building one everywhere.
        for chain in self.battery():
            for bound in self.bounds_for(chain):
                arrays = self.class_arrays(chain, bound)
                if arrays is None:
                    continue
                class_w, class_first, class_last = arrays
                cols = (
                    class_w.tolist(),
                    class_first.tolist(),
                    class_last.tolist(),
                )
                head = int(np.searchsorted(class_first, 1))
                _, cut_weight = kernels.sweep_min_cut(
                    list(range(class_w.shape[0])), *cols
                )
                assert kernels.sweep_min_weight(*cols, head) == cut_weight

    def test_classes_match_reduced_edge_representatives(self):
        # Class weights/windows must equal the minimum-weight
        # representatives the per-edge reduction selects.
        for chain in self.battery():
            beta = kernels.beta_array(chain)
            prefix = kernels.prefix_array(chain)
            for bound in self.bounds_for(chain):
                first_tasks, last_tasks = kernels.prime_windows(prefix, bound)
                if first_tasks.shape[0] == 0:
                    continue
                lo, hi = kernels.membership_intervals(
                    first_tasks, last_tasks - 1, chain.num_edges
                )
                _, edge_weight, edge_first, edge_last = (
                    kernels.reduced_edge_arrays(
                        beta, lo, hi, apply_reduction=True
                    )
                )
                class_w, class_first, class_last = kernels.reduced_class_arrays(
                    beta, first_tasks, last_tasks, chain.num_edges
                )
                assert class_w.tolist() == list(edge_weight)
                assert class_first.tolist() == list(edge_first)
                assert class_last.tolist() == list(edge_last)

    @classmethod
    def pipeline_weight(cls, chain, bound):
        arrays = cls.class_arrays(chain, bound)
        if arrays is None:
            return 0.0
        class_w, class_first, class_last = arrays
        head = int(np.searchsorted(class_first, 1))
        return kernels.sweep_min_weight(
            class_w.tolist(), class_first.tolist(), class_last.tolist(), head
        )

    def test_extension_row_start_regression(self):
        # The extension push must anchor its row at last_hi + 1: an
        # off-by-one start makes a later retire break early and reuse a
        # stale predecessor weight (found by mutation analysis).
        chain = Chain(
            [1, 1, 6, 3, 2, 2, 2, 6, 1, 6, 6, 5],
            [1, 5, 4, 1, 1, 1, 2, 2, 5, 5, 1],
        )
        ref = bandwidth_min(chain, 12.0)
        assert ref.weight == 8.0
        assert self.pipeline_weight(chain, 12.0) == ref.weight

    def test_drained_queue_with_zero_weight_edges(self):
        # Zero-weight edges are legal (beta >= 0): after a full retire a
        # fresh candidate can tie the drained bottom row's W, so the
        # replace guard must test the live-row count strictly (found by
        # mutation analysis).
        chain = Chain([2, 4, 6, 1, 1, 5, 1], [2, 4, 0, 4, 1, 0])
        bound = 1.2 * 6.0
        ref = bandwidth_min(chain, bound)
        assert ref.weight == 4.0
        assert self.pipeline_weight(chain, bound) == ref.weight

    def test_synthetic_columns_match_cut_sweep(self):
        # Stress columns with coverage gaps and zero weights: the
        # drained-queue anchor must start at the class's own first prime
        # (found by mutation analysis), and a seeded fuzz keeps both
        # sweeps pinned together over shapes no single chain produces.
        weights = [4.0, 2.0, 3.0, 4.0, 4.0, 1.0]
        firsts = [0, 3, 3, 3, 4, 6]
        lasts = [1, 4, 5, 7, 7, 7]
        _, ref = kernels.sweep_min_cut(
            list(range(len(weights))), weights, firsts, lasts
        )
        assert ref == 8.0
        assert kernels.sweep_min_weight(weights, firsts, lasts, 1) == ref
        rng = np.random.default_rng(20260808)
        for _ in range(500):
            r = int(rng.integers(1, 10))
            firsts, lasts, weights = [], [], []
            fp = int(rng.integers(0, 2))
            lp = fp + int(rng.integers(0, 3))
            for _ in range(r):
                if firsts and (fp, lp) == (firsts[-1], lasts[-1]):
                    lp += 1
                firsts.append(fp)
                lasts.append(lp)
                weights.append(float(rng.integers(0, 5)))
                fp += int(rng.integers(0, 4))
                lp = max(lp, fp) + int(rng.integers(0, 3))
            head = int(np.searchsorted(np.asarray(firsts), 1))
            _, ref = kernels.sweep_min_cut(
                list(range(r)), weights, firsts, lasts
            )
            got = kernels.sweep_min_weight(weights, firsts, lasts, head)
            assert got == ref, (weights, firsts, lasts)

    def test_empty_windows_return_empty_classes(self):
        empty_i = np.empty(0, dtype=np.int64)
        class_w, class_first, class_last = kernels.reduced_class_arrays(
            np.empty(0, dtype=np.float64), empty_i, empty_i, 0
        )
        for arr in (class_w, class_first, class_last):
            assert arr.shape == (0,)


class TestBandwidthBackendFlag:
    def test_numpy_backend_same_result(self):
        chain = random_chain(120, rng=6)
        bound = 2.0 * chain.max_vertex_weight()
        ref = bandwidth_min(chain, bound)
        fast = bandwidth_min(chain, bound, backend="numpy")
        assert fast.cut_indices == ref.cut_indices
        assert fast.weight == ref.weight

    def test_numpy_backend_with_stats_falls_back(self):
        chain = random_chain(60, rng=7)
        bound = 2.0 * chain.max_vertex_weight()
        result = bandwidth_min(chain, bound, backend="numpy", collect_stats=True)
        assert result.stats is not None
        assert result.stats.p > 0

    def test_precomputed_structure_is_used(self):
        chain = random_chain(60, rng=8)
        bound = 2.0 * chain.max_vertex_weight()
        structure = compute_prime_structure(chain, bound, backend="numpy")
        result = bandwidth_min(chain, bound, backend="numpy", structure=structure)
        assert result.weight == bandwidth_min(chain, bound).weight


class TestFeasibleComponents:
    def test_matches_chain_check(self):
        chain = random_chain(30, rng=9)
        prefix = kernels.prefix_array(chain)
        bound = 2.0 * chain.max_vertex_weight()
        cut = bandwidth_min(chain, bound).cut_indices
        assert kernels.feasible_components(prefix, cut, bound)
        assert kernels.feasible_components(prefix, cut, bound) == (
            chain.is_feasible_cut(cut, bound)
        )

    def test_detects_overweight_block(self):
        chain = Chain([3, 3, 3], [1, 1])
        prefix = kernels.prefix_array(chain)
        assert not kernels.feasible_components(prefix, [], 5.0)
        assert kernels.feasible_components(prefix, [0, 1], 5.0)

    def test_feasible_components_boundary_blocks(self):
        # The first and last blocks are the easiest to lose to an
        # off-by-one: [1, 1, 10] with the cut after task 0 leaves a
        # trailing block of weight 11.
        prefix = np.array([0.0, 1.0, 2.0, 12.0])
        assert kernels.feasible_components(prefix, [0], 11.0)
        assert not kernels.feasible_components(prefix, [0], 2.0)
        assert kernels.feasible_components(prefix, [1], 10.0)
        # Middle-heavy twin: [1, 10, 1] with the same cut.
        prefix_mid = np.array([0.0, 1.0, 11.0, 12.0])
        assert not kernels.feasible_components(prefix_mid, [0], 2.0)

    def test_feasible_components_unsorted_duplicate_cut(self):
        # set([8, 1]) iterates as [8, 1] under CPython's small-int
        # hashing, so a missing sort produces garbage block boundaries.
        ones = np.arange(13, dtype=np.float64)  # twelve unit tasks
        assert kernels.feasible_components(ones, [8, 1], 8.0)
        assert kernels.feasible_components(ones, [8, 1, 8], 8.0)
        assert not kernels.feasible_components(ones, [8, 1], 6.0)


class TestSweepFixupLoops:
    """Chains where ``prefix[j] <= starts + bound`` (searchsorted form)
    and ``prefix[j] - starts <= bound`` (the reference's subtraction
    form) disagree in float64, so the fix-up sweeps in
    :func:`kernels.prime_windows` must actually run."""

    DOWN_WEIGHTS = [
        0.24, 0.1, 0.17, 0.31, 0.32, 0.29, 0.11, 0.31, 0.16, 0.26, 0.09, 0.34,
    ]
    UP_WEIGHTS = [0.2, 0.08, 0.17, 0.12, 0.15, 0.07, 0.25, 0.14, 0.3, 0.18]

    def test_down_sweep_required(self):
        chain = Chain(self.DOWN_WEIGHTS, [1.0] * (len(self.DOWN_WEIGHTS) - 1))
        assert_structures_equal(chain, 0.82)

    def test_up_sweep_required(self):
        chain = Chain(self.UP_WEIGHTS, [1.0] * (len(self.UP_WEIGHTS) - 1))
        assert_structures_equal(chain, 0.52)

    def test_empty_prefix_returns_window_pair(self):
        first, last = kernels.prime_windows(np.zeros(1), 5.0)
        assert first.size == 0 and last.size == 0
        assert first.dtype == np.int64 and last.dtype == np.int64

    def test_validate_bound_zero_bound_message(self):
        # bound == 0 must be rejected as non-positive even when
        # alpha_max is also 0 (the degenerate all-zero chain).
        with pytest.raises(ValueError, match="positive"):
            kernels.validate_bound_array(0.0, 0.0)

    def test_validate_bound_rejects_nan_and_inf(self):
        with pytest.raises(ValueError, match="finite"):
            kernels.validate_bound_array(1.0, float("nan"))
        with pytest.raises(ValueError, match="finite"):
            kernels.validate_bound_array(1.0, float("inf"))

    def test_down_sweep_to_minimum_window(self):
        # prefix[a+2] - prefix[a] > bound while prefix[a+2] <= prefix[a]
        # + bound (at a = 2): the searchsorted seed lands at a + 3 and
        # the down sweep must descend all the way to the two-task floor.
        weights = [0.28, 0.35, 0.37, 0.35, 0.37]
        chain = Chain(weights, [1.0] * (len(weights) - 1))
        assert_structures_equal(chain, 0.72)
