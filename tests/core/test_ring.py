"""Unit tests for ring partitioning (:mod:`repro.core.ring`,
:mod:`repro.graphs.ring`)."""

import random
from itertools import combinations

import pytest

from repro.core.feasibility import InfeasibleBoundError
from repro.core.ring import ring_bandwidth_min
from repro.graphs.chain import Chain
from repro.graphs.ring import Ring


@pytest.fixture
def small_ring() -> Ring:
    """alpha = [4, 3, 5, 2, 6] on a cycle; beta = [7, 1, 9, 2, 3]."""
    return Ring([4, 3, 5, 2, 6], [7, 1, 9, 2, 3])


def brute_force_ring(ring: Ring, bound: float):
    best = None
    n = ring.num_edges
    for r in range(n + 1):
        for subset in combinations(range(n), r):
            if ring.is_feasible_cut(subset, bound):
                w = ring.cut_weight(subset)
                if best is None or w < best:
                    best = w
    return best


class TestRingStructure:
    def test_basic(self, small_ring):
        assert small_ring.num_tasks == 5
        assert small_ring.num_edges == 5
        assert small_ring.total_weight() == 20

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            Ring([1, 2], [1, 2])

    def test_rejects_mismatched_beta(self):
        with pytest.raises(ValueError):
            Ring([1, 2, 3], [1, 2])

    def test_rejects_nan_task_weight(self):
        # Used to be accepted, with a NaN total.
        with pytest.raises(ValueError, match="task 1 has non-finite weight nan"):
            Ring([1, float("nan"), 2], [1, 1, 1])

    def test_rejects_infinite_task_weight(self):
        with pytest.raises(ValueError, match="task 2 has non-finite weight inf"):
            Ring([1, 2, float("inf")], [1, 1, 1])

    def test_rejects_non_positive_task_weight(self):
        with pytest.raises(ValueError, match="task 0 has non-positive weight 0.0"):
            Ring([0, 1, 2], [1, 1, 1])

    def test_rejects_overflowing_total(self):
        with pytest.raises(ValueError, match="total task weight overflows"):
            Ring([1e308, 1e308, 1.0], [1, 1, 1])

    def test_rejects_nan_and_negative_edges(self):
        with pytest.raises(ValueError, match="edge 2 has NaN weight"):
            Ring([1, 2, 3], [1, 1, float("nan")])
        with pytest.raises(ValueError, match="edge 0 has negative weight -1.0"):
            Ring([1, 2, 3], [-1, 1, 1])

    def test_rejects_string_weight_list(self):
        with pytest.raises(ValueError, match="alpha must be a sequence"):
            Ring("123", [1, 1, 1])

    def test_messages_match_chain(self):
        cases = [
            ([1, float("nan"), 2], [1, 1]),
            ([1, -2, 2], [1, 1]),
            ([1e308, 1e308, 1], [1, 1]),
            ([1, 2, 3], [1, float("nan")]),
            ([1, 2, 3], [1, -3.5]),
        ]
        for alpha, chain_beta in cases:
            with pytest.raises(ValueError) as chain_error:
                Chain(alpha, chain_beta)
            with pytest.raises(ValueError) as ring_error:
                Ring(alpha, chain_beta + [1.0])
            assert str(ring_error.value) == str(chain_error.value)

    def test_infinite_edge_accepted_like_chain(self):
        ring = Ring([1, 2, 3], [1, float("inf"), 1])
        assert ring.edge_weight(1) == float("inf")

    def test_arc_weight_wrapping(self, small_ring):
        assert small_ring.arc_weight(0, 5) == 20
        assert small_ring.arc_weight(3, 3) == 2 + 6 + 4  # tasks 3,4,0
        assert small_ring.arc_weight(4, 2) == 6 + 4

    def test_arc_weight_validation(self, small_ring):
        with pytest.raises(ValueError):
            small_ring.arc_weight(0, 0)
        with pytest.raises(ValueError):
            small_ring.arc_weight(0, 6)

    def test_cut_components_empty(self, small_ring):
        assert small_ring.cut_components([]) == [(0, 5)]

    def test_cut_components_single(self, small_ring):
        # Cutting edge 1 (between tasks 1 and 2) leaves one arc of all
        # 5 tasks starting at task 2.
        assert small_ring.cut_components([1]) == [(2, 5)]

    def test_cut_components_two(self, small_ring):
        arcs = small_ring.cut_components([1, 3])
        assert sorted(arcs) == [(2, 2), (4, 3)]
        assert sorted(small_ring.component_weights([1, 3])) == [7, 13]

    def test_feasibility(self, small_ring):
        assert small_ring.is_feasible_cut([1, 3], 13)
        assert not small_ring.is_feasible_cut([1, 3], 12)
        assert small_ring.is_feasible_cut([], 20)

    def test_open_at(self, small_ring):
        chain = small_ring.open_at(4)  # cut edge between tasks 4 and 0
        assert chain == Chain([4, 3, 5, 2, 6], [7, 1, 9, 2])

    def test_open_at_rotation(self, small_ring):
        chain = small_ring.open_at(1)
        assert chain.alpha == [5, 2, 6, 4, 3]
        assert chain.beta == [9, 2, 3, 7]

    def test_edge_mapping_round_trip(self, small_ring):
        for opened in range(5):
            for chain_edge in range(4):
                ring_edge = small_ring.chain_edge_to_ring_edge(opened, chain_edge)
                assert 0 <= ring_edge < 5
                assert ring_edge != opened

    def test_to_task_graph(self, small_ring):
        graph = small_ring.to_task_graph()
        assert graph.num_edges == 5
        assert all(graph.degree(v) == 2 for v in range(5))


class TestRingBandwidthMin:
    def test_whole_ring_fits(self, small_ring):
        result = ring_bandwidth_min(small_ring, 20)
        assert result.cut_indices == []
        assert result.weight == 0.0

    def test_fixture_optimum(self, small_ring):
        result = ring_bandwidth_min(small_ring, 13)
        assert result.is_feasible(13)
        assert result.weight == brute_force_ring(small_ring, 13)

    def test_needs_at_least_two_cuts(self, small_ring):
        result = ring_bandwidth_min(small_ring, 19)
        assert len(result.cut_indices) >= 2

    def test_infeasible(self, small_ring):
        with pytest.raises(InfeasibleBoundError):
            ring_bandwidth_min(small_ring, 5)

    def test_matches_brute_force_randomized(self):
        rng = random.Random(77)
        for _ in range(60):
            n = rng.randint(3, 10)
            alpha = [float(rng.randint(1, 6)) for _ in range(n)]
            beta = [float(rng.randint(1, 9)) for _ in range(n)]
            ring = Ring(alpha, beta)
            bound = float(rng.randint(int(max(alpha)), int(sum(alpha)) + 2))
            result = ring_bandwidth_min(ring, bound)
            assert result.is_feasible(bound)
            assert result.weight == pytest.approx(brute_force_ring(ring, bound))

    def test_large_ring_feasible(self):
        rng = random.Random(78)
        alpha = [rng.uniform(1, 10) for _ in range(2000)]
        beta = [rng.uniform(1, 100) for _ in range(2000)]
        ring = Ring(alpha, beta)
        bound = 4.0 * max(alpha)
        result = ring_bandwidth_min(ring, bound)
        assert result.is_feasible(bound)
        assert result.weight == pytest.approx(
            ring.cut_weight(result.cut_indices)
        )

    def test_candidate_count_bounded_by_arc(self):
        rng = random.Random(79)
        alpha = [rng.uniform(1, 10) for _ in range(500)]
        beta = [rng.uniform(1, 10) for _ in range(500)]
        ring = Ring(alpha, beta)
        result = ring_bandwidth_min(ring, 3.0 * max(alpha))
        # Expected candidates ~ 2K/(w1+w2) ~ 2*30/11; generous cap:
        assert result.candidates_tried <= 20
