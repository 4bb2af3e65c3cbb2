"""Unit tests for :mod:`repro.graphs.chain`."""

import pytest

from repro.graphs.chain import Chain
from repro.graphs.task_graph import TaskGraph


class TestConstruction:
    def test_basic(self, small_chain):
        assert small_chain.num_tasks == 5
        assert small_chain.num_edges == 4
        assert small_chain.total_weight() == 20

    def test_single_task(self):
        chain = Chain([3.0], [])
        assert chain.num_tasks == 1
        assert chain.num_edges == 0

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one task"):
            Chain([], [])

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(ValueError, match="edge weights"):
            Chain([1, 2], [1, 2])

    def test_rejects_non_positive_vertex(self):
        with pytest.raises(ValueError, match="non-positive"):
            Chain([1, 0], [1])

    def test_rejects_negative_edge(self):
        with pytest.raises(ValueError, match="negative"):
            Chain([1, 2], [-1])

    def test_rejects_nan_task_weight(self):
        # Before the domain check, alpha=[1, NaN, 2] was accepted and
        # the reference and the engine disagreed on it (cut [0, 1]
        # against []).
        with pytest.raises(ValueError, match="task 1 has non-finite"):
            Chain([1, float("nan"), 2], [1, 1])

    def test_rejects_infinite_task_weight(self):
        with pytest.raises(ValueError, match="non-finite"):
            Chain([1, float("inf")], [1])
        with pytest.raises(ValueError, match="non-finite"):
            Chain([float("-inf"), 1], [1])

    def test_rejects_overflowing_total(self):
        # Every weight is finite, but the prefix total overflows; the
        # reference then returned a non-optimal cost.
        with pytest.raises(ValueError, match="overflows"):
            Chain([1e308, 1e308, 1, 1e308], [3, 1, 2])

    def test_rejects_nan_edge_weight(self):
        with pytest.raises(ValueError, match="edge 1 has NaN"):
            Chain([1, 2, 3], [1, float("nan")])
        with pytest.raises(ValueError, match="edge 0 has negative"):
            Chain([1, 2], [float("-inf")])

    def test_infinite_edge_weight_marks_a_forbidden_edge(self):
        chain = Chain([1, 2, 3], [1, float("inf")])
        assert chain.edge_weight(1) == float("inf")

    def test_finite_edges_with_overflowing_sum_allowed(self):
        chain = Chain([1, 1, 1], [1e308, 1e308])
        assert chain.beta == [1e308, 1e308]

    def test_largest_finite_weights_allowed(self):
        chain = Chain([1e308], [])
        assert chain.total_weight() == 1e308

    def test_zero_edge_weight_allowed(self):
        chain = Chain([1, 2], [0.0])
        assert chain.edge_weight(0) == 0.0


class TestSegments:
    def test_segment_weight(self, small_chain):
        assert small_chain.segment_weight(0, 0) == 4
        assert small_chain.segment_weight(0, 4) == 20
        assert small_chain.segment_weight(1, 3) == 10

    def test_segment_out_of_range(self, small_chain):
        with pytest.raises(IndexError):
            small_chain.segment_weight(0, 5)
        with pytest.raises(IndexError):
            small_chain.segment_weight(3, 2)

    def test_prefix_weights(self, small_chain):
        assert small_chain.prefix_weights() == [0, 4, 7, 12, 14, 20]

    def test_max_vertex_weight(self, small_chain):
        assert small_chain.max_vertex_weight() == 6


class TestCuts:
    def test_empty_cut_single_block(self, small_chain):
        assert small_chain.cut_components([]) == [(0, 4)]

    def test_cut_blocks(self, small_chain):
        assert small_chain.cut_components([1, 3]) == [(0, 1), (2, 3), (4, 4)]

    def test_cut_all_edges(self, small_chain):
        blocks = small_chain.cut_components([0, 1, 2, 3])
        assert blocks == [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]

    def test_duplicate_cut_indices_ignored(self, small_chain):
        assert small_chain.cut_components([1, 1]) == [(0, 1), (2, 4)]

    def test_cut_index_out_of_range(self, small_chain):
        with pytest.raises(IndexError):
            small_chain.cut_components([4])

    def test_component_weights(self, small_chain):
        assert small_chain.component_weights([1, 3]) == [7, 7, 6]

    def test_cut_weight(self, small_chain):
        assert small_chain.cut_weight([1, 3]) == 3
        assert small_chain.cut_weight([]) == 0

    def test_is_feasible_cut(self, small_chain):
        assert small_chain.is_feasible_cut([1, 3], 9)
        assert not small_chain.is_feasible_cut([], 9)
        assert small_chain.is_feasible_cut([], 20)


class TestConversions:
    def test_round_trip_via_task_graph(self, small_chain):
        graph = small_chain.to_task_graph()
        assert graph.is_path()
        back = Chain.from_task_graph(graph)
        assert back == small_chain

    def test_task_graph_weights(self, small_chain):
        graph = small_chain.to_task_graph()
        assert graph.vertex_weight(2) == 5
        assert graph.edge_weight(2, 3) == 9

    def test_from_task_graph_rejects_non_path(self):
        star = TaskGraph([1] * 4, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(ValueError, match="not a simple path"):
            Chain.from_task_graph(star)

    def test_from_task_graph_relabels(self):
        # Path 2 - 0 - 1 with distinct weights.
        graph = TaskGraph([5, 7, 3], [(0, 2), (0, 1)], [10, 20])
        chain = Chain.from_task_graph(graph)
        assert chain.alpha == [7, 5, 3]  # starts at lowest-id endpoint (1)
        assert chain.beta == [20, 10]

    def test_single_vertex_from_task_graph(self):
        chain = Chain.from_task_graph(TaskGraph([4.0]))
        assert chain.num_tasks == 1
        assert chain.alpha == [4.0]

    def test_equality(self, small_chain):
        assert small_chain == Chain([4, 3, 5, 2, 6], [7, 1, 9, 2])
        assert small_chain != Chain([4, 3, 5, 2, 7], [7, 1, 9, 2])
