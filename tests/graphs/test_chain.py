"""Unit tests for :mod:`repro.graphs.chain`."""

import pickle
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestWeightListShape:
    @pytest.mark.parametrize("bad", ["12", b"12", "1"])
    def test_rejects_string_weight_list(self, bad):
        # A string used to be read character by character as weights.
        with pytest.raises(ValueError, match="alpha must be a sequence"):
            Chain(bad, [])
        with pytest.raises(ValueError, match="beta must be a sequence"):
            Chain([1, 2, 3], "12")

    @pytest.mark.parametrize("bad", [3.0, np.float64(3.0), np.array(3.0)])
    def test_rejects_0d_input(self, bad):
        with pytest.raises(ValueError, match="one-dimensional, got 0-d"):
            Chain(bad, [])

    @pytest.mark.parametrize("bad", [[[1.0, 2.0]], np.ones((2, 2))])
    def test_rejects_2d_input(self, bad):
        with pytest.raises(ValueError, match="one-dimensional, got 2-d"):
            Chain(bad, [1.0])
        with pytest.raises(ValueError, match="beta must be one-dimensional"):
            Chain([1.0, 2.0, 3.0], np.ones((1, 2)))


#: Fingerprints recorded with the list-backed chain (``struct.pack`` of
#: the float lists) before the weights moved into arrays.  Changing one
#: would split every cache keyed by fingerprint across versions.
GOLDEN_FINGERPRINTS = [
    (([4, 3, 5, 2, 6], [7, 1, 9, 2]), "c3f41caf74b425e73d98756ca893b695"),
    (
        ([0.1, 0.2, 1e-300, 3.5e300, 7], [0.0, float("inf"), 1 / 3, 2.5]),
        "cb0dc3ae0e7614637a995ebcb8b0dad4",
    ),
    (([1.5], []), "9fc8e46a069032bc04bc4f2d277d55d4"),
]


def _list_path(alpha, beta):
    """The float lists the list-backed chain held, for comparison."""
    a = list(map(float, alpha))
    return a, list(map(float, beta)), [0.0] + list(accumulate(a))


def _hexes(values):
    return [float(v).hex() for v in values]


class TestArrayBacking:
    @pytest.mark.parametrize("weights,digest", GOLDEN_FINGERPRINTS)
    def test_golden_fingerprint(self, weights, digest):
        assert Chain(*weights).fingerprint() == digest

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=5e-324, max_value=1e300),
                st.integers(min_value=1, max_value=2**60),
            ),
            min_size=1,
            max_size=30,
        ),
        st.data(),
    )
    def test_lists_equal_the_list_path(self, alpha, data):
        beta = data.draw(
            st.lists(
                st.one_of(
                    st.floats(min_value=0.0, allow_nan=False),
                    st.integers(min_value=0, max_value=2**60),
                ),
                min_size=len(alpha) - 1,
                max_size=len(alpha) - 1,
            )
        )
        chain = Chain(alpha, beta)
        want_a, want_b, want_prefix = _list_path(alpha, beta)
        assert _hexes(chain.alpha) == _hexes(want_a)
        assert _hexes(chain.beta) == _hexes(want_b)
        assert _hexes(chain.prefix_weights()) == _hexes(want_prefix)
        assert _hexes(chain.prefix_array) == _hexes(want_prefix)
        assert chain.max_vertex_weight() == max(want_a)
        assert chain.total_weight() == want_prefix[-1]

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ([1, 2, 3], [0, 5]),
            lambda: ([True, 2, True], [False, True]),
            lambda: (
                [np.float32(0.1), np.int64(3), np.float64(2.5)],
                [np.float16(1.5), 0],
            ),
            lambda: (
                np.array([0.1, 0.7, 3.3], dtype=np.float32),
                np.array([1, 2], dtype=np.int32),
            ),
            lambda: ([2**53 + 1, 2**53 + 3, 2**70 + 1], [2**64 + 1, 2**63]),
            lambda: ((1.5, 2.5, 3.5), (0.25, 0.75)),
            lambda: (range(1, 6), range(4)),
            lambda: ((x / 3 for x in range(1, 5)), (x / 7 for x in range(3))),
        ],
        ids=[
            "ints", "bools", "numpy-scalars", "float32-array", "ints-above-2**53",
            "tuples", "range", "generators",
        ],
    )
    def test_input_types_convert_like_float(self, make):
        # ``make`` builds fresh inputs, so one-shot iterables reach both
        # the chain and the list path unconsumed.
        chain = Chain(*make())
        want_a, want_b, want_prefix = _list_path(*make())
        assert _hexes(chain.alpha) == _hexes(want_a)
        assert _hexes(chain.beta) == _hexes(want_b)
        assert _hexes(chain.prefix_weights()) == _hexes(want_prefix)
        assert all(type(v) is float for v in chain.alpha + chain.beta)
        assert chain.fingerprint() == Chain(want_a, want_b).fingerprint()

    def test_caller_mutation_does_not_reach_the_chain(self):
        alpha = np.array([4.0, 3.0, 5.0, 2.0, 6.0])
        beta = np.array([7.0, 1.0, 9.0, 2.0])
        chain = Chain(alpha, beta)
        digest = chain.fingerprint()
        alpha[0] = 100.0
        beta[:] = 0.0
        assert chain.alpha_array.tolist() == [4.0, 3.0, 5.0, 2.0, 6.0]
        assert chain.beta_array.tolist() == [7.0, 1.0, 9.0, 2.0]
        assert Chain(chain.alpha_array, chain.beta_array).fingerprint() == digest
        assert digest == GOLDEN_FINGERPRINTS[0][1]

    def test_arrays_are_read_only(self, small_chain):
        for array in (
            small_chain.alpha_array,
            small_chain.beta_array,
            small_chain.prefix_array,
        ):
            assert array.dtype == np.float64
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_pickle_round_trip_stays_read_only(self, small_chain):
        small_chain.fingerprint()
        clone = pickle.loads(pickle.dumps(small_chain))
        assert clone == small_chain
        assert clone.fingerprint() == small_chain.fingerprint()
        assert _hexes(clone.prefix_weights()) == _hexes(
            small_chain.prefix_weights()
        )
        for array in (clone.alpha_array, clone.beta_array, clone.prefix_array):
            assert not array.flags.writeable

    def test_accessors_return_python_floats(self, small_chain):
        assert type(small_chain.total_weight()) is float
        assert type(small_chain.max_vertex_weight()) is float
        assert type(small_chain.segment_weight(1, 3)) is float
        assert type(small_chain.vertex_weight(0)) is float
