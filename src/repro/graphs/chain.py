"""Linear task graphs (chains).

Section 2.3 of the paper works on a path ``P = (V, E)`` with
``V = {v_1, ..., v_n}``, ``E = {e_i = (v_i, v_{i+1})}``, vertex weights
``alpha: V -> R+`` and edge weights ``beta: E -> R+``.  This module keeps
the same notation: ``alpha[i]`` is the weight of vertex ``i`` and
``beta[i]`` the weight of the edge between vertices ``i`` and ``i+1``
(0-based; the paper is 1-based).

A *cut* on a chain is naturally a set of edge indices.  The
:meth:`Chain.cut_components` helper converts a cut into the contiguous
blocks it induces, which is what the execution-time-bound condition is
stated over.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.task_graph import TaskGraph


def float_weights(values: Any, name: str) -> "np.ndarray":
    """A fresh one-dimensional float64 copy of ``values``.

    Accepts a sequence or an iterator of numbers (lists, tuples,
    ``range``, generators, NumPy arrays of any real dtype); every
    element converts exactly as ``float(x)`` would.  A string, a scalar
    or a nested sequence raises :class:`ValueError`.
    """
    if isinstance(values, (str, bytes)):
        raise ValueError(
            f"{name} must be a sequence of numbers, got {type(values).__name__}"
        )
    if isinstance(values, Iterator):
        values = list(values)  # generators, map objects, ...
    array = np.array(values, dtype=np.float64)
    if array.ndim != 1:
        raise ValueError(
            f"{name} must be one-dimensional, got {array.ndim}-d input"
        )
    return array


def check_weight_domain(
    alpha: "np.ndarray", total: float, beta: "np.ndarray"
) -> None:
    """Raise :class:`ValueError` unless the weights are in the input
    domain shared by chains and rings: finite positive task weights with
    a finite ``total``, edge weights neither NaN nor negative.

    ``min`` propagates NaN, so the common case costs two C-speed
    reductions; the loops only run to name the offending weight.
    """
    if not (math.isfinite(total) and alpha.min() > 0):
        _reject_tasks(alpha.tolist())
    if beta.size and not (beta.min() >= 0):
        _reject_edges(beta.tolist())


def _reject_tasks(alpha: List[float]) -> None:
    """Raise for the first task weight outside the domain, or for a
    total that overflows."""
    for i, a in enumerate(alpha):
        if not math.isfinite(a):
            raise ValueError(f"task {i} has non-finite weight {a}")
        if not (a > 0):
            raise ValueError(f"task {i} has non-positive weight {a}")
    raise ValueError("total task weight overflows to infinity")


def _reject_edges(beta: List[float]) -> None:
    """Raise for the first NaN or negative edge weight."""
    for i, b in enumerate(beta):
        if b != b:
            raise ValueError(f"edge {i} has NaN weight")
        if not (b >= 0):
            raise ValueError(f"edge {i} has negative weight {b}")


class Chain:
    """A linear task graph with ``n`` tasks and ``n - 1`` dependency edges.

    Parameters
    ----------
    alpha:
        Vertex weights, ``alpha[i] > 0`` is the execution requirement of
        task ``i``.  Every weight and their sum must be finite.
    beta:
        Edge weights, ``beta[i] >= 0`` is the communication volume between
        task ``i`` and task ``i + 1``.  Must have length ``len(alpha) - 1``
        (or 0 when the chain has a single task).  ``inf`` is accepted: it
        marks an edge no optimal cut may use when another choice exists
        (:func:`repro.core.bicriteria.lexicographic_chain_partition`
        relies on it).

    Weights outside this domain (NaN anywhere, a non-finite or
    non-positive task weight, a task total that overflows, a negative
    edge weight) raise :class:`ValueError`, as do a string, a scalar or
    a nested sequence in place of a weight list.

    **One copy.**  The constructor copies the weights once into
    read-only float64 arrays (:attr:`alpha_array`, :attr:`beta_array`
    and the prefix sums :attr:`prefix_array`); the engine and the native
    kernel read these without converting again.  The Python lists the
    reference algorithms read (:attr:`alpha`, :attr:`beta`,
    :meth:`prefix_weights`) are built from the arrays on first access.
    """

    __slots__ = ("_alpha", "_beta", "_prefix", "_fingerprint",
                 "_alpha_list", "_beta_list", "_prefix_list")

    def __init__(self, alpha: Sequence[float], beta: Sequence[float]) -> None:
        a = float_weights(alpha, "alpha")
        if not a.size:
            raise ValueError("a chain needs at least one task")
        b = float_weights(beta, "beta")
        if b.shape[0] != a.shape[0] - 1:
            raise ValueError(
                f"chain with {a.shape[0]} tasks needs "
                f"{a.shape[0] - 1} edge weights, got {b.shape[0]}"
            )
        # prefix[i] = alpha[0] + ... + alpha[i-1]; prefix[0] = 0.  cumsum
        # adds sequentially, so it is bit-identical to itertools.accumulate.
        prefix = np.empty(a.shape[0] + 1, dtype=np.float64)
        prefix[0] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            np.cumsum(a, out=prefix[1:])
            check_weight_domain(a, float(prefix[-1]), b)
        a.flags.writeable = b.flags.writeable = prefix.flags.writeable = False
        self._alpha, self._beta, self._prefix = a, b, prefix
        self._fingerprint: str = ""  # computed lazily
        self._alpha_list: Optional[List[float]] = None
        self._beta_list: Optional[List[float]] = None
        self._prefix_list: Optional[List[float]] = None

    def __reduce__(self) -> Tuple[Any, Tuple["np.ndarray", "np.ndarray"]]:
        # Rebuild through the constructor: unpickled arrays come back
        # writeable, and the constructor makes them read-only again.
        return (type(self), (self._alpha, self._beta))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        return self._alpha.shape[0]

    @property
    def num_edges(self) -> int:
        return self._beta.shape[0]

    @property
    def alpha_array(self) -> "np.ndarray":
        """Vertex weights as a read-only float64 array (len ``n``)."""
        return self._alpha

    @property
    def beta_array(self) -> "np.ndarray":
        """Edge weights as a read-only float64 array (len ``n - 1``)."""
        return self._beta

    @property
    def prefix_array(self) -> "np.ndarray":
        """Prefix weights as a read-only float64 array (len ``n + 1``)."""
        return self._prefix

    @property
    def alpha(self) -> List[float]:
        """Vertex weights as a list, built on first access (do not mutate)."""
        if self._alpha_list is None:
            self._alpha_list = self._alpha.tolist()
        return self._alpha_list

    @property
    def beta(self) -> List[float]:
        """Edge weights as a list, built on first access (do not mutate)."""
        if self._beta_list is None:
            self._beta_list = self._beta.tolist()
        return self._beta_list

    def vertex_weight(self, i: int) -> float:
        return self.alpha[i]

    def edge_weight(self, i: int) -> float:
        return self.beta[i]

    def total_weight(self) -> float:
        return float(self._prefix[-1])

    def max_vertex_weight(self) -> float:
        return float(self._alpha.max())

    def segment_weight(self, lo: int, hi: int) -> float:
        """Total vertex weight of tasks ``lo .. hi`` inclusive, in O(1).

        A single-task segment returns its exact weight: the prefix
        difference can exceed ``alpha[lo]`` by cancellation noise, which
        would make a singleton block look infeasible under a bound equal
        to the maximum vertex weight.
        """
        if not (0 <= lo <= hi < self.num_tasks):
            raise IndexError(f"segment [{lo}, {hi}] out of range")
        if lo == hi:
            return self.alpha[lo]
        prefix = self.prefix_weights()
        return prefix[hi + 1] - prefix[lo]

    def prefix_weights(self) -> List[float]:
        """``prefix[i]`` = total weight of tasks ``0 .. i-1`` (len ``n + 1``),
        as a list built on first access (do not mutate)."""
        if self._prefix_list is None:
            self._prefix_list = self._prefix.tolist()
        return self._prefix_list

    def cut_weight(self, cut: Iterable[int]) -> float:
        """Total edge weight of a cut given as edge indices (the *bandwidth*)."""
        beta = self.beta
        return sum(beta[i] for i in cut)

    def fingerprint(self) -> str:
        """Content hash of the chain (hex digest, cached after first call).

        Two chains with bit-identical ``alpha``/``beta`` share a
        fingerprint, even across processes — the key the engine's
        :class:`~repro.engine.cache.PrimeStructureCache` uses to share
        preprocessing between queries on equal chains.  The digest
        covers the task count and the little-endian bytes of both
        weight arrays.
        """
        if not self._fingerprint:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(struct.pack("<q", self.num_tasks))
            digest.update(self._alpha.astype("<f8", copy=False))
            digest.update(self._beta.astype("<f8", copy=False))
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------
    # Cuts and blocks
    # ------------------------------------------------------------------
    def cut_components(self, cut: Iterable[int]) -> List[Tuple[int, int]]:
        """Contiguous blocks ``(lo, hi)`` induced by cutting the given edges.

        A block ``(lo, hi)`` covers tasks ``lo .. hi`` inclusive.  Edge
        index ``i`` separates task ``i`` from task ``i + 1``.
        """
        boundaries = sorted(set(cut))
        for i in boundaries:
            if not (0 <= i < self.num_edges):
                raise IndexError(f"edge index {i} out of range")
        blocks: List[Tuple[int, int]] = []
        lo = 0
        for i in boundaries:
            blocks.append((lo, i))
            lo = i + 1
        blocks.append((lo, self.num_tasks - 1))
        return blocks

    def component_weights(self, cut: Iterable[int]) -> List[float]:
        """Vertex weight of every block induced by the cut."""
        return [self.segment_weight(lo, hi) for lo, hi in self.cut_components(cut)]

    def is_feasible_cut(self, cut: Iterable[int], bound: float) -> bool:
        """True when every block induced by ``cut`` weighs at most ``bound``."""
        return all(w <= bound for w in self.component_weights(cut))

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_task_graph(self) -> TaskGraph:
        """The equivalent general :class:`TaskGraph` (vertices ``0..n-1``)."""
        edges = [(i, i + 1) for i in range(self.num_edges)]
        return TaskGraph(self.alpha, edges, self.beta)

    @classmethod
    def from_task_graph(cls, graph: TaskGraph) -> "Chain":
        """Build a chain from a path-shaped :class:`TaskGraph`.

        The task graph must be a simple path; its vertices are relabelled
        along the path starting from the lowest-id endpoint.
        """
        if not graph.is_path():
            raise ValueError("task graph is not a simple path")
        if graph.num_vertices == 1:
            return cls([graph.vertex_weight(0)], [])
        endpoints = [v for v in range(graph.num_vertices) if graph.degree(v) == 1]
        order = [min(endpoints)]
        prev = -1
        while len(order) < graph.num_vertices:
            current = order[-1]
            nxt = [v for v in graph.neighbors(current) if v != prev]
            prev = current
            order.append(nxt[0])
        alpha = [graph.vertex_weight(v) for v in order]
        beta = [
            graph.edge_weight(order[i], order[i + 1])
            for i in range(len(order) - 1)
        ]
        return cls(alpha, beta)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Chain):
            return NotImplemented
        return bool(
            np.array_equal(self._alpha, other._alpha)
            and np.array_equal(self._beta, other._beta)
        )

    def __repr__(self) -> str:
        return f"Chain(n={self.num_tasks}, W={self.total_weight():g})"
