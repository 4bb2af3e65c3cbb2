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
from itertools import accumulate
from typing import Iterable, List, Sequence, Tuple

from repro.graphs.task_graph import TaskGraph


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
    edge weight) raise :class:`ValueError`.
    """

    __slots__ = ("_alpha", "_beta", "_prefix", "_fingerprint")

    def __init__(self, alpha: Sequence[float], beta: Sequence[float]) -> None:
        if not alpha:
            raise ValueError("a chain needs at least one task")
        self._alpha: List[float] = list(map(float, alpha))
        self._beta: List[float] = list(map(float, beta))
        if len(self._beta) != len(self._alpha) - 1:
            raise ValueError(
                f"chain with {len(self._alpha)} tasks needs "
                f"{len(self._alpha) - 1} edge weights, got {len(self._beta)}"
            )
        # prefix[i] = alpha[0] + ... + alpha[i-1]; prefix[0] = 0.
        self._prefix: List[float] = [0.0]
        self._prefix.extend(accumulate(self._alpha))
        # The input domain: finite positive task weights with a finite
        # total, non-negative edge weights.  A NaN makes a sum NaN (and
        # an infinite task weight the total infinite), after which min()
        # is exact, so the common case costs C-speed passes; the loops
        # only run to name the offending weight.
        if not (math.isfinite(self._prefix[-1]) and min(self._alpha) > 0):
            _reject_tasks(self._alpha)
        if self._beta:
            edge_total = sum(self._beta)
            if edge_total != edge_total or not (min(self._beta) >= 0):
                _reject_edges(self._beta)
        self._fingerprint: str = ""  # computed lazily

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        return len(self._alpha)

    @property
    def num_edges(self) -> int:
        return len(self._beta)

    @property
    def alpha(self) -> List[float]:
        """Vertex weights (do not mutate)."""
        return self._alpha

    @property
    def beta(self) -> List[float]:
        """Edge weights (do not mutate)."""
        return self._beta

    def vertex_weight(self, i: int) -> float:
        return self._alpha[i]

    def edge_weight(self, i: int) -> float:
        return self._beta[i]

    def total_weight(self) -> float:
        return self._prefix[-1]

    def max_vertex_weight(self) -> float:
        return max(self._alpha)

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
            return self._alpha[lo]
        return self._prefix[hi + 1] - self._prefix[lo]

    def prefix_weights(self) -> List[float]:
        """``prefix[i]`` = total weight of tasks ``0 .. i-1`` (len ``n + 1``)."""
        return self._prefix

    def cut_weight(self, cut: Iterable[int]) -> float:
        """Total edge weight of a cut given as edge indices (the *bandwidth*)."""
        return sum(self._beta[i] for i in cut)

    def fingerprint(self) -> str:
        """Content hash of the chain (hex digest, cached after first call).

        Two chains with bit-identical ``alpha``/``beta`` share a
        fingerprint, even across processes — the key the engine's
        :class:`~repro.engine.cache.PrimeStructureCache` uses to share
        preprocessing between queries on equal chains.
        """
        if not self._fingerprint:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(struct.pack("<q", len(self._alpha)))
            digest.update(struct.pack(f"<{len(self._alpha)}d", *self._alpha))
            if self._beta:
                digest.update(struct.pack(f"<{len(self._beta)}d", *self._beta))
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
        return TaskGraph(self._alpha, edges, self._beta)

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
        return self._alpha == other._alpha and self._beta == other._beta

    def __repr__(self) -> str:
        return f"Chain(n={self.num_tasks}, W={self.total_weight():g})"
