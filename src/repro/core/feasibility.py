"""Feasibility checks shared by all partitioning algorithms.

Every problem in the paper carries the *execution-time bound* condition:
after removing the cut, no connected component may weigh more than ``K``.
Since cutting every edge leaves single vertices, the bound is achievable
iff every vertex weight is at most ``K`` (the paper assumes
``K > max_i alpha_i``; we accept equality, which still admits the
all-singletons partition).
"""

from __future__ import annotations

import math
from typing import Iterable


class PartitioningError(Exception):
    """Base class for partitioning failures."""


class InfeasibleBoundError(PartitioningError):
    """Raised when no cut can satisfy the execution-time bound ``K``."""

    def __init__(self, bound: float, max_weight: float) -> None:
        super().__init__(
            f"bound K={bound:g} is below the maximum vertex weight "
            f"{max_weight:g}; no partition can satisfy the execution-time "
            "bound"
        )
        self.bound = bound
        self.max_weight = max_weight


def check_bound_domain(bound: float) -> None:
    """Raise :class:`ValueError` unless ``bound`` is positive and finite."""
    if not (bound > 0) or not math.isfinite(bound):
        raise ValueError(f"bound K must be positive and finite, got {bound:g}")


def validate_bound(vertex_weights: Iterable[float], bound: float) -> float:
    """Validate ``K`` against the vertex weights and return the max weight.

    Raises :class:`InfeasibleBoundError` when some vertex alone exceeds
    ``K`` and :class:`ValueError` on a bound that is not positive and
    finite (NaN included).
    """
    check_bound_domain(bound)
    max_weight = max(vertex_weights)
    if max_weight > bound:
        raise InfeasibleBoundError(bound, max_weight)
    return max_weight
