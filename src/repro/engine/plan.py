"""Compiled chain plans: answer many queries on one chain in one pass.

Algorithm 4.1 splits a query into an ``O(n)`` structural phase (prime
subpaths, membership intervals, the non-redundant edge reduction) and an
``O(p log q)`` TEMP_S sweep.  The engine cache (PR 1) amortizes the
structural phase *per bound*; this module amortizes the whole pipeline
*per chain*: :func:`compile_chain` freezes the chain into contiguous
arrays once (prefix weights, β table), and the resulting
:class:`CompiledChainPlan` answers whole vectors of queries —

- :meth:`CompiledChainPlan.solve_bounds` takes an array of bounds ``ks``
  and returns the optimal bandwidth for every one.  Bounds are sorted
  and grouped by *stability interval* (a structure built at ``K`` stays
  valid for every ``K' ∈ [K, min prime weight)`` — the PR 1 warm-start
  invariant), each distinct structure is built once with the batched
  kernels of :mod:`repro.engine.kernels`, and the TEMP_S transitions run
  through :func:`~repro.engine.kernels.sweep_min_weight`, the
  arena-free form of the sweep.  No per-query Python dispatch survives:
  one argsort, one group walk, one sweep per *distinct structure*.
- :meth:`CompiledChainPlan.solve_beta_sweep` answers β-perturbation
  studies: ``Q`` alternative edge-weight rows against one bound.  The
  prime windows and edge-membership classes depend only on ``alpha``,
  so the plan freezes them once and evaluates the interval-cover
  recurrence for all rows simultaneously with ``np.minimum.reduceat``
  over the query axis — the one place the TEMP_S recurrence is a
  literal batched array program.

Exactness is non-negotiable: both sweeps evaluate the same float
expressions in the same order as the scalar reference, so results are
bit-identical to per-call :func:`repro.core.bandwidth.bandwidth_min`
(the property suite and the ``REPRO_VERIFY=1`` cross-check below hold
this).  With ``REPRO_VERIFY=1`` every sweep answer — every element of
the output, not one per structure — is certified with
:func:`repro.verify.runtime.verify_cache_solve` against the pure-Python
solver.

Plans are cached per chain fingerprint by
:class:`repro.engine.cache.PlanCache` and reached through
:meth:`repro.engine.batch.PartitionEngine.solve_sweep`.
"""

from __future__ import annotations

import os
from bisect import bisect_right, insort
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple, Union

from repro.engine.kernels import (
    beta_array,
    membership_intervals,
    prefix_array,
    prime_windows,
    reduced_class_arrays,
    reduced_edge_arrays,
    require_numpy,
    sweep_min_cut,
    sweep_min_weight,
    validate_bound_array,
)
from repro.graphs.chain import Chain
from repro.observability.live import NULL_HUB
from repro.verify.contracts import complexity

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as np
except ImportError:  # pragma: no cover - exercised on minimal installs
    np = None  # type: ignore[assignment]

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.observability import MetricsRegistry, Tracer

__all__ = ["CompiledChainPlan", "compile_chain"]

#: Queries whose bounds land in an already-built stability interval are
#: served from this per-plan memo; beyond this many distinct intervals
#: the oldest-built entries are dropped (the memo is an accelerator, not
#: a correctness structure).
DEFAULT_MAX_STRUCTURES = 128


class _FrozenStructure:
    """One built prime structure, frozen to what queries consume.

    ``valid_from`` is the bound the structure was built at and
    ``valid_until`` its minimum prime weight: any bound in
    ``[valid_from, valid_until)`` yields the identical structure, hence
    the identical optimal cut (the PR 1 stability-interval invariant).
    The optimal *weight* is computed eagerly (it is what sweeps serve);
    the cut is reconstructed on first demand and memoized.
    """

    __slots__ = ("valid_from", "valid_until", "weight", "cut", "p", "r")

    def __init__(
        self, valid_from: float, valid_until: float, weight: float, p: int, r: int
    ) -> None:
        self.valid_from = valid_from
        self.valid_until = valid_until
        self.weight = weight
        self.cut: Optional[List[int]] = None
        self.p = p
        self.r = r

    def covers(self, bound: float) -> bool:
        return self.valid_from <= bound < self.valid_until

    def __repr__(self) -> str:
        return (
            f"_FrozenStructure([{self.valid_from:g}, {self.valid_until:g}), "
            f"weight={self.weight:g}, p={self.p}, r={self.r})"
        )


class CompiledChainPlan:
    """A chain compiled for multi-query solving; see the module docstring.

    Build one with :func:`compile_chain` (or, preferably, through
    :meth:`repro.engine.batch.PartitionEngine.solve_sweep`, which caches
    plans by chain fingerprint).  A plan owns the chain's contiguous
    arrays plus a memo of frozen structures keyed by stability interval,
    so repeated sweeps over overlapping bound ranges pay the structural
    phase once per *interval*, not once per call.
    """

    __slots__ = (
        "chain",
        "backend",
        "tracer",
        "metrics",
        "hub",
        "max_structures",
        "_prefix",
        "_beta",
        "_alpha_max",
        "_memo",
        "_starts",
    )

    def __init__(
        self,
        chain: Chain,
        *,
        backend: str = "numpy",
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
        hub: Any = None,
        max_structures: int = DEFAULT_MAX_STRUCTURES,
    ) -> None:
        require_numpy()
        if backend not in ("numpy",):
            raise ValueError(
                f"compiled plans require the array backend, got {backend!r}"
            )
        self.chain = chain
        self.backend = backend
        self.tracer = tracer
        self.metrics = metrics
        self.hub = hub or NULL_HUB
        self.max_structures = max(1, int(max_structures))
        self._prefix = prefix_array(chain)
        self._beta = beta_array(chain)
        self._alpha_max = chain.max_vertex_weight()
        # Frozen structures by stability interval.  Intervals are built
        # only on lookup misses, so they are pairwise disjoint and the
        # sorted-start bisect below has a unique candidate per bound.
        self._memo: "OrderedDict[float, _FrozenStructure]" = OrderedDict()
        self._starts: List[float] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """The compiled chain's content hash (the plan-cache key)."""
        return self.chain.fingerprint()

    def __len__(self) -> int:
        """Number of memoized frozen structures."""
        return len(self._memo)

    def __repr__(self) -> str:
        return (
            f"CompiledChainPlan(n={self.chain.num_tasks}, "
            f"structures={len(self._memo)})"
        )

    # ------------------------------------------------------------------
    # Structure builds
    # ------------------------------------------------------------------
    def _count(self, name: str, amount: float = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _windows(self, bound: float) -> Tuple["np.ndarray", "np.ndarray", float]:
        """Prime windows for ``bound`` plus the stability-interval end."""
        prefix = self._prefix
        first_tasks, last_tasks = prime_windows(prefix, bound)
        if first_tasks.shape[0] == 0:
            return first_tasks, last_tasks, float("inf")
        prime_weights = prefix[last_tasks + 1] - prefix[first_tasks]
        return first_tasks, last_tasks, float(prime_weights.min())

    def _build_arrays(
        self, bound: float
    ) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray", int, float]:
        """The reduced-edge columns for ``bound``, plus ``p`` and the
        stability-interval end — the cut-capable form.

        Exactly the pipeline of
        :func:`~repro.engine.kernels.compute_prime_structure_numpy`,
        inlined against the plan's frozen ``prefix``/``beta`` arrays so
        a 100-bound sweep never re-validates or re-converts anything.
        Only cut reconstruction needs the representative edge indices;
        the weight path in :meth:`_build` uses the cheaper
        :func:`~repro.engine.kernels.reduced_class_arrays`.
        """
        first_tasks, last_tasks, valid_until = self._windows(bound)
        p = int(first_tasks.shape[0])
        if p == 0:
            empty = np.empty(0, dtype=np.int64)
            return (
                empty, np.empty(0, dtype=np.float64), empty, empty, 0, valid_until
            )
        lo, hi = membership_intervals(
            first_tasks, last_tasks - 1, self.chain.num_edges
        )
        edge_index, edge_weight, edge_first, edge_last = reduced_edge_arrays(
            self._beta, lo, hi, apply_reduction=True
        )
        return edge_index, edge_weight, edge_first, edge_last, p, valid_until

    def _build(self, bound: float) -> _FrozenStructure:
        """Build, memoize and return the frozen structure at ``bound``."""
        first_tasks, last_tasks, valid_until = self._windows(bound)
        p = int(first_tasks.shape[0])
        if p == 0:
            r = 0
            weight = 0.0
        else:
            edge_weight, edge_first, edge_last = reduced_class_arrays(
                self._beta, first_tasks, last_tasks, self.chain.num_edges
            )
            r = int(edge_weight.shape[0])
            head = int(np.searchsorted(edge_first, 1))
            weight = sweep_min_weight(
                edge_weight.tolist(),
                edge_first.tolist(),
                edge_last.tolist(),
                head,
            )
        frozen = _FrozenStructure(bound, valid_until, weight, p, r)
        if p == 0:
            frozen.cut = []
        self._remember(frozen)
        self._count("engine.plan.structures.built")
        if self.hub.enabled:
            self.hub.publish(
                {
                    "kind": "event",
                    "event": "plan",
                    "action": "structure_built",
                    "bound": bound,
                    "n": self.chain.num_tasks,
                    "structures": len(self._memo),
                }
            )
        return frozen

    def _remember(self, frozen: _FrozenStructure) -> None:
        # REPRO016/017: maintain the sorted start index incrementally
        # (insort is O(k)) instead of re-sorting the whole memo — and
        # rebuilding the list — on every insert.
        memo = self._memo
        starts = self._starts
        while len(memo) >= self.max_structures:
            evicted, _ = memo.popitem(last=False)
            starts.remove(evicted)
        if frozen.valid_from not in memo:
            insort(starts, frozen.valid_from)
        memo[frozen.valid_from] = frozen

    def _lookup(self, bound: float) -> Optional[_FrozenStructure]:
        """The memoized structure whose stability interval covers ``bound``.

        Intervals are disjoint (see ``__init__``), so the rightmost
        start at or below ``bound`` is the only possible cover.
        """
        starts = self._starts
        if not starts:
            return None
        pos = bisect_right(starts, bound) - 1
        if pos < 0:
            return None
        frozen = self._memo[starts[pos]]
        return frozen if frozen.covers(bound) else None

    def _cut_for(self, frozen: _FrozenStructure) -> List[int]:
        """The optimal cut for a frozen structure, reconstructed lazily.

        The weight-only sweep drops the solution arena; when a caller
        (or the verifier) wants the cut itself, the structure is rebuilt
        at ``valid_from`` — deterministic, so the rebuild is exact — and
        the full :func:`~repro.engine.kernels.sweep_min_cut` runs once.
        Its weight must equal the frozen one bit-for-bit; anything else
        is a kernel bug worth crashing on.
        """
        if frozen.cut is None:
            edge_index, edge_weight, edge_first, edge_last, _, _ = (
                self._build_arrays(frozen.valid_from)
            )
            cut, weight = sweep_min_cut(
                edge_index.tolist(),
                edge_weight.tolist(),
                edge_first.tolist(),
                edge_last.tolist(),
            )
            if weight != frozen.weight:
                raise AssertionError(
                    f"cut sweep weight {weight!r} diverged from the "
                    f"weight-only sweep {frozen.weight!r} at "
                    f"K={frozen.valid_from:g}"
                )
            frozen.cut = cut
        return frozen.cut

    # ------------------------------------------------------------------
    # Bound sweeps
    # ------------------------------------------------------------------
    @complexity("k log k + g n log q")
    def solve_bounds(
        self,
        ks: Union[Sequence[float], "np.ndarray"],
        *,
        return_cuts: bool = False,
    ) -> Any:
        """Optimal bandwidth for every bound in ``ks`` — one batched pass.

        ``O(k log k + g n log q)`` for ``k`` queries hitting ``g``
        distinct stability intervals: one stable argsort, then per
        *group* (not per query) one structural build and one TEMP_S
        sweep.  Returns a float64 array aligned with ``ks``; with
        ``return_cuts=True`` also a list of sorted edge-index lists
        (queries sharing a structure share the identical optimal cut —
        each entry is a fresh list, safe to mutate).

        Every element is bit-identical to
        ``bandwidth_min(chain, k).weight`` at the same ``k``; under
        ``REPRO_VERIFY=1`` each one is certified against the pure-Python
        solver before the sweep returns.

        Raises :class:`~repro.core.feasibility.InfeasibleBoundError` if
        any bound is below the maximum task weight, and ``ValueError``
        on empty, non-1-D or non-finite input.
        """
        arr = np.asarray(ks, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"ks must be one-dimensional, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise ValueError("ks must contain at least one bound")
        if not np.isfinite(arr).all():
            raise ValueError("ks must be finite")
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            with tracer.span(
                "plan_solve_bounds", n=self.chain.num_tasks, queries=arr.shape[0]
            ) as span:
                out = self._solve_bounds_impl(arr, return_cuts, span)
            return out
        return self._solve_bounds_impl(arr, return_cuts, None)

    def _solve_bounds_impl(
        self, arr: "np.ndarray", return_cuts: bool, span: Any
    ) -> Any:
        order = np.argsort(arr, kind="stable")
        # One feasibility check clears the whole batch: bounds are
        # validated smallest-first, and feasibility is monotone in K.
        validate_bound_array(self._alpha_max, float(arr[order[0]]))
        verify = "REPRO_VERIFY" in os.environ  # repro-lint: disable=REPRO023 opt-in verification gate; raises on failure, never alters outputs
        need_cuts = return_cuts or verify
        total = arr.shape[0]
        weights = np.empty(total, dtype=np.float64)
        cuts: List[List[int]] = [[] for _ in range(total)] if return_cuts else []
        built = 0
        reused = 0
        i = 0
        while i < total:
            bound = float(arr[order[i]])
            frozen = self._lookup(bound)
            if frozen is None:
                frozen = self._build(bound)
                built += 1
            else:
                reused += 1
            weight = frozen.weight
            cut = self._cut_for(frozen) if need_cuts else []
            end = frozen.valid_until
            while i < total and arr[order[i]] < end:
                idx = int(order[i])
                weights[idx] = weight
                if return_cuts:
                    cuts[idx] = list(cut)
                if verify:
                    self._verify_answer(float(arr[idx]), cut, weight)
                i += 1
        self._count("engine.plan.sweeps")
        self._count("engine.plan.queries", total)
        self._count("engine.plan.structures.reused", reused)
        if self.metrics is not None:
            self.metrics.histogram("engine.plan.sweep_batch_size").observe(total)
        if self.hub.enabled:
            self.hub.publish(
                {
                    "kind": "event",
                    "event": "plan",
                    "action": "sweep",
                    "n": self.chain.num_tasks,
                    "queries": total,
                    "structures_built": built,
                    "structures_reused": reused,
                }
            )
        if span is not None:
            span.set("structures_built", built)
            span.set("structures_reused", reused)
        if return_cuts:
            return weights, cuts
        return weights

    def _verify_answer(self, bound: float, cut: List[int], weight: float) -> None:
        from repro.core.bandwidth import ChainCutResult
        from repro.verify.runtime import maybe_verify_cache_solve

        maybe_verify_cache_solve(
            self.chain, bound, ChainCutResult(self.chain, list(cut), weight)
        )

    # ------------------------------------------------------------------
    # β-perturbation sweeps
    # ------------------------------------------------------------------
    @complexity("n + b s")
    def solve_beta_sweep(
        self,
        betas: Union[Sequence[Sequence[float]], "np.ndarray"],
        bound: float,
    ) -> "np.ndarray":
        """Optimal bandwidth for ``b`` alternative β rows at one bound.

        ``betas`` is a ``(b, n - 1)`` matrix of edge-weight rows; the
        result is the length-``b`` vector of optimal bandwidths, each
        bit-identical to ``bandwidth_min(Chain(alpha, betas[i]), bound)``
        on the corresponding perturbed chain.  ``O(n + b s)`` where
        ``s`` is the total prime-cover multiplicity (the sum of the
        per-prime ``q`` values): the prime windows and membership
        classes depend only on ``alpha``, so they are built once and the
        interval-cover recurrence runs vectorized over the query axis —
        per prime, one batched activation and one batched window
        minimum, no per-query dispatch.

        Under ``REPRO_VERIFY=1`` every row's answer is certified against
        a pure-Python solve of the perturbed chain.
        """
        mat = np.asarray(betas, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[1] != self.chain.num_edges:
            raise ValueError(
                f"betas must have shape (b, {self.chain.num_edges}), "
                f"got {mat.shape}"
            )
        if mat.shape[0] == 0:
            raise ValueError("betas must contain at least one row")
        if not np.isfinite(mat).all() or (mat < 0).any():
            raise ValueError("beta rows must be finite and non-negative")
        validate_bound_array(self._alpha_max, float(bound))
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            with tracer.span(
                "plan_beta_sweep", n=self.chain.num_tasks, queries=mat.shape[0]
            ):
                out = self._solve_beta_sweep_impl(mat, bound)
        else:
            out = self._solve_beta_sweep_impl(mat, bound)
        self._count("engine.plan.sweeps")
        self._count("engine.plan.queries", mat.shape[0])
        if self.metrics is not None:
            self.metrics.histogram("engine.plan.sweep_batch_size").observe(
                mat.shape[0]
            )
        if "REPRO_VERIFY" in os.environ:  # repro-lint: disable=REPRO023 opt-in verification gate; raises on failure, never alters outputs
            self._verify_beta_sweep(mat, bound, out)
        return out

    def _solve_beta_sweep_impl(
        self, mat: "np.ndarray", bound: float
    ) -> "np.ndarray":
        rows = mat.shape[0]
        first_tasks, last_tasks = prime_windows(self._prefix, bound)
        p = first_tasks.shape[0]
        if p == 0:
            return np.zeros(rows, dtype=np.float64)
        lo, hi = membership_intervals(
            first_tasks, last_tasks - 1, self.chain.num_edges
        )
        covered = np.flatnonzero(lo <= hi)
        lo_c = lo[covered]
        hi_c = hi[covered]
        # Membership classes: maximal runs of covered edges sharing the
        # same (first, last) prime interval.  Monotone lo/hi mean equal
        # intervals are always adjacent, so runs are exactly the classes
        # — and because the per-class β minimum equals the reduced
        # edge's β bit-for-bit, the recurrence below reproduces the
        # reference's candidate sets float for float.
        boundary = np.empty(lo_c.shape[0], dtype=bool)
        boundary[0] = True
        np.logical_or(
            lo_c[1:] != lo_c[:-1], hi_c[1:] != hi_c[:-1], out=boundary[1:]
        )
        starts = np.flatnonzero(boundary)
        class_first = lo_c[starts]
        class_last = hi_c[starts]
        # Per-query class minima: (b, classes), one reduceat.
        class_w = np.minimum.reduceat(mat[:, covered], starts, axis=1)
        # The interval-cover recurrence, batched over the query axis:
        #   V_i = min over classes c covering prime i of
        #         class_w[c] + V_{class_first[c] - 1}
        # Classes activate in class_first order (nondecreasing), and a
        # class's predecessor term is always the previous prime's V, so
        # activation is a contiguous slice-add and the per-prime minimum
        # a contiguous slice-reduce over the candidate matrix.
        cand = np.empty((class_first.shape[0], rows), dtype=np.float64)
        class_w_t = np.ascontiguousarray(class_w.T)
        primes = np.arange(p, dtype=np.int64)
        win_lo = np.searchsorted(class_last, primes, side="left")
        win_hi = np.searchsorted(class_first, primes, side="right")
        v_prev = np.zeros(rows, dtype=np.float64)
        ptr = 0
        for i in range(p):
            act = int(win_hi[i])
            if act > ptr:  # repro-mutate: equivalent=flip-compare -- act == ptr makes every slice below empty, so the activation block is a no-op either way
                if i == 0:  # repro-mutate: equivalent=flip-compare -- classes starting at prime 0 have no predecessor term; adding the zero vector v_prev is the same arithmetic
                    cand[ptr:act] = class_w_t[ptr:act]
                else:
                    np.add(class_w_t[ptr:act], v_prev, out=cand[ptr:act])
                ptr = act
            v_prev = cand[int(win_lo[i]) : act].min(axis=0)
        return v_prev

    def _verify_beta_sweep(
        self, mat: "np.ndarray", bound: float, out: "np.ndarray"
    ) -> None:
        from repro.core.bandwidth import ChainCutResult
        from repro.verify.runtime import maybe_verify_cache_solve

        from repro.core.bandwidth import bandwidth_min

        for row, claimed in zip(mat, out):
            # The batched recurrence yields weights only; certify the
            # claimed weight on the reference cut (the cross-check
            # inside re-solves the perturbed chain and must agree).
            perturbed = Chain(self.chain.alpha_array, row)
            reference = bandwidth_min(perturbed, bound, backend="python")
            maybe_verify_cache_solve(
                perturbed,
                bound,
                ChainCutResult(perturbed, list(reference.cut_indices), float(claimed)),
            )


@complexity("n")
def compile_chain(
    chain: Chain,
    *,
    backend: str = "numpy",
    tracer: Optional["Tracer"] = None,
    metrics: Optional["MetricsRegistry"] = None,
    hub: Any = None,
    max_structures: int = DEFAULT_MAX_STRUCTURES,
) -> CompiledChainPlan:
    """Compile ``chain`` into a :class:`CompiledChainPlan` — ``O(n)``.

    Runs the chain-level half of Algorithm 4.1's preprocessing (prefix
    weights, β table, feasibility floor) once and freezes it; the
    returned plan then answers bound sweeps and β sweeps with no
    per-query Python dispatch.  ``backend`` must be ``"numpy"`` (plans
    *are* the array fast path); an enabled ``tracer`` records a
    ``plan_compile`` span and ``metrics`` receives
    ``engine.plan.compiled``.
    """
    if tracer is not None and tracer.enabled:
        with tracer.span("plan_compile", n=chain.num_tasks):
            plan = CompiledChainPlan(
                chain,
                backend=backend,
                tracer=tracer,
                metrics=metrics,
                hub=hub,
                max_structures=max_structures,
            )
    else:
        plan = CompiledChainPlan(
            chain,
            backend=backend,
            tracer=tracer,
            metrics=metrics,
            hub=hub,
            max_structures=max_structures,
        )
    if metrics is not None:
        metrics.counter("engine.plan.compiled").inc()
    if plan.hub.enabled:
        plan.hub.publish(
            {
                "kind": "event",
                "event": "plan",
                "action": "compiled",
                "n": chain.num_tasks,
            }
        )
    return plan
