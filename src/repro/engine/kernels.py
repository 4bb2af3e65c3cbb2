"""Vectorized (NumPy) fast-path kernels for the chain pipeline.

The paper's preprocessing — prefix weights, the two-pointer prime-subpath
sweep, edge-membership intervals and the non-redundant-edge reduction —
is ``O(n)`` but *interpreted* ``O(n)`` in the reference implementation:
every task costs a Python bytecode loop iteration.  This module
re-expresses each step as array operations (``np.cumsum``,
``np.searchsorted``, ``np.minimum.reduceat``), cutting the constant
factor by one to two orders of magnitude on large chains while producing
**bit-identical** output to :mod:`repro.core.prime_subpaths`.

Float discipline
----------------

The reference decides criticality with the *subtraction form*
``prefix[b + 1] - prefix[a] > bound``.  ``np.searchsorted`` can only
evaluate the *addition form* ``prefix[b + 1] > prefix[a] + bound``,
which may disagree by one position when a window weight sits within an
ulp of the bound.  :func:`prime_windows` therefore seeds each endpoint
with ``searchsorted`` and then runs a vectorized fix-up that nudges
endpoints until the subtraction-form predicate holds exactly — same
comparisons as the pure-Python loop, so the two backends never diverge,
not even on adversarial ties (the property suite asserts this).

The public entry point is :func:`compute_prime_structure_numpy`, which
:func:`repro.core.prime_subpaths.compute_prime_structure` dispatches to
for ``backend="numpy"``.  The returned :class:`ArrayPrimeStructure`
stores arrays and materializes :class:`PrimeSubpath`/:class:`ReducedEdge`
rows lazily — Algorithm 4.1's sweep touches only the ``r`` reduced
edges, so the ``O(n)`` part of a query never builds a Python object.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised on minimal installs
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

from repro.core.feasibility import InfeasibleBoundError, check_bound_domain
from repro.graphs.chain import Chain
from repro.verify.contracts import complexity


def require_numpy() -> None:
    """Raise a helpful error when the NumPy fast path is unavailable."""
    if not HAVE_NUMPY:
        raise RuntimeError(
            "backend='numpy' requires NumPy; install it or use "
            "backend='python'"
        )


def prefix_array(chain: Chain) -> "np.ndarray":
    """The chain's read-only float64 prefix-weight array (len n + 1).

    No copy: the chain computed it once, with ``np.cumsum``, which adds
    sequentially and so matches the reference's ``itertools.accumulate``
    bit for bit.
    """
    return chain.prefix_array


def beta_array(chain: Chain) -> "np.ndarray":
    """The chain's read-only float64 edge weights (len n - 1), no copy."""
    return chain.beta_array


def validate_bound_array(alpha_max: float, bound: float) -> None:
    """Array-path twin of :func:`repro.core.feasibility.validate_bound`
    taking a precomputed max vertex weight (the cache stores it)."""
    check_bound_domain(bound)
    if alpha_max > bound:
        raise InfeasibleBoundError(bound, alpha_max)


def prime_windows(
    prefix: "np.ndarray", bound: float
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Vectorized two-pointer sweep: the prime subpaths under ``bound``.

    Returns ``(first_tasks, last_tasks)`` arrays, both strictly
    increasing.  For each left endpoint ``a`` the minimal critical right
    endpoint is seeded with ``np.searchsorted`` and corrected to the
    reference's subtraction-form predicate (see module docstring); a
    candidate survives exactly when no later candidate shares its right
    endpoint (the domination rule of ``find_prime_subpaths``).
    """
    n = prefix.shape[0] - 1
    if n <= 0:  # repro-mutate: equivalent=flip-compare -- at n == 0 the vector path below returns the same empty arrays
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    starts = prefix[:-1]
    # j approximates the first index with prefix[j] - prefix[a] > bound.
    j = np.searchsorted(prefix, starts + bound, side="right")  # repro-mutate: equivalent=swap-arith -- only a seed guess; the sweeps below re-derive the exact boundary
    a = np.arange(n, dtype=np.int64)
    # Floor at a + 2: a critical window spans at least two tasks, since
    # feasibility validated max(alpha) <= K exactly and a single-task
    # prefix difference can exceed K only by cancellation noise (the
    # reference sweep enforces the same floor).
    floor = a + 2
    np.clip(j, floor, n, out=j)  # repro-mutate: equivalent=shift-index -- an over-clipped seed is pulled straight back by the down sweep (prefix is monotone)
    # Fix-up to the exact subtraction-form predicate (monotone in j, so
    # each loop runs to a fixpoint; in practice 0-1 iterations).
    # REPRO019: the predicates reuse preallocated scratch buffers via
    # out= instead of chaining four fresh temporaries per pass.
    idx = np.empty(n, dtype=np.int64)
    gap = np.empty_like(starts)
    mask = np.empty(n, dtype=bool)
    inb = np.empty(n, dtype=bool)
    # REPRO017: the ufuncs themselves are module-attribute loads; bind
    # them once rather than twice per fix-up pass.
    np_take, np_subtract = np.take, np.subtract
    np_greater, np_and = np.greater, np.logical_and
    while True:
        # down: (j > floor) & (prefix[j - 1] - starts > bound)
        np_subtract(j, 1, out=idx)  # repro-mutate: equivalent=flip-compare,swap-arith -- a misfiring down sweep only undershoots; the up sweep re-derives the boundary with the exact predicate
        np_take(prefix, idx, out=gap)
        np_subtract(gap, starts, out=gap)
        np_greater(gap, bound, out=mask)
        np_greater(j, floor, out=inb)
        np_and(mask, inb, out=mask)
        if not mask.any():
            break
        j[mask] -= 1
    while True:
        # up: (j < n) & (prefix[j] - starts <= bound)
        np_take(prefix, j, out=gap)
        np_subtract(gap, starts, out=gap)
        np.less_equal(gap, bound, out=mask)
        np.less(j, n, out=inb)
        np_and(mask, inb, out=mask)
        if not mask.any():
            break
        j[mask] += 1
    exceeds = prefix[j] - starts > bound
    valid = exceeds & (j > a + 1)  # repro-mutate: equivalent=flip-compare -- the clip keeps j >= a + 2, so this guard holds either way
    a = a[valid]
    ends = j[valid] - 1  # last task of the minimal critical window
    if a.shape[0] == 0:
        return a, ends
    # Keep candidate a iff the next candidate ends strictly later.
    keep = np.empty(a.shape[0], dtype=bool)
    keep[:-1] = ends[1:] > ends[:-1]
    keep[-1] = True
    return a[keep], ends[keep]


def membership_intervals(
    first_edges: "np.ndarray", last_edges: "np.ndarray", num_edges: int
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Per-edge prime-membership intervals ``(lo, hi)``, vectorized.

    ``lo[j]`` is the first prime whose last edge is ``>= j`` and
    ``hi[j]`` the last prime whose first edge is ``<= j`` — exactly
    ``edge_membership_intervals``, but via two ``searchsorted`` calls on
    the (strictly increasing) prime endpoint arrays.
    """
    edges = np.arange(num_edges, dtype=np.int64)
    lo = np.searchsorted(last_edges, edges, side="left")
    hi = np.searchsorted(first_edges, edges, side="right") - 1
    return lo, hi


def reduced_edge_arrays(
    beta: "np.ndarray",
    lo: "np.ndarray",
    hi: "np.ndarray",
    apply_reduction: bool = True,
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"]:
    """The non-redundant edge reduction on arrays.

    Returns ``(index, weight, first_prime, last_prime)`` column arrays in
    increasing edge order: uncovered edges dropped, and (under
    ``apply_reduction``) each run of identical ``(lo, hi)`` membership
    collapsed to its minimum-weight edge, leftmost on ties — the same
    tie-break as ``reduce_edges``.
    """
    covered = lo <= hi
    idx = np.flatnonzero(covered)
    if idx.shape[0] == 0 or not apply_reduction:
        return idx, beta[idx], lo[idx], hi[idx]
    lo_c, hi_c = lo[idx], hi[idx]
    # Membership intervals are monotone, so equal (lo, hi) pairs form
    # contiguous runs among the covered edges.
    boundary = np.empty(idx.shape[0], dtype=bool)
    boundary[0] = True
    boundary[1:] = (lo_c[1:] != lo_c[:-1]) | (hi_c[1:] != hi_c[:-1])
    starts = np.flatnonzero(boundary)
    weights = beta[idx]
    group_min = np.minimum.reduceat(weights, starts)
    group_of = np.cumsum(boundary) - 1
    # Leftmost position achieving the group minimum (strict-< update in
    # the reference keeps the first minimum it sees).
    positions = np.arange(idx.shape[0], dtype=np.int64)
    at_min = weights == group_min[group_of]
    sentinel = idx.shape[0]
    first_min = np.minimum.reduceat(
        np.where(at_min, positions, sentinel), starts
    )
    sel = idx[first_min]
    return sel, beta[sel], lo_c[first_min], hi_c[first_min]


def reduced_class_arrays(
    beta: "np.ndarray",
    first_tasks: "np.ndarray",
    last_tasks: "np.ndarray",
    num_edges: int,
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """Weight-only twin of :func:`reduced_edge_arrays`, built directly
    from the prime windows.

    The per-edge membership interval ``(lo, hi)`` is a pair of step
    functions of the edge index: ``lo`` increments at ``last_edges + 1 ==
    last_tasks`` and ``hi`` at ``first_edges == first_tasks``.  Merging
    the ~``2p`` breakpoints therefore yields every maximal run of equal
    ``(lo, hi)`` — the reduction classes — without materializing the
    ``O(n)`` per-edge arrays at all.  Each class's weight is its member
    minimum (``np.minimum.reduceat``), bit-identical to the
    minimum-weight representative :func:`reduced_edge_arrays` selects,
    because ``min`` over the same float multiset is order-independent.

    Returns ``(weight, first_prime, last_prime)`` — no representative
    edge index, which is exactly what the weight-only TEMP_S sweep
    (:func:`sweep_min_weight`) consumes.  Cut extraction still goes
    through :func:`reduced_edge_arrays`.
    """
    if first_tasks.shape[0] == 0:
        empty_f = np.empty(0, dtype=np.float64)
        empty_i = np.empty(0, dtype=np.int64)
        return empty_f, empty_i, empty_i
    boundaries = np.concatenate((first_tasks, last_tasks))
    boundaries.sort()
    if boundaries[-1] >= num_edges:  # repro-mutate: equivalent=flip-compare -- a final last_tasks == num_edges breakpoint opens an empty uncovered segment that the cover mask drops anyway
        boundaries = boundaries[boundaries < num_edges]
    keep = np.empty(boundaries.shape[0], dtype=bool)
    keep[0] = True
    keep[1:] = boundaries[1:] != boundaries[:-1]
    seg_starts = boundaries[keep]
    # Membership at each segment start; constant within the segment.
    last_edges = last_tasks - 1
    lo = np.searchsorted(last_edges, seg_starts, side="left")
    hi = np.searchsorted(first_tasks, seg_starts, side="right") - 1
    covered = lo <= hi
    class_min = np.minimum.reduceat(beta, seg_starts)
    return class_min[covered], lo[covered], hi[covered]


class ArrayPrimeStructure:
    """Array-backed drop-in for :class:`repro.core.prime_subpaths.PrimeStructure`.

    Exposes the same interface (``p``, ``r``, ``primes``, ``edges``,
    ``q_values``, ``q``, ``mean_prime_length``) but stores columns as
    ndarrays; the :class:`PrimeSubpath`/:class:`ReducedEdge` row lists
    are materialized lazily and cached, so the hot path (Algorithm 4.1
    iterating ``edges``) builds only ``r`` objects and the Figure-2
    statistics never build any.
    """

    __slots__ = (
        "chain",
        "bound",
        "first_tasks",
        "last_tasks",
        "prime_weights",
        "edge_index",
        "edge_weight",
        "edge_first",
        "edge_last",
        "_primes",
        "_edges",
    )

    def __init__(
        self,
        chain: Chain,
        bound: float,
        first_tasks: "np.ndarray",
        last_tasks: "np.ndarray",
        prime_weights: "np.ndarray",
        edge_index: "np.ndarray",
        edge_weight: "np.ndarray",
        edge_first: "np.ndarray",
        edge_last: "np.ndarray",
    ) -> None:
        self.chain = chain
        self.bound = bound
        self.first_tasks = first_tasks
        self.last_tasks = last_tasks
        self.prime_weights = prime_weights
        self.edge_index = edge_index
        self.edge_weight = edge_weight
        self.edge_first = edge_first
        self.edge_last = edge_last
        self._primes: Optional[list] = None
        self._edges: Optional[list] = None

    @property
    def p(self) -> int:
        return int(self.first_tasks.shape[0])

    @property
    def r(self) -> int:
        return int(self.edge_index.shape[0])

    @property
    def primes(self) -> list:
        if self._primes is None:
            from repro.core.prime_subpaths import PrimeSubpath

            self._primes = [
                PrimeSubpath(int(a), int(b), float(w))
                for a, b, w in zip(
                    self.first_tasks, self.last_tasks, self.prime_weights
                )
            ]
        return self._primes

    @property
    def edges(self) -> list:
        if self._edges is None:
            from repro.core.prime_subpaths import ReducedEdge

            self._edges = [
                ReducedEdge(int(j), float(w), int(lo), int(hi))
                for j, w, lo, hi in zip(
                    self.edge_index,
                    self.edge_weight,
                    self.edge_first,
                    self.edge_last,
                )
            ]
        return self._edges

    @property
    def q_values(self) -> List[int]:
        return (self.edge_last - self.edge_first + 1).tolist()

    @property
    def q(self) -> float:
        if self.r == 0:
            return 0.0
        return float(np.mean(self.edge_last - self.edge_first + 1))

    def mean_prime_length(self) -> float:
        if self.p == 0:
            return 0.0
        return float(np.mean(self.last_tasks - self.first_tasks + 1))

    def min_prime_weight(self) -> float:
        """Smallest prime-subpath weight — the exclusive upper end of the
        bound interval over which this structure stays valid (see
        :mod:`repro.engine.cache`); ``inf`` when there are no primes."""
        if self.p == 0:
            return float("inf")
        return float(self.prime_weights.min())

    def __repr__(self) -> str:
        return (
            f"ArrayPrimeStructure(n={self.chain.num_tasks}, "
            f"K={self.bound:g}, p={self.p}, r={self.r})"
        )


@complexity("n")
def compute_prime_structure_numpy(
    chain: Chain,
    bound: float,
    apply_reduction: bool = True,
    tracer: Optional["Tracer"] = None,
) -> ArrayPrimeStructure:
    """NumPy fast path for ``PrimeStructure.compute``, over the chain's
    own prefix and edge arrays.  Output rows are element-for-element
    identical to the pure-Python reference.

    An enabled ``tracer`` wraps the whole dispatch in a
    ``kernel_dispatch`` span (one per vectorized structure build —
    these are the engine's "kernel dispatch count") with ``p``/``r``
    attached; disabled tracing costs one branch.
    """
    if tracer is not None and tracer.enabled:
        with tracer.span(
            "kernel_dispatch", kernel="prime_structure", n=chain.num_tasks
        ) as span:
            structure = compute_prime_structure_numpy(
                chain, bound, apply_reduction=apply_reduction
            )
            span.set("p", structure.p)
            span.set("r", structure.r)
        return structure
    require_numpy()
    prefix, beta = prefix_array(chain), beta_array(chain)
    # Take the max from the authoritative per-task weights: differencing
    # the prefix array can be off by an ulp, which must not change
    # feasibility verdicts relative to the reference.
    validate_bound_array(chain.max_vertex_weight(), bound)
    first_tasks, last_tasks = prime_windows(prefix, bound)
    prime_weights = prefix[last_tasks + 1] - prefix[first_tasks]
    lo, hi = membership_intervals(
        first_tasks, last_tasks - 1, chain.num_edges
    )
    edge_index, edge_weight, edge_first, edge_last = reduced_edge_arrays(
        beta, lo, hi, apply_reduction=apply_reduction
    )
    return ArrayPrimeStructure(
        chain,
        bound,
        first_tasks,
        last_tasks,
        prime_weights,
        edge_index,
        edge_weight,
        edge_first,
        edge_last,
    )


@complexity("n + p log q")
def sweep_min_cut(
    edge_index: List[int],
    edge_weight: List[float],
    edge_first: List[int],
    edge_last: List[int],
) -> Tuple[List[int], float]:
    """Algorithm 4.1's TEMP_S sweep over flat columns — the fast path.

    Semantically identical to driving :class:`repro.core.temp_s.TempSQueue`
    with ``search="binary"`` (same float expressions, same comparisons,
    same tie handling), but engineered for the interpreter: rows live in
    parallel Python lists (no per-row objects), the W-column binary
    search is :func:`bisect.bisect_left` (C speed), and solutions are an
    append-only arena of ``(edge, prev, cumulative weight)`` columns
    instead of :class:`SolutionNode` allocations.  Returns the optimal
    cut's sorted edge indices and its weight.
    """
    # Solution arena: id -> (chain edge, previous solution id or -1,
    # cumulative cut weight).  W_j of the recurrence equals the new
    # node's cumulative weight, exactly as in the reference.
    sol_edge: List[int] = []
    sol_prev: List[int] = []
    sol_w: List[float] = []
    # TEMP_S rows, TOP..BOTTOM, as parallel columns.
    row_lo: List[int] = []
    row_hi: List[int] = []
    row_w: List[float] = []
    row_sol: List[int] = []
    # REPRO017: bound methods once — the same local-binding idiom
    # sweep_min_weight already uses for its row columns.
    push_lo = row_lo.append
    push_hi = row_hi.append
    push_w = row_w.append
    push_sol = row_sol.append
    push_edge = sol_edge.append
    push_prev = sol_prev.append
    push_sw = sol_w.append
    top = 0
    gamma = -1  # solution id of S_{first_prime - 1}; -1 = empty solution
    for j, bw, fp, lp in zip(edge_index, edge_weight, edge_first, edge_last):
        # Retire primes completed before this edge (pop_completed).
        size = len(row_lo)
        while top < size:
            if row_lo[top] >= fp:
                break
            gamma = row_sol[top]
            if row_hi[top] < fp:
                top += 1  # entire row retired
            else:
                row_lo[top] = fp  # trim and stop
                break
        if fp > 0 and gamma >= 0:  # repro-mutate: equivalent=flip-compare -- first primes are nondecreasing, so gamma is still -1 whenever fp == 0
            wv = bw + sol_w[gamma]
            prev = gamma
        else:
            wv = bw
            prev = -1
        sid = len(sol_edge)
        push_edge(j)
        push_prev(prev)
        push_sw(wv)
        # First row (from TOP) whose W >= wv; replace it and everything
        # below with one row carrying wv, then open new subpaths.
        size = len(row_w)
        split = bisect_left(row_w, wv, top, size)
        if split < size:
            bottom_hi = row_hi[-1]
            row_hi[split] = bottom_hi if bottom_hi > lp else lp  # repro-mutate: equivalent=flip-compare -- max() tie: both branches store the same hi
            row_w[split] = wv
            row_sol[split] = sid
            if split + 1 < size:  # repro-mutate: equivalent=flip-compare -- deleting the empty slice [size:] is a no-op
                del row_lo[split + 1 :]
                del row_hi[split + 1 :]
                del row_w[split + 1 :]
                del row_sol[split + 1 :]
        elif top >= size:
            # Queue drained: anchor a fresh row at this edge's range.
            push_lo(fp)
            push_hi(lp)
            push_w(wv)
            push_sol(sid)
        elif lp > row_hi[-1]:
            push_lo(row_hi[-1] + 1)
            push_hi(lp)
            push_w(wv)
            push_sol(sid)
        # else: wv exceeds every open minimum and opens nothing — no-op.
    if top >= len(row_lo):
        return [], 0.0
    # Solution S_p sits in the BOTTOM row; materialize its edge chain.
    final = row_sol[-1]
    weight = row_w[-1]
    cut: List[int] = []
    while final >= 0:
        cut.append(sol_edge[final])
        final = sol_prev[final]
    cut.reverse()
    return cut, weight


@complexity("n + p log q")
def sweep_min_weight(
    edge_weight: List[float],
    edge_first: List[int],
    edge_last: List[int],
    head_edges: int,
) -> float:
    """Weight of the optimal cut — :func:`sweep_min_cut` minus the cut.

    The multi-query sweeps in :mod:`repro.engine.plan` only need the
    bandwidth per bound (cuts are reconstructed on demand), and dropping
    the solution arena plus per-row solution ids makes this the hottest
    loop's cheapest faithful form: every float expression, comparison
    and tie-break below mirrors :func:`sweep_min_cut` term for term, so
    the returned weight is bit-identical to the reference's.

    ``head_edges`` is the count of leading edges whose first prime is 0
    (``edge_first`` is nondecreasing, so they form a prefix; callers
    compute it with one ``searchsorted``).  For those edges the retire
    loop cannot run (no row starts below prime 0) and the recurrence has
    no predecessor term, so the loop body skips both — same arithmetic,
    fewer branches.
    """
    row_lo: List[int] = []
    row_hi: List[int] = []
    row_w: List[float] = []
    push_lo = row_lo.append
    push_hi = row_hi.append
    push_w = row_w.append
    top = 0
    size = 0
    gamma_w = 0.0  # cumulative weight of S_{first_prime - 1}; 0 = empty
    last_w = 0.0  # row_w[-1] / row_hi[-1], tracked to keep the hot
    last_hi = -1  # branches off the list objects
    t = 0
    for bw, fp, lp in zip(edge_weight, edge_first, edge_last):
        if t < head_edges:
            wv = bw  # fp == 0: nothing to retire, no predecessor
        else:
            while top < size:
                if row_lo[top] >= fp:
                    break
                gamma_w = row_w[top]
                if row_hi[top] < fp:
                    top += 1  # entire row retired
                else:
                    row_lo[top] = fp  # trim and stop
                    break
            wv = bw + gamma_w
        t += 1
        # First row (from TOP) whose W >= wv; replace it and everything
        # below with one row carrying wv, then open new subpaths.  The
        # bottom row holds the column maximum, so ``last_w < wv`` means
        # the binary search would land past the end — skip it.
        if (
            top < size
            and last_w >= wv  # repro-mutate: equivalent=flip-compare -- a last_w == wv tie replaces the bottom row with its own W; routing it through the extend branch opens a second row at the same W, which retire and replace read identically
        ):
            split = size - 1
            if split > top and row_w[split - 1] >= wv:  # repro-mutate: equivalent=flip-compare -- at split == top the bisect over an empty range returns the same split, and splitting a run of equal-W rows is weight-inert (retire and replace read only W)
                # Rare: wv displaces more than the bottom row.
                split = bisect_left(row_w, wv, top, split)
                del row_lo[split + 1 :]
                del row_hi[split + 1 :]
                del row_w[split + 1 :]
                size = split + 1
            if last_hi < lp:  # repro-mutate: equivalent=flip-compare -- max() tie: both branches store the same hi
                last_hi = lp
            row_hi[split] = last_hi
            row_w[split] = wv
            last_w = wv
        elif top >= size:
            # Queue drained: anchor a fresh row at this edge's range.
            push_lo(fp)
            push_hi(lp)
            push_w(wv)
            size += 1
            last_w = wv
            last_hi = lp
        elif lp > last_hi:
            push_lo(last_hi + 1)
            push_hi(lp)
            push_w(wv)
            size += 1
            last_w = wv
            last_hi = lp
        # else: wv exceeds every open minimum and opens nothing — no-op.
    if top >= size:  # repro-mutate: equivalent=flip-compare -- every loop iteration leaves a live row, so top == size only on empty input, where last_w is still 0.0
        return 0.0
    return last_w


@complexity("n + p log q")
def bandwidth_sweep(structure: Any) -> Tuple[List[int], float]:
    """Run the fast sweep over a prime structure (array-backed or not).

    Accepts either an :class:`ArrayPrimeStructure` (columns converted
    via ``.tolist()`` — no per-edge objects ever built) or the reference
    :class:`~repro.core.prime_subpaths.PrimeStructure`.
    """
    if isinstance(structure, ArrayPrimeStructure):
        return sweep_min_cut(
            structure.edge_index.tolist(),
            structure.edge_weight.tolist(),
            structure.edge_first.tolist(),
            structure.edge_last.tolist(),
        )
    edges = structure.edges
    return sweep_min_cut(
        [e.index for e in edges],
        [e.weight for e in edges],
        [e.first_prime for e in edges],
        [e.last_prime for e in edges],
    )


def feasible_components(
    prefix: "np.ndarray", cut_indices: Sequence[int], bound: float
) -> bool:
    """Vectorized feasibility check: every block induced by the cut
    weighs at most ``bound`` (subtraction-form comparisons, as always)."""
    require_numpy()
    n = prefix.shape[0] - 1
    cut = np.asarray(sorted(set(int(i) for i in cut_indices)), dtype=np.int64)
    los = np.concatenate(([0], cut + 1))
    his = np.concatenate((cut, [n - 1]))
    return bool(np.all(prefix[his + 1] - prefix[los] <= bound))
