"""Dynamic fault injection: raise at each acquire/IO point, certify recovery.

The static pass (:mod:`repro.verify.faultflow`) proves exception paths
*look* disciplined; this module checks the discipline actually works.
A :class:`FaultInjectionHarness` monkeypatches one instrumented
acquire/IO point at a time to raise :class:`InjectedFault`, drives the
engine or observability stack through the failure, and then certifies
with exact invariants that the system recovered:

- **locks released** — the cache/plan/hub locks can be acquired *from
  another thread* after the fault unwound (same-thread probes lie on
  an ``RLock``: reentrant acquisition always succeeds);
- **bit-identical re-solve** — the engine answers the canonical query
  with exactly the reference ``(weight, cut_indices)`` afterwards, and
  the answer still passes the O(n) paper certificate
  (:func:`repro.verify.certificates.check_chain_partition`) — the
  paper's reproducibility claim survives the crash-recovery path;
- **sinks resume** — a :class:`~repro.observability.live.StreamingJsonlSink`
  torn mid-write leaves exactly one torn tail, ``resume=True`` appends
  past it without a second header, and
  :func:`repro.observability.export.read_trace` reads the stream with
  the documented torn-tail ``UserWarning``;
- **no leaked handles** — a failed sink construction closes the file
  handle it just opened.

Every injection is performed by :meth:`FaultInjectionHarness.inject`, a
context manager that patches one ``(namespace, attribute)`` and always
restores it, raising at the chosen call ordinals.  Scenario functions
(``certify_*``) each return a summary dict of what was verified; they
raise :class:`FaultInjectionError` on any violation.
:func:`certify_all` runs every scenario and asserts the injected-site
count the acceptance criteria demand (>= 10 distinct sites).
"""

from __future__ import annotations

import io
import json
import threading
import warnings
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.graphs.chain import Chain


class InjectedFault(Exception):
    """The exception every injection site raises — never caught by
    accident: nothing in the library catches it by type."""


class FaultInjectionError(AssertionError):
    """A fault scenario violated a recovery invariant."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise FaultInjectionError(message)


def _lock_released(lock: Any, timeout: float = 2.0) -> bool:
    """Can ``lock`` be acquired from *another* thread?

    An ``RLock`` always lets the owning thread re-acquire, so a
    same-thread probe cannot distinguish "released" from "held by me";
    the probe thread can.
    """
    acquired: List[bool] = []

    def probe() -> None:
        got = lock.acquire(timeout=timeout)
        if got:
            lock.release()
        acquired.append(got)

    worker = threading.Thread(target=probe, name="fault-lock-probe")
    worker.start()
    worker.join(timeout + 1.0)
    return bool(acquired) and acquired[0]


#: The canonical workload every engine scenario re-solves after its
#: fault: deterministic, small enough to be instant, large enough that
#: a wrong cut is visible.
def _canonical_chain() -> Chain:
    alpha = [((7 * i) % 13) + 1.0 for i in range(60)]
    beta = [((5 * i) % 7) + 1.0 for i in range(59)]
    return Chain(alpha, beta)


_CANONICAL_BOUND = 40.0


class FaultInjectionHarness:
    """Inject one fault at a time; certify recovery after each.

    Parameters
    ----------
    backend:
        Engine backend each scenario constructs engines with
        (``"numpy"`` when available, else ``"python"``).
    fail_on_call:
        Which call ordinal (1-based) of the patched target raises.  The
        default faults the *first* call — the earliest point a raise
        can escape.
    """

    __slots__ = ("backend", "fail_on_call", "injected_sites")

    def __init__(self, backend: Optional[str] = None,
                 fail_on_call: int = 1) -> None:
        if fail_on_call < 1:
            raise ValueError(
                f"fail_on_call is a 1-based ordinal, got {fail_on_call}"
            )
        if backend is None:
            from repro.engine import HAVE_NUMPY

            backend = "numpy" if HAVE_NUMPY else "python"
        self.backend = backend
        self.fail_on_call = fail_on_call
        #: ``"namespace.attr"`` labels of every site this harness has
        #: injected so far — the acceptance criterion counts these.
        self.injected_sites: List[str] = []

    # ------------------------------------------------------------------
    # The injection primitive
    # ------------------------------------------------------------------
    @contextmanager
    def inject(
        self,
        namespace: Any,
        attribute: str,
        *,
        calls: Optional[Tuple[int, ...]] = None,
        wrap: Optional[Callable[..., Any]] = None,
    ) -> Iterator[Dict[str, int]]:
        """Patch ``namespace.attribute`` to raise :class:`InjectedFault`.

        ``calls`` lists the 1-based call ordinals that raise (default:
        ``(self.fail_on_call,)``); other calls pass through to the real
        target.  ``wrap`` replaces the raise with a custom wrapper
        ``wrap(real, *args, **kwargs)`` for partial-failure faults
        (e.g. tear a write halfway).  Yields a counter dict whose
        ``"calls"`` entry reports how many times the site was hit; the
        original attribute is always restored.
        """
        fail_at = calls if calls is not None else (self.fail_on_call,)
        real = getattr(namespace, attribute)
        counter = {"calls": 0}

        def patched(*args: Any, **kwargs: Any) -> Any:
            counter["calls"] += 1
            if wrap is not None:
                return wrap(real, counter["calls"], *args, **kwargs)
            if counter["calls"] in fail_at:
                raise InjectedFault(
                    f"injected fault at {attribute} "
                    f"(call {counter['calls']})"
                )
            return real(*args, **kwargs)

        setattr(namespace, attribute, patched)
        label = f"{getattr(namespace, '__name__', type(namespace).__name__)}.{attribute}"
        try:
            yield counter
        finally:
            setattr(namespace, attribute, real)
        _require(
            counter["calls"] > 0,
            f"injection site {label} was never reached — the scenario "
            "certifies nothing",
        )
        self.injected_sites.append(label)

    # ------------------------------------------------------------------
    # Shared recovery certificates
    # ------------------------------------------------------------------
    def _fresh_engine(self, **kwargs: Any) -> Any:
        from repro.engine import PartitionEngine

        return PartitionEngine(backend=self.backend, **kwargs)

    def _reference_answer(self) -> Tuple[float, List[int]]:
        engine = self._fresh_engine()
        result = engine.solve(_canonical_chain(), _CANONICAL_BOUND)
        return float(result.weight), list(result.cut_indices)

    def _certify_recovered(self, engine: Any, context: str) -> None:
        """The canonical query answers bit-identically after the fault."""
        from repro.verify.certificates import check_chain_partition

        chain = _canonical_chain()
        result = engine.solve(chain, _CANONICAL_BOUND)
        weight, cuts = self._reference_answer()
        _require(
            float(result.weight) == weight
            and list(result.cut_indices) == cuts,
            f"{context}: re-solve after the fault is not bit-identical "
            f"({result.weight!r}, {result.cut_indices!r}) != "
            f"({weight!r}, {cuts!r})",
        )
        report = check_chain_partition(
            chain, result.cut_indices, _CANONICAL_BOUND,
            claimed_weight=result.weight,
        )
        _require(
            report.ok,
            f"{context}: post-fault answer fails the paper certificate: "
            f"{report!r}",
        )


# ----------------------------------------------------------------------
# Engine scenarios
# ----------------------------------------------------------------------


@contextmanager
def _python_kernels(backend: str) -> Iterator[None]:
    """Run the body on the cache's Python-kernel miss path.

    On the NumPy backend a binary-search miss normally goes to the
    native fused kernel; with :func:`repro.engine.native.load` patched
    to return ``None`` (as when no compiler is available) the miss
    builds the NumPy structure and runs the Python sweep, so the
    structure and sweep injection sites are reached.
    """
    if backend != "numpy":
        yield
        return
    from repro.engine import native

    real = native.load
    native.load = lambda: None
    try:
        yield
    finally:
        native.load = real


def _native_available(backend: str) -> bool:
    if backend != "numpy":
        return False
    from repro.engine import native

    return native.load() is not None


def certify_structure_compute_fault(
    harness: FaultInjectionHarness,
) -> Dict[str, Any]:
    """Fault the prime-structure build inside the cache lock.

    The structure kernel raising mid-solve must leave the cache lock
    released, the cache entry un-poisoned, and the next solve of the
    same query bit-identical.
    """
    import repro.engine.cache as cache_mod
    from repro.engine import kernels

    engine = harness._fresh_engine()

    if harness.backend == "numpy":
        namespace: Any = kernels
        attribute = "compute_prime_structure_numpy"
    else:
        namespace = cache_mod
        attribute = "compute_prime_structure"
    with _python_kernels(harness.backend):
        with harness.inject(namespace, attribute):
            try:
                engine.solve(_canonical_chain(), _CANONICAL_BOUND)
            except InjectedFault:
                pass
            else:
                raise FaultInjectionError(
                    "structure fault was swallowed instead of propagating"
                )
        _require(
            _lock_released(engine.cache._lock),
            "cache lock still held after a structure-build fault",
        )
        harness._certify_recovered(engine, "structure-build fault")
    return {"site": attribute, "recovered": True}


def certify_sweep_kernel_fault(
    harness: FaultInjectionHarness,
) -> Dict[str, Any]:
    """Fault the bandwidth sweep while the cache lock is held."""
    from repro.engine import kernels

    engine = harness._fresh_engine()
    # ``_solve_impl`` imports the sweep lazily on every binary-search
    # solve that misses without the native kernel (both backends), so
    # patching the kernels module attribute injects right inside the
    # ``with self._lock`` region.
    with _python_kernels(harness.backend):
        with harness.inject(kernels, "bandwidth_sweep"):
            try:
                engine.solve(_canonical_chain(), _CANONICAL_BOUND)
            except InjectedFault:
                pass
            else:
                raise FaultInjectionError("sweep fault was swallowed")
        _require(
            _lock_released(engine.cache._lock),
            "cache lock still held after a sweep-kernel fault",
        )
        harness._certify_recovered(engine, "sweep-kernel fault")
    return {"site": "bandwidth_sweep", "recovered": True}


def certify_plan_compile_fault(
    harness: FaultInjectionHarness,
) -> Dict[str, Any]:
    """Fault plan compilation inside the plan-cache lock.

    ``PlanCache.get`` compiles under ``_lock``; the compile raising
    must release the lock and must not cache a half-built plan.
    """
    import repro.engine.cache as cache_mod
    from repro.engine import HAVE_NUMPY

    engine = harness._fresh_engine()
    chain = _canonical_chain()
    bounds = [_CANONICAL_BOUND, _CANONICAL_BOUND + 8.0]
    with harness.inject(cache_mod, "compile_chain"):
        try:
            if engine.backend == "numpy":
                # The batched sweep routes through the plan cache.
                engine.solve_sweep(chain, bounds)
            else:
                # The python sweep degrades to per-call solves, so hit
                # the plan cache directly — the compile faults before
                # any NumPy work, so this runs on every install.
                engine.plans.get(chain)
        except InjectedFault:
            pass
        else:
            raise FaultInjectionError("plan-compile fault was swallowed")
    _require(
        _lock_released(engine.plans._lock),
        "plan-cache lock still held after a compile fault",
    )
    _require(
        len(engine.plans) == 0,
        "a half-built plan was cached despite the compile fault",
    )
    if HAVE_NUMPY:
        # A clean compile must now succeed and agree with per-query
        # solves (compiled plans are NumPy-backed regardless of the
        # engine backend).
        plan = engine.plans.get(chain)
        weights = plan.solve_bounds(bounds)
        for bound, weight in zip(bounds, weights):
            solo = engine.solve(chain, bound)
            _require(
                float(weight) == float(solo.weight),
                f"post-fault sweep weight {weight!r} != solo "
                f"{solo.weight!r} at bound {bound}",
            )
    harness._certify_recovered(engine, "plan-compile fault")
    return {"site": "compile_chain", "recovered": True}


def certify_batch_query_fault(
    harness: FaultInjectionHarness,
) -> Dict[str, Any]:
    """Fault one query of a batch; the error must land on it alone.

    The engine's documented contract: a failing query yields a
    ``QueryResult`` with ``error`` set while every other query solves,
    and a clean re-run of the whole batch is bit-identical to a
    never-faulted engine's run.
    """
    import repro.engine.batch as batch_mod
    from repro.core.feasibility import PartitioningError
    from repro.engine import PartitionQuery

    chain = _canonical_chain()
    queries = [
        PartitionQuery.from_chain(chain, _CANONICAL_BOUND + 4.0 * i,
                                  tag=f"q{i}")
        for i in range(4)
    ]

    real_solve_one = batch_mod._solve_one
    state = {"calls": 0}

    def failing_solve_one(*args: Any, **kwargs: Any) -> Any:
        state["calls"] += 1
        if state["calls"] == 2:
            raise PartitioningError("injected per-query fault")
        return real_solve_one(*args, **kwargs)

    engine = harness._fresh_engine()
    with harness.inject(
        batch_mod, "_solve_one",
        wrap=lambda real, n, *a, **k: failing_solve_one(*a, **k),
    ):
        faulted = engine.solve_many(queries, max_workers=0, use_plans=False)
    errored = [r for r in faulted if r.error is not None]
    _require(
        len(errored) == 1 and errored[0].index == 1,
        f"the injected fault did not land on query 1 alone: "
        f"{[(r.index, r.error) for r in faulted]}",
    )
    _require(
        all(r.error is None for r in faulted if r.index != 1),
        "a neighbouring query was poisoned by the injected fault",
    )
    clean = engine.solve_many(queries, max_workers=0, use_plans=False)
    reference = harness._fresh_engine().solve_many(
        queries, max_workers=0, use_plans=False
    )
    for after, ref in zip(clean, reference):
        _require(
            after.error is None
            and after.weight == ref.weight
            and after.cut_indices == ref.cut_indices,
            f"post-fault batch re-run differs on query {ref.index}: "
            f"({after.weight!r}, {after.cut_indices!r}) != "
            f"({ref.weight!r}, {ref.cut_indices!r})",
        )
    harness._certify_recovered(engine, "per-query batch fault")
    return {"site": "_solve_one", "errored_query": 1, "recovered": True}


def certify_hub_subscriber_fault(
    harness: FaultInjectionHarness,
) -> Dict[str, Any]:
    """A subscriber raising mid-solve must be isolated, not fatal.

    The hub's contract: the raising subscriber is dropped, the failure
    is recorded in ``hub.errors``, the hub lock is released, and the
    solve (plus a bit-identical re-solve) completes untouched.
    """
    from repro.observability.live import TelemetryHub

    class _Bomb:
        def emit(self, event: Dict[str, Any]) -> None:
            raise InjectedFault("injected subscriber fault")

        def close(self) -> None:  # pragma: no cover - never reached
            pass

    hub = TelemetryHub()
    bomb = _Bomb()
    hub.subscribe(bomb)
    engine = harness._fresh_engine(hub=hub)
    result = engine.solve(_canonical_chain(), _CANONICAL_BOUND)
    _require(result.weight > 0, "solve under a raising subscriber failed")
    _require(
        bomb not in hub.subscribers,
        "the raising subscriber was not dropped",
    )
    _require(
        any("InjectedFault" in err or "_Bomb" in err for err in hub.errors),
        f"the subscriber fault was not recorded: {hub.errors!r}",
    )
    _require(
        _lock_released(hub._lock),
        "hub lock still held after a subscriber fault",
    )
    harness._certify_recovered(engine, "hub-subscriber fault")
    harness.injected_sites.append("TelemetrySubscriber.emit")
    return {"site": "subscriber.emit", "dropped": True, "recovered": True}


# ----------------------------------------------------------------------
# Observability scenarios
# ----------------------------------------------------------------------


class _FaultyHandle:
    """Proxy around a sink's real file handle with injectable faults.

    ``io.TextIOWrapper`` is a C type, so its methods cannot be patched;
    the harness swaps the sink's ``_fh`` for this proxy instead — the
    same injection idea, one indirection earlier.
    """

    __slots__ = ("_real", "_tear_write_at", "_fail_flush_at",
                 "writes", "flushes")

    def __init__(self, real: Any, *, tear_write_at: int = 0,
                 fail_flush_at: int = 0) -> None:
        self._real = real
        self._tear_write_at = tear_write_at
        self._fail_flush_at = fail_flush_at
        self.writes = 0
        self.flushes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        if self.writes == self._tear_write_at:
            # Half the bytes land (the OS accepted a short write), then
            # the device fails — the canonical disk-full torn record.
            self._real.write(text[: len(text) // 2])
            self._real.flush()
            raise InjectedFault("injected torn write (disk full)")
        return self._real.write(text)

    def flush(self) -> None:
        self.flushes += 1
        if self.flushes == self._fail_flush_at:
            raise InjectedFault("injected flush fault")
        self._real.flush()

    def close(self) -> None:
        self._real.close()


def _is_json(line: str) -> bool:
    try:
        json.loads(line)
    except json.JSONDecodeError:
        return False
    return True


def certify_sink_torn_write(
    harness: FaultInjectionHarness, *, sink_path: str
) -> Dict[str, Any]:
    """Tear a sink write mid-line; certify resume past the torn tail.

    The crash-safety contract of :class:`StreamingJsonlSink` +
    :func:`read_trace`: a mid-write ``OSError`` leaves exactly one torn
    final line, ``read_trace`` on the torn file warns (``UserWarning``)
    and returns the committed prefix, and a ``resume=True`` reopen
    truncates the never-committed tail and appends complete records
    with no second header — the resumed trace is fully well-formed.
    """
    from repro.observability.export import read_trace
    from repro.observability.live import StreamingJsonlSink

    sink = StreamingJsonlSink(sink_path, meta={"source": "fault-harness"})
    sink.emit({"kind": "event", "event": "solve", "seq": 0})

    proxy = _FaultyHandle(sink._fh, tear_write_at=1)
    sink._fh, real_fh = proxy, sink._fh
    try:
        try:
            sink.emit({"kind": "event", "event": "solve", "seq": 1,
                       "pad": "x" * 64})
        except InjectedFault:
            pass
        else:
            raise FaultInjectionError("torn write was swallowed")
    finally:
        sink._fh = real_fh
    _require(proxy.writes == 1, "the torn-write site was never reached")
    _require(
        _lock_released(sink._lock),
        "sink lock still held after a torn write",
    )
    sink.close()
    harness.injected_sites.append("StreamingJsonlSink._fh.write")

    with open(sink_path, "r", encoding="utf-8") as fh:
        torn_lines = fh.read().splitlines()
    _require(
        len(torn_lines) == 3 and not _is_json(torn_lines[2]),
        f"expected a torn third line, got {torn_lines!r}",
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        torn_records = read_trace(sink_path)
    _require(
        any(
            issubclass(w.category, UserWarning)
            and "torn tail" in str(w.message)
            for w in caught
        ),
        "read_trace did not warn about the torn tail",
    )
    _require(
        len(torn_records) == 2 and torn_records[1]["seq"] == 0,
        f"torn-tail read kept the wrong records: {torn_records!r}",
    )

    resumed = StreamingJsonlSink(sink_path, resume=True)
    resumed.emit({"kind": "event", "event": "solve", "seq": 2})
    resumed.close()

    records = read_trace(sink_path)  # must parse clean end to end now
    headers = [r for r in records if r.get("kind") == "meta"]
    _require(
        len(headers) == 1,
        f"resume wrote a second header ({len(headers)} meta records)",
    )
    _require(
        [r["seq"] for r in records if r.get("event") == "solve"] == [0, 2],
        f"resume did not continue cleanly past the torn tail: {records!r}",
    )
    return {
        "site": "StreamingJsonlSink._fh.write",
        "torn_line": 3,
        "resumed_records": len(records),
    }


def certify_sink_flush_fault(
    harness: FaultInjectionHarness, *, sink_path: str
) -> Dict[str, Any]:
    """An ``OSError`` on flush must leave the sink closeable and the
    already-committed prefix parseable."""
    from repro.observability.live import StreamingJsonlSink

    sink = StreamingJsonlSink(sink_path)
    sink.emit({"kind": "event", "event": "solve", "seq": 0})

    proxy = _FaultyHandle(sink._fh, fail_flush_at=1)
    sink._fh, real_fh = proxy, sink._fh
    try:
        try:
            sink.emit({"kind": "event", "event": "solve", "seq": 1})
        except InjectedFault:
            pass
        else:
            raise FaultInjectionError("flush fault was swallowed")
    finally:
        sink._fh = real_fh
    _require(proxy.flushes == 1, "the flush site was never reached")
    _require(
        _lock_released(sink._lock),
        "sink lock still held after a flush fault",
    )
    sink.close()
    harness.injected_sites.append("StreamingJsonlSink._fh.flush")
    with open(sink_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh.read().splitlines()[:2], 1):
            _require(
                _is_json(line),
                f"committed prefix line {lineno} does not parse: {line!r}",
            )
    return {"site": "StreamingJsonlSink._fh.flush", "closeable": True}


def _raise_injected() -> None:
    raise InjectedFault("injected fault")


def certify_sink_init_fault(
    harness: FaultInjectionHarness, *, sink_path: str
) -> Dict[str, Any]:
    """A failed header write during construction must not leak the
    just-opened handle (the REPRO020 finding this PR fixed)."""
    from repro.observability import live as live_mod

    opened: List[Any] = []
    real_open = io.open

    def spying_open(*args: Any, **kwargs: Any) -> Any:
        handle = real_open(*args, **kwargs)
        opened.append(handle)
        return handle

    with harness.inject(
        live_mod.StreamingJsonlSink, "_write_line",
        wrap=lambda real, call, *a, **k: _raise_injected(),
    ):
        live_mod.io.open = spying_open  # type: ignore[assignment]
        try:
            live_mod.StreamingJsonlSink(sink_path)
        except InjectedFault:
            pass
        else:
            raise FaultInjectionError("header-write fault was swallowed")
        finally:
            live_mod.io.open = real_open  # type: ignore[assignment]
    _require(len(opened) == 1, "the constructor never opened the file")
    _require(
        opened[0].closed,
        "a failed sink construction leaked its file handle",
    )
    return {"site": "StreamingJsonlSink._write_line", "leaked": False}


def certify_hub_close_fault(
    harness: FaultInjectionHarness, *, sink_path: str
) -> Dict[str, Any]:
    """A subscriber whose ``close`` raises must not wedge the hub lock
    or prevent the other subscribers from being closed directly."""
    from repro.observability.live import StreamingJsonlSink, TelemetryHub

    class _CloseBomb:
        def emit(self, event: Dict[str, Any]) -> None:
            pass

        def close(self) -> None:
            raise InjectedFault("injected close fault")

    sink = StreamingJsonlSink(sink_path)
    hub = TelemetryHub(subscribers=(_CloseBomb(), sink))
    hub.publish({"kind": "event", "event": "solve", "seq": 0})
    try:
        hub.close()
    except InjectedFault:
        pass
    else:
        raise FaultInjectionError("close fault was swallowed")
    _require(
        _lock_released(hub._lock),
        "hub lock still held after a close fault",
    )
    sink.close()  # direct close must still work
    with open(sink_path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    _require(
        all(_is_json(ln) for ln in lines),
        "the sink file was corrupted by the hub close fault",
    )
    harness.injected_sites.append("TelemetrySubscriber.close")
    return {"site": "subscriber.close", "lock_released": True}


def certify_tracer_span_fault(
    harness: FaultInjectionHarness,
) -> Dict[str, Any]:
    """An exception inside a span body must close the span and leave
    the tracer reusable, with the engine still bit-identical."""
    from repro.observability.spans import Tracer

    tracer = Tracer(enabled=True)
    try:
        with tracer.span("faulted-phase", n=60):
            raise InjectedFault("injected span-body fault")
    except InjectedFault:
        pass
    else:
        raise FaultInjectionError("span-body fault was swallowed")
    _require(
        not tracer._stack,
        "the faulted span was left open on the tracer stack",
    )
    with tracer.span("recovery-phase"):
        pass
    _require(
        len(tracer.roots) == 2,
        f"tracer unusable after a span fault: {len(tracer.roots)} roots",
    )
    engine = harness._fresh_engine(tracer=tracer)
    harness._certify_recovered(engine, "tracer span fault")
    harness.injected_sites.append("Span.body")
    return {"site": "span.body", "spans_closed": True, "recovered": True}


def certify_traced_solve_fault(
    harness: FaultInjectionHarness,
) -> Dict[str, Any]:
    """Fault a solve *under an enabled tracer*: the span stack must
    unwind with the solve and the next traced solve must succeed.

    With the native kernel available the fault is raised inside its
    ``kernel_dispatch`` span, at :func:`repro.engine.native.fused_solve`.
    """
    import repro.engine.cache as cache_mod
    from repro.engine import kernels
    from repro.observability.spans import Tracer

    tracer = Tracer(enabled=True)
    engine = harness._fresh_engine(tracer=tracer)
    if _native_available(harness.backend):
        from repro.engine import native

        namespace: Any = native
        attribute = "fused_solve"
    elif harness.backend == "numpy":
        namespace = kernels
        attribute = "compute_prime_structure_numpy"
    else:
        namespace = cache_mod
        attribute = "compute_prime_structure"
    with harness.inject(namespace, attribute):
        try:
            engine.solve(_canonical_chain(), _CANONICAL_BOUND)
        except InjectedFault:
            pass
        else:
            raise FaultInjectionError("traced-solve fault was swallowed")
    _require(
        not tracer._stack,
        "the faulted traced solve left spans open",
    )
    harness._certify_recovered(engine, "traced-solve fault")
    return {"site": f"{attribute} (traced)", "recovered": True}


def certify_metrics_observe_fault(
    harness: FaultInjectionHarness,
) -> Dict[str, Any]:
    """Fault a histogram observation mid-solve; the registry lock must
    release and later observations must land."""
    from repro.observability.metrics import Histogram, MetricsRegistry

    registry = MetricsRegistry()
    hist = registry.histogram("fault_latency_seconds")
    hist.observe(0.25)
    with harness.inject(
        Histogram, "observe",
        wrap=lambda real, call, *a, **k: (_raise_injected() if call == 1
                                          else real(*a, **k)),
    ):
        try:
            hist.observe(0.5)
        except InjectedFault:
            pass
        else:
            raise FaultInjectionError("observe fault was swallowed")
        hist.observe(0.75)
    _require(
        _lock_released(hist._lock),
        "histogram lock still held after an observe fault",
    )
    _require(
        hist.count == 2,
        f"post-fault observation lost: count={hist.count}",
    )
    return {"site": "Histogram.observe", "count": hist.count}


# ----------------------------------------------------------------------
# The acceptance entry point
# ----------------------------------------------------------------------


def certify_all(
    harness: FaultInjectionHarness, *, sink_dir: str
) -> Dict[str, Any]:
    """Run every fault scenario; assert the acceptance site count.

    ``sink_dir`` is a directory for the sink scenarios' trace files
    (a pytest ``tmp_path`` in the tests).
    """
    import os

    summaries: Dict[str, Any] = {
        "structure": certify_structure_compute_fault(harness),
        "sweep": certify_sweep_kernel_fault(harness),
        "plan_compile": certify_plan_compile_fault(harness),
        "batch_query": certify_batch_query_fault(harness),
        "hub_subscriber": certify_hub_subscriber_fault(harness),
        "sink_torn_write": certify_sink_torn_write(
            harness, sink_path=os.path.join(sink_dir, "torn.jsonl")
        ),
        "sink_flush": certify_sink_flush_fault(
            harness, sink_path=os.path.join(sink_dir, "flush.jsonl")
        ),
        "sink_init": certify_sink_init_fault(
            harness, sink_path=os.path.join(sink_dir, "init.jsonl")
        ),
        "hub_close": certify_hub_close_fault(
            harness, sink_path=os.path.join(sink_dir, "close.jsonl")
        ),
        "tracer_span": certify_tracer_span_fault(harness),
        "traced_solve": certify_traced_solve_fault(harness),
        "metrics_observe": certify_metrics_observe_fault(harness),
    }
    distinct = sorted(set(harness.injected_sites))
    _require(
        len(distinct) >= 10,
        f"acceptance requires >= 10 distinct injected sites, got "
        f"{len(distinct)}: {distinct}",
    )
    summaries["sites"] = distinct
    return summaries
