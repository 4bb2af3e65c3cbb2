"""Outside-in layer timer for the traced benchmark runs.

The program gets no instrumentation.  :meth:`LayerTimer.install` replaces
the public functions of each layer, in every loaded ``repro`` namespace
that binds them, with wrappers that keep a span stack; a layer's *self*
time is its span's duration minus the spans it encloses.  A call into a
layer from inside the same layer (``bandwidth_sweep`` calling
``sweep_min_cut``) is part of the outer span.  :meth:`LayerTimer.restore`
puts every original object back.

The program's own ``Tracer`` is not used: an enabled tracer turns off plan
routing in ``PartitionEngine._solve_serial``, so that run would measure a
different program.

Pool workers are forked with the wrappers in place.  The timed pool class
gives each worker an initializer that clears the copy of the parent's
numbers and writes the worker's own at exit; the parent merges them under
``workers`` once the pool has shut down.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import sys
import tempfile
from collections import defaultdict
from multiprocessing import util as mp_util
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(defining module, attribute path, layer)`` of every timed entry point.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.engine.batch", "PartitionQuery.from_json", "ingest.parse"),
    ("repro.engine.batch", "QueryResult.to_json", "batch.serialize"),
    ("repro.engine.batch", "PartitionEngine.solve_many", "batch.solve_many"),
    ("repro.engine.batch", "PartitionEngine.solve", "engine.solve"),
    ("repro.graphs.chain", "Chain.__init__", "chain.build"),
    ("repro.graphs.chain", "Chain.fingerprint", "chain.fingerprint"),
    ("repro.engine.cache", "PrimeStructureCache.solve", "cache.solve"),
    ("repro.engine.cache", "PlanCache.get", "plan.get"),
    ("repro.engine.plan", "CompiledChainPlan.solve_bounds", "plan.solve_bounds"),
    ("repro.engine.kernels", "prefix_array", "kernels.arrays"),
    ("repro.engine.kernels", "beta_array", "kernels.arrays"),
    ("repro.engine.kernels", "compute_prime_structure_numpy", "kernels.structure"),
    # The plan inlines the structure pipeline from these kernels.
    ("repro.engine.kernels", "prime_windows", "kernels.structure"),
    ("repro.engine.kernels", "membership_intervals", "kernels.structure"),
    ("repro.engine.kernels", "reduced_edge_arrays", "kernels.structure"),
    ("repro.engine.kernels", "reduced_class_arrays", "kernels.structure"),
    ("repro.engine.kernels", "bandwidth_sweep", "kernels.sweep"),
    ("repro.engine.kernels", "sweep_min_cut", "kernels.sweep"),
    ("repro.engine.kernels", "sweep_min_weight", "kernels.sweep"),
    ("repro.core.pipeline", "partition_chain", "core.partition_chain"),
)

#: Where the batch engine binds its process pool class.
POOL_TARGET = ("repro.engine.batch", "ProcessPoolExecutor")


def _count_structure(timer: "LayerTimer", args: tuple, result: Any) -> None:
    timer.counts["kernels.p_total"] += result.p
    timer.counts["kernels.r_total"] += result.r


def _count_p(timer: "LayerTimer", args: tuple, result: Any) -> None:
    timer.counts["kernels.p_total"] += len(result[0])


def _count_r(timer: "LayerTimer", args: tuple, result: Any) -> None:
    timer.counts["kernels.r_total"] += len(result[0])


def _absorb_batch(timer: "LayerTimer", args: tuple, results: Any) -> None:
    """Engine-side outcomes of one ``solve_many``, read from its public
    ``last_batch_stats``, metrics registry and per-result telemetry."""
    engine = args[0]
    stats = engine.last_batch_stats
    counts = timer.counts
    counts["cache.hits"] += stats.cache.hits
    counts["cache.interval_hits"] += stats.cache.interval_hits
    counts["cache.misses"] += stats.cache.misses
    counts["pool.workers"] = max(counts["pool.workers"], stats.workers)
    counts["pool.worker_busy_s"] += sum(
        (r.telemetry or {}).get("duration_s", 0.0) for r in results
    )
    registry = engine.metrics.counters
    for name in ("queries", "structures.built", "structures.reused"):
        counter = registry.get(f"engine.plan.{name}")
        counts[f"plan.{name}"] = counter.value if counter is not None else 0


Hook = Callable[["LayerTimer", tuple, Any], None]

#: What to read off a layer's arguments and return value after a call:
#: exact work counts and the engine's own outcome counters.
HOOKS: Dict[str, Hook] = {
    "compute_prime_structure_numpy": _count_structure,
    "prime_windows": _count_p,
    "reduced_edge_arrays": _count_r,
    "reduced_class_arrays": _count_r,
    "solve_many": _absorb_batch,
}


def _resolve(module: str, path: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw object)`` for ``module.path``."""
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


def _bindings(original: Any) -> List[Tuple[Any, str]]:
    """Every ``(module, name)`` among loaded ``repro`` modules bound to
    ``original``."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                found.append((module, attr))
    return found


class LayerTimer:
    """Self time, inclusive time and call count per layer, plus counts."""

    def __init__(self, work_dir: str) -> None:
        #: Where pool workers leave their numbers for the parent.
        self.work_dir = work_dir
        self._patches: List[Tuple[Any, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.workers: Optional[Dict] = None
        # Open spans: [layer, start, time covered by child spans].
        self._stack: List[List[Any]] = []

    # -- spans ---------------------------------------------------------
    def begin(self, layer: str) -> bool:
        """Open a span; ``False`` (nothing opened) inside the same layer."""
        if self._stack and self._stack[-1][0] == layer:
            return False
        self._stack.append([layer, perf_counter(), 0.0])
        return True

    def end(self) -> None:
        layer, start, child = self._stack.pop()
        elapsed = perf_counter() - start
        self.self_s[layer] += elapsed - child
        self.total_s[layer] += elapsed
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += elapsed

    def wrap(self, layer: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        timer = self

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if not timer.begin(layer):
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                timer.end()
            if hook is not None:
                hook(timer, args, result)
            return result

        return timed

    # -- installing ----------------------------------------------------
    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target in every ``repro`` namespace binding it."""
        if self._patches:
            raise RuntimeError("layer timer already installed")
        for module, path, layer in TARGETS:
            owner, attr, raw = _resolve(module, path)
            hook = HOOKS.get(attr)
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    wrapped: Any = classmethod(self.wrap(layer, raw.__func__, hook))
                else:
                    wrapped = self.wrap(layer, raw, hook)
                self._patch(owner, attr, wrapped)
                continue
            wrapped = self.wrap(layer, raw, hook)
            for namespace, name in _bindings(raw):
                self._patch(namespace, name, wrapped)
        _, _, pool_class = _resolve(*POOL_TARGET)
        timed_pool = _timed_pool(self, pool_class)
        for namespace, name in _bindings(pool_class):
            self._patch(namespace, name, timed_pool)

    def restore(self) -> None:
        """Put every original object back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- pool workers ----------------------------------------------------
    def worker_start(self, dump_dir: str) -> None:
        """Pool initializer: drop the numbers copied from the parent and
        write this worker's own when it exits."""
        self.reset()
        path = os.path.join(dump_dir, f"worker-{os.getpid()}.json")
        mp_util.Finalize(None, self._dump, args=(path,), exitpriority=100)

    def _dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)

    def merge_workers(self, dump_dir: str) -> None:
        merged = self.workers or {"self_s": {}, "total_s": {}, "calls": {}, "counts": {}}
        for path in sorted(glob.glob(os.path.join(dump_dir, "worker-*.json"))):
            with open(path, encoding="utf-8") as handle:
                snap = json.load(handle)
            os.unlink(path)
            for key in ("self_s", "total_s", "calls", "counts"):
                for name, value in snap[key].items():
                    merged[key][name] = merged[key].get(name, 0) + value
        self.workers = merged

    def snapshot(self) -> Dict:
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "workers": self.workers,
        }


def _timed_pool(timer: LayerTimer, base: type) -> type:
    """``base`` with a ``pool`` span over its ``with`` block and the
    worker initializer of :meth:`LayerTimer.worker_start`."""

    class TimedPool(base):  # type: ignore[misc, valid-type]
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            self._dump_dir = tempfile.mkdtemp(prefix="workers-", dir=timer.work_dir)
            if len(args) < 3 and kwargs.get("initializer") is None:
                kwargs["initializer"] = timer.worker_start
                kwargs["initargs"] = (self._dump_dir,)
            super().__init__(*args, **kwargs)

        def __enter__(self) -> Any:
            timer.begin("pool")
            return super().__enter__()

        def __exit__(self, *exc: Any) -> Any:
            try:
                return super().__exit__(*exc)
            finally:
                timer.end()
                timer.merge_workers(self._dump_dir)
                os.rmdir(self._dump_dir)

    TimedPool.__name__ = TimedPool.__qualname__ = base.__name__
    return TimedPool
