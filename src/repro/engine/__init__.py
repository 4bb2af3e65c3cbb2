"""The batched partitioning engine — the production front door.

Layers on top of :mod:`repro.core`:

- :mod:`repro.engine.kernels` — NumPy fast-path kernels for the chain
  pipeline (prefix weights, prime subpaths via ``searchsorted``,
  membership intervals, the non-redundant-edge reduction), bit-identical
  to the pure-Python reference;
- :mod:`repro.engine.native` — Algorithm 4.1 for one query as a single
  C pass (prime windows, edge reduction, TEMP_S sweep), built on first
  use and loaded with ctypes; the cache's miss path uses it when a C
  compiler is available;
- :mod:`repro.engine.plan` — :class:`CompiledChainPlan`: freeze one
  chain's preprocessing and memoize its answers per stability interval;
  single bounds, whole vectors of bounds and β sweeps share that memo
  (``compile_chain``/``solve_bound``/``solve_bounds``/``solve_beta_sweep``);
- :mod:`repro.engine.cache` — the content-fingerprinted plan LRU
  (:class:`PlanCache`) and the single-query front end over it
  (:class:`PrimeStructureCache`);
- :mod:`repro.engine.batch` — :class:`PartitionEngine` with
  ``solve``/``solve_many``/``solve_sweep`` (process-pool fan-out,
  fingerprint-grouped dispatch, deterministic result ordering) backing
  the ``repro batch`` CLI subcommand.
"""

from repro.engine.batch import (
    OBJECTIVES,
    BatchStats,
    PartitionEngine,
    PartitionQuery,
    QueryResult,
)
from repro.engine.cache import CacheStats, PlanCache, PrimeStructureCache
from repro.engine.plan import CompiledChainPlan, compile_chain

__all__ = [
    "BatchStats",
    "CacheStats",
    "CompiledChainPlan",
    "OBJECTIVES",
    "PartitionEngine",
    "PartitionQuery",
    "PlanCache",
    "PrimeStructureCache",
    "QueryResult",
    "compile_chain",
]
