"""Seeded input generator for the four benchmark workloads.

Every input is a pure function of ``(workload, seed)``: the same seed gives
byte-identical files on any machine with the same NumPy bit generator
(PCG64 via ``numpy.random.default_rng``).  Only the generated inputs reach
the program; the properties the workload was chosen for are recorded next
to them in ``properties.json``.

- ``batch_cold`` / ``batch_pool``: 200 distinct chains, n=2000, every
  ``alpha``/``beta`` uniform on [1, 100], one bandwidth query per chain at
  ``K = 4 * max(alpha)``.  No query repeats a chain, so nothing is cached.
- ``batch_hot``: 400 queries over 8 chains (n=2000).  Each bound is one of
  10 levels, 1.5 to 6.0 times the chain's ``max(alpha)``.  20 queries (5%)
  at seeded positions use a tree objective (``bottleneck``, ``processors``,
  ``bottleneck+processors`` in turn); the rest are ``bandwidth``, and most
  of those repeat an earlier ``(chain, bound)`` pair.
- ``query_large``: chains of n=100000 built in the driver process from the
  seed (they are too large to keep on disk), ``K = 4 * max(alpha)``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

WORKLOADS = ("batch_cold", "batch_hot", "batch_pool", "query_large")

COLD_CHAINS = 200
COLD_N = 2000
HOT_CHAINS = 8
HOT_N = 2000
HOT_QUERIES = 400
HOT_LEVELS = tuple(float(x) for x in np.linspace(1.5, 6.0, 10))
HOT_TREE_SHARE = 0.05
TREE_OBJECTIVES = ("bottleneck", "processors", "bottleneck+processors")
LARGE_N = 100_000
#: Distinct chains one ``query_large`` driver process answers.
LARGE_QUERIES = 25
#: Pool width of ``batch_pool``.
POOL_WORKERS = 2
BOUND_FACTOR = 4.0

_STREAMS = {name: i for i, name in enumerate(WORKLOADS)}
# batch_pool must see exactly the batch_cold input.
_STREAMS["batch_pool"] = _STREAMS["batch_cold"]


def _rng(workload: str, seed: int, *extra: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, _STREAMS[workload], *extra])


def _chain(rng: np.random.Generator, n: int) -> Tuple[np.ndarray, np.ndarray]:
    return rng.uniform(1.0, 100.0, n), rng.uniform(1.0, 100.0, n - 1)


@dataclass
class Query:
    """One query as the benchmark knows it: which chain, which bound."""

    chain: int
    bound: float
    objective: str = "bandwidth"


@dataclass
class Workload:
    """The generated inputs of one workload and what they were chosen for."""

    name: str
    seed: int
    directory: Path
    chains: List[Tuple[List[float], List[float]]]
    queries: List[Query]
    properties: Dict = field(default_factory=dict)

    @property
    def input_path(self) -> Path:
        return self.directory / "queries.jsonl"

    @property
    def empty_path(self) -> Path:
        return self.directory / "empty.jsonl"


def large_query(seed: int, index: int) -> Tuple[List[float], List[float], float]:
    """Chain ``index`` of ``query_large`` for ``seed``: ``(alpha, beta, K)``."""
    alpha, beta = _chain(_rng("query_large", seed, index), LARGE_N)
    return alpha.tolist(), beta.tolist(), BOUND_FACTOR * float(alpha.max())


def machine() -> Dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def _batch_cold(seed: int) -> Tuple[List, List[Query], Dict]:
    rng = _rng("batch_cold", seed)
    chains, queries = [], []
    for i in range(COLD_CHAINS):
        alpha, beta = _chain(rng, COLD_N)
        chains.append((alpha.tolist(), beta.tolist()))
        queries.append(Query(i, BOUND_FACTOR * float(alpha.max())))
    return chains, queries, {"chains": COLD_CHAINS, "n": COLD_N,
                             "bound": "4 * max(alpha)", "repeat_share": 0.0}


def _batch_hot(seed: int) -> Tuple[List, List[Query], Dict]:
    rng = _rng("batch_hot", seed)
    chains = []
    for _ in range(HOT_CHAINS):
        alpha, beta = _chain(rng, HOT_N)
        chains.append((alpha.tolist(), beta.tolist()))
    alpha_max = [max(alpha) for alpha, _ in chains]
    # A fixed number of tree queries, the three objectives in turn: their
    # costs differ by 3x, so a seeded mix would make the work vary by seed.
    tree = int(round(HOT_TREE_SHARE * HOT_QUERIES))
    positions = sorted(int(i) for i in rng.choice(HOT_QUERIES, tree, replace=False))
    objectives = ["bandwidth"] * HOT_QUERIES
    for k, i in enumerate(positions):
        objectives[i] = TREE_OBJECTIVES[k % len(TREE_OBJECTIVES)]
    queries, seen, repeats = [], set(), 0
    for objective in objectives:
        chain = int(rng.integers(HOT_CHAINS))
        level = int(rng.integers(len(HOT_LEVELS)))
        if objective == "bandwidth":
            repeats += (chain, level) in seen
            seen.add((chain, level))
        queries.append(Query(chain, HOT_LEVELS[level] * alpha_max[chain], objective))
    mix = {obj: objectives.count(obj) for obj in ("bandwidth",) + TREE_OBJECTIVES}
    return chains, queries, {
        "chains": HOT_CHAINS, "n": HOT_N, "bound_levels": list(HOT_LEVELS),
        "bound": "level * max(alpha)", "objectives": mix,
        "repeat_share": repeats / mix["bandwidth"],
    }


def generate(workload: str, seed: int, directory: Path) -> Workload:
    """Write ``workload``'s inputs for ``seed`` into ``directory``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    directory.mkdir(parents=True, exist_ok=True)
    properties: Dict = {"workload": workload, "seed": seed, "machine": machine()}
    if workload == "query_large":
        chains: List = []
        queries = [Query(i, 0.0) for i in range(LARGE_QUERIES)]
        properties.update(queries_per_process=LARGE_QUERIES, n=LARGE_N,
                          bound="4 * max(alpha)", repeat_share=0.0)
        payload = json.dumps({"seed": seed, "queries": LARGE_QUERIES}) + "\n"
        (directory / "driver_input.json").write_text(payload, encoding="utf-8")
    else:
        make = _batch_hot if workload == "batch_hot" else _batch_cold
        chains, queries, extra = make(seed)
        properties.update(extra, queries=len(queries))
        if workload == "batch_pool":
            properties["workers"] = POOL_WORKERS
        payload = "".join(
            json.dumps({"alpha": chains[q.chain][0], "beta": chains[q.chain][1],
                        "bound": q.bound, "objective": q.objective,
                        "tag": f"q{i}"}) + "\n"
            for i, q in enumerate(queries)
        )
        (directory / "queries.jsonl").write_text(payload, encoding="utf-8")
        (directory / "empty.jsonl").write_text("", encoding="utf-8")
    properties["input_sha256"] = hashlib.sha256(payload.encode()).hexdigest()
    properties["input_bytes"] = len(payload.encode())
    (directory / "properties.json").write_text(
        json.dumps(properties, sort_keys=True) + "\n", encoding="utf-8"
    )
    return Workload(workload, seed, directory, chains, queries, properties)
