"""Reference answers from ``repro.core`` and the checker that compares
the program's answers with them.

References are computed once per run, before anything is timed, with the
paper-faithful solvers: :func:`repro.core.bandwidth_min` (pure-Python
backend) for ``bandwidth`` and :func:`repro.core.partition_chain` for the
tree objectives.  An answer is correct only when its cut indices, its
component count and the bits of its weight equal the reference.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import Query, Workload, large_query

#: ``(cut, weight, components)`` of one optimal answer.
Answer = Tuple[Tuple[int, ...], float, int]


def _solve(alpha: Sequence[float], beta: Sequence[float], bound: float,
           objective: str) -> Answer:
    from repro.core import bandwidth_min, partition_chain
    from repro.graphs import Chain

    chain = Chain(alpha, beta)
    if objective == "bandwidth":
        result = bandwidth_min(chain, bound)
    else:
        result = partition_chain(chain, bound, objective)
    return tuple(result.cut_indices), float(result.weight), result.num_components


def answers(workload: Workload) -> List[Answer]:
    """The reference answer of every query, in query order."""
    if workload.name == "query_large":
        return [
            _solve(*large_query(workload.seed, q.chain), "bandwidth")
            for q in workload.queries
        ]
    memo: Dict[Tuple[int, float, str], Answer] = {}
    out = []
    for q in workload.queries:
        key = (q.chain, q.bound, q.objective)
        if key not in memo:
            alpha, beta = workload.chains[q.chain]
            memo[key] = _solve(alpha, beta, q.bound, q.objective)
        out.append(memo[key])
    return out


def _same(record: Dict, ref: Answer) -> bool:
    cut, weight, components = ref
    got = record.get("weight")
    return (
        "error" not in record
        and isinstance(got, (int, float))
        and record.get("cut") == list(cut)
        and float(got).hex() == weight.hex()
        and record.get("components") == components
    )


def count_batch_errors(data: bytes, queries: List[Query],
                       refs: List[Answer]) -> int:
    """Queries of one ``repro batch`` output that errored, went missing or
    differ from the reference (echoed fields included)."""
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return len(queries)
    bad = 0
    for i, (query, ref) in enumerate(zip(queries, refs)):
        record = _parse(lines[i]) if i < len(lines) else None
        if (
            record is None
            or record.get("index") != i
            or record.get("tag") != f"q{i}"
            or record.get("objective") != query.objective
            or record.get("bound") != query.bound
            or not _same(record, ref)
        ):
            bad += 1
    # Extra lines are answers to questions nobody asked.
    return min(len(queries), bad + max(0, len(lines) - len(queries)))


def count_driver_errors(data: bytes, refs: List[Answer]) -> int:
    """Like :func:`count_batch_errors`, for the ``query_large`` driver's
    ``{"chain": i, "cut": ..., "weight": ..., "components": ...}`` lines."""
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return len(refs)
    bad = 0
    for i, ref in enumerate(refs):
        record = _parse(lines[i]) if i < len(lines) else None
        if record is None or record.get("chain") != i or not _same(record, ref):
            bad += 1
    return min(len(refs), bad + max(0, len(lines) - len(refs)))


def _parse(line: str) -> Optional[Dict]:
    try:
        record = json.loads(line)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None
