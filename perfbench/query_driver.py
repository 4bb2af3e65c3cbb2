"""The ``query_large`` driver: one caller in a closed loop.

Usage: ``python query_driver.py DRIVER_INPUT OUT_DIR TRACE [COUNT]``

Imports ``repro`` once, builds a :class:`~repro.PartitionEngine`, prints
``ready``, then for each query builds the chain's weight lists from the
seed (not timed) and times ``Chain(alpha, beta)`` plus
``engine.solve(chain, K)``.  A speed calibration (``speed.py``) runs after
``ready`` and after every query.  Answers go to ``OUT_DIR/answers.jsonl``;
the per-query latencies, the calibrations and, with ``TRACE=1``, the layer
numbers go to ``OUT_DIR/meta.json``.  ``COUNT`` overrides the number of
queries; ``0`` measures set-up alone.
"""

import json
import sys
from time import perf_counter


def main(argv):
    input_path, out_dir, trace = argv[:3]
    trace = trace == "1"
    import_s = None
    if trace:
        start = perf_counter()
        import repro.cli  # noqa: F401  (the import the traced runs time)

        import_s = perf_counter() - start
    from repro import Chain, PartitionEngine

    import speed
    import workloads

    with open(input_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    count = int(argv[3]) if len(argv) > 3 else spec["queries"]
    engine = PartitionEngine()
    timer = None
    if trace:
        import layers

        timer = layers.LayerTimer(out_dir)
        timer.install()
    print("ready", flush=True)
    meter = speed.Meter()
    meter.calibrate()
    latencies, lines = [], []
    try:
        for i in range(count):
            with meter.overhead():
                alpha, beta, bound = workloads.large_query(spec["seed"], i)
            start = perf_counter()
            chain = Chain(alpha, beta)
            result = engine.solve(chain, bound)
            latencies.append(perf_counter() - start)
            meter.calibrate()
            with meter.overhead():
                lines.append(json.dumps({
                    "chain": i, "cut": list(result.cut_indices),
                    "weight": result.weight, "components": result.num_components,
                }))
    finally:
        if timer is not None:
            timer.restore()
    stats = engine.cache_stats()
    meta = meter.as_dict()
    meta.update(
        latencies_s=latencies,
        cache={"hits": stats.hits, "interval_hits": stats.interval_hits,
               "misses": stats.misses},
        layers=timer.snapshot() if timer is not None else None,
        import_s=import_s,
    )
    with open(f"{out_dir}/answers.jsonl", "w", encoding="utf-8") as handle:
        handle.write("".join(line + "\n" for line in lines))
    with open(f"{out_dir}/meta.json", "w", encoding="utf-8") as handle:
        json.dump(meta, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
