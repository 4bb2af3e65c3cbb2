"""End-to-end benchmark of the partitioning program, one workload per run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload batch_cold --seed 1 --seconds 20 --trace 0

The run generates the workload's inputs from ``--seed``, computes reference
answers with ``repro.core`` (not timed), then runs the unmodified program
from ``src/`` in child processes for ``--seconds`` seconds, checking every
answer.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced invocations and reports the per-layer
metrics.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero when
any answer is wrong or the program is missing.  See ``README.md`` for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import procs
import reference
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metrics and their units (``--trace 0``).
END_TO_END = {
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

#: Layers timed in the traced runs; each gives ``<layer>_s`` (self
#: seconds) and ``<layer>_calls``.
LAYERS = (
    "ingest.parse",
    "batch.serialize",
    "batch.solve_many",
    "engine.solve",
    "chain.build",
    "chain.fingerprint",
    "cache.solve",
    "plan.get",
    "plan.solve_bounds",
    "kernels.arrays",
    "kernels.structure",
    "kernels.sweep",
    "core.partition_chain",
)

#: Per-layer metrics and their units (``--trace 1``).
PER_LAYER = {"import.repro_cli_s": "s"}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}_s"] = "s"
    PER_LAYER[f"{_layer}_calls"] = "count"
PER_LAYER.update({
    "cache.hits": "count",
    "cache.interval_hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "plan.queries": "count",
    "plan.structures_built": "count",
    "plan.structures_reused": "count",
    "plan.reuse_ratio": "ratio",
    "kernels.p_total": "count",
    "kernels.r_total": "count",
    "pool.wall_s": "s",
    "pool.worker_busy_s": "s",
    "pool.overhead_s": "s",
    "pool.efficiency": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
})

#: Fewest measured invocations, however short ``--seconds`` is.
MIN_RUNS = {"batch": 5, "query_large": 4}
#: Fewest untraced/traced pairs in a traced run.
MIN_TRACE_PAIRS = 2


def _read(path: Path) -> bytes:
    """A child's output; empty (every answer missing) if it wrote none."""
    return path.read_bytes() if path.exists() else b""


def _p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


class Bench:
    """One workload's measured runs against one checkout."""

    def __init__(self, workload: workloads.Workload,
                 refs: List[reference.Answer], work: Path) -> None:
        self.wl = workload
        self.refs = refs
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(SRC)
        self.stderr = work / "stderr.log"
        self.attempted = 0
        self.failed = 0
        self.latency_samples = 0
        self.is_batch = workload.name != "query_large"
        self.queries = len(workload.queries)
        self._good: Optional[bytes] = None
        workers = []
        if workload.name == "batch_pool":
            workers = ["--workers", str(workloads.POOL_WORKERS)]
        self.batch_args = ["batch", "--input", str(workload.input_path)] + workers
        self.empty_args = ["batch", "--input", str(workload.empty_path)] + workers

    # -- running the program -------------------------------------------
    def _spawn(self, argv: List[str], meta_path: Path,
               ready_line: bool = False) -> Tuple[procs.Run, Dict]:
        """Run a benchmark child; take the child's own calibration work out
        of its wall and CPU time and set its scale to the reference speed."""
        run = procs.run(argv, self.env, ROOT, self.stderr, ready_line=ready_line)
        try:
            meta = json.loads(meta_path.read_text())
        except (OSError, ValueError):
            self._fail_loudly(f"{argv[1]} wrote no report (exit code {run.returncode})")
        run.wall_s -= meta["bench_wall_s"]
        run.cpu_s -= meta["bench_cpu_s"]
        run.scale = speed.factor(meta["calibration_s"])
        return run, meta

    def _batch(self, args: List[str], out: Path,
               trace: bool = False) -> Tuple[procs.Run, Dict]:
        meta_path = self.work / "batch-meta.json"
        for stale in (meta_path, out):
            stale.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "batch_child.py"), str(meta_path),
                str(self.work), "1" if trace else "0"]
        return self._spawn(argv + args + ["--output", str(out)], meta_path)

    def _driver(self, trace: bool,
                count: Optional[int] = None) -> Tuple[procs.Run, Dict, Path]:
        out = self.work / ("traced" if trace else "plain")
        out.mkdir(exist_ok=True)
        for stale in ("meta.json", "answers.jsonl"):
            (out / stale).unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "query_driver.py"),
                str(self.wl.directory / "driver_input.json"), str(out),
                "1" if trace else "0"]
        if count is not None:
            argv.append(str(count))
        run, meta = self._spawn(argv, out / "meta.json", ready_line=True)
        return run, meta, out

    def _setup_sample(self) -> float:
        """One set-up time: the same command with nothing to solve."""
        if self.is_batch:
            run, _ = self._batch(self.empty_args, self.work / "empty-out.jsonl")
            sample = run.wall_s
        else:
            run, _, _ = self._driver(False, count=0)
            sample = run.ready_s
        if run.returncode != 0 or sample is None:
            self._fail_loudly("set-up run failed")
        return sample * run.scale

    def _fail_loudly(self, what: str) -> None:
        tail = self.stderr.read_text(errors="replace")[-2000:] if self.stderr.exists() else ""
        raise RuntimeError(f"{what}; program stderr:\n{tail}")

    # -- checking ------------------------------------------------------
    def _check(self, data: bytes, returncode: int,
               same_as: Optional[bytes] = None) -> int:
        """Count wrong answers in one output and add them to the totals."""
        if data == self._good:
            bad = 0
        elif self.is_batch:
            bad = reference.count_batch_errors(data, self.wl.queries, self.refs)
        else:
            bad = reference.count_driver_errors(data, self.refs)
        if bad == 0 and returncode == 0:
            self._good = data
        if same_as is not None and data != same_as:
            differ = sum(a != b for a, b in itertools.zip_longest(
                data.splitlines(), same_as.splitlines()))
            bad = max(bad, differ)
        if returncode != 0:
            bad = self.queries
        bad = min(bad, self.queries)
        self.attempted += self.queries
        self.failed += bad
        return bad

    def _loop(self, seconds: float, minimum: int, step: Callable[[], None]) -> None:
        start = perf_counter()
        done = 0
        while done < minimum or perf_counter() - start < seconds:
            step()
            done += 1

    # -- untraced: end-to-end metrics -------------------------------------
    def plain(self, seconds: float) -> Dict[str, float]:
        self._setup_sample()  # warms the page cache and bytecode; dropped
        setup, walls, cpus, rss, latencies = [], [], [], [], []
        serial: Optional[bytes] = None
        if self.wl.name == "batch_pool":
            # Pool output must equal serial output byte for byte.
            out = self.work / "serial.jsonl"
            run, _ = self._batch(self.batch_args[:3], out)
            serial = _read(out)
            self._check(serial, run.returncode)

        def step() -> None:
            # Set-up samples are spread over the run like the measured
            # invocations, so both see the same machine.
            setup.append(self._setup_sample())
            if self.is_batch:
                out = self.work / "out.jsonl"
                run, _ = self._batch(self.batch_args, out)
                self._check(_read(out), run.returncode, serial)
                walls.append(run.wall_s * run.scale)
            else:
                run, meta, out = self._driver(False)
                self._check(_read(out / "answers.jsonl"), run.returncode)
                latencies.extend(_scaled_latencies(meta))
            cpus.append(run.cpu_s * run.scale)
            rss.append(run.peak_rss_mb)

        self._loop(seconds, MIN_RUNS["batch" if self.is_batch else "query_large"], step)
        if self.is_batch:
            # Every answer of a batch arrives when the process exits, so a
            # query's latency is its invocation's wall time.
            throughput = _median([self.queries / w for w in walls])
            samples = walls
        else:
            throughput = len(latencies) / sum(latencies)
            samples = latencies
        self.latency_samples = len(samples)
        return {
            "throughput_qps": throughput,
            "latency_p50_ms": 1000.0 * _median(samples),
            "latency_p90_ms": 1000.0 * _p90(samples),
            "setup_s": _median(setup),
            "cpu_s": _median(cpus),
            "peak_rss_mb": _median(rss),
        }

    # -- traced: per-layer metrics ----------------------------------------
    def traced(self, seconds: float) -> Dict[str, float]:
        per_run: List[Dict[str, float]] = []
        plain_walls, traced_walls = [], []

        def batch_pair(traced_first: bool) -> None:
            out = self.work / "out.jsonl"
            outputs = {}
            for trace in (traced_first, not traced_first):
                run, meta = self._batch(self.batch_args, out, trace=trace)
                outputs[trace] = _read(out)
                (traced_walls if trace else plain_walls).append(run.wall_s * run.scale)
                if trace:
                    per_run.append(_layer_metrics(meta["layers"], run.wall_s, meta["import_s"]))
                self._check(outputs[trace], run.returncode, outputs.get(not trace))

        def driver_pair(traced_first: bool) -> None:
            outputs = {}
            for trace in (traced_first, not traced_first):
                run, meta, out = self._driver(trace)
                outputs[trace] = _read(out / "answers.jsonl")
                (traced_walls if trace else plain_walls).append(sum(_scaled_latencies(meta)))
                if trace:
                    stats = meta["layers"]
                    stats["counts"].update({f"cache.{k}": v for k, v in meta["cache"].items()})
                    per_run.append(_layer_metrics(stats, sum(meta["latencies_s"]),
                                                  meta["import_s"], with_import=False))
                self._check(outputs[trace], run.returncode, outputs.get(not trace))

        pair = batch_pair if self.is_batch else driver_pair
        pairs = itertools.count()
        # Alternate which side runs first, so order effects cancel.
        self._loop(seconds, MIN_TRACE_PAIRS, lambda: pair(next(pairs) % 2 == 1))
        metrics = {name: _median([r[name] for r in per_run]) for name in per_run[0]}
        metrics["trace.overhead"] = _median(traced_walls) / _median(plain_walls)
        return metrics


def _scaled_latencies(meta: Dict) -> List[float]:
    """A driver's per-query latencies at the reference speed, each scaled by
    the calibrations just before and just after it."""
    cal = meta["calibration_s"]
    return [latency * speed.factor(cal[i:i + 2])
            for i, latency in enumerate(meta["latencies_s"])]


def _layer_metrics(stats: Dict, wall_s: float, import_s: float,
                   with_import: bool = True) -> Dict[str, float]:
    """Per-layer metrics of one traced invocation: the parent's layers plus
    those its pool workers reported."""
    self_s = dict(stats["self_s"])
    calls = dict(stats["calls"])
    counts = dict(stats["counts"])
    parent_self = sum(self_s.values()) + (import_s if with_import else 0.0)
    workers = stats.get("workers") or {}
    for key, target in (("self_s", self_s), ("calls", calls), ("counts", counts)):
        for name, value in workers.get(key, {}).items():
            target[name] = target.get(name, 0) + value
    out: Dict[str, float] = {"import.repro_cli_s": import_s}
    for layer in LAYERS:
        out[f"{layer}_s"] = self_s.get(layer, 0.0)
        out[f"{layer}_calls"] = calls.get(layer, 0)
    for name in ("cache.hits", "cache.interval_hits", "cache.misses",
                 "kernels.p_total", "kernels.r_total", "plan.queries"):
        out[name] = counts.get(name, 0)
    out["plan.structures_built"] = counts.get("plan.structures.built", 0)
    out["plan.structures_reused"] = counts.get("plan.structures.reused", 0)
    lookups = out["cache.hits"] + out["cache.interval_hits"] + out["cache.misses"]
    out["cache.hit_ratio"] = (
        (out["cache.hits"] + out["cache.interval_hits"]) / lookups if lookups else 0.0
    )
    out["plan.reuse_ratio"] = (
        1.0 - out["plan.structures_built"] / out["plan.queries"]
        if out["plan.queries"] else 0.0
    )
    total = stats["total_s"]
    if "pool" in total:
        pool_wall, width = total["pool"], max(1, counts.get("pool.workers", 1))
    else:
        pool_wall, width = total.get("batch.solve_many", 0.0), 1
    busy = counts.get("pool.worker_busy_s", 0.0)
    out["pool.wall_s"] = pool_wall
    out["pool.worker_busy_s"] = busy
    out["pool.overhead_s"] = pool_wall - busy / width if pool_wall else 0.0
    out["pool.efficiency"] = busy / (width * pool_wall) if pool_wall else 0.0
    out["trace.coverage"] = parent_self / wall_s
    return out


def _load_program() -> Optional[str]:
    """Import ``repro`` from this checkout's ``src``; an error message if
    the checkout holds no program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no program at {SRC.relative_to(ROOT)}/repro: run from the root of a checkout"
    sys.path.insert(0, str(SRC))
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        return f"imported repro from {repro.__file__}, not from this checkout"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = _load_program()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.generate(args.workload, args.seed, work)
        print(json.dumps({"properties": wl.properties}, sort_keys=True))
        refs = reference.answers(wl)
        bench = Bench(wl, refs, work)
        try:
            values = bench.traced(args.seconds) if args.trace else bench.plain(args.seconds)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    summary = {"workload": args.workload, "seed": args.seed,
               "error_rate": bench.failed / bench.attempted}
    if not args.trace:
        summary["latency_samples"] = bench.latency_samples
    print(json.dumps(summary, sort_keys=True))
    correct = bench.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
