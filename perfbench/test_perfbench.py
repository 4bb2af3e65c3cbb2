"""Self-tests of the benchmark (not of the program).

Run from the root of a checkout::

    python3 -m pytest perfbench -q
    # or: python3 -m unittest discover -s perfbench
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Query, Workload  # noqa: E402


def _tiny_workload(directory: Path) -> Workload:
    """Three small chains; bandwidth queries (two on one chain, so the plan
    path runs) and tree queries."""
    chains = [
        ([4.0, 3.0, 5.0, 2.0, 6.0], [7.0, 1.0, 9.0, 2.0]),
        ([float(x) for x in range(1, 41)], [float(40 - x) for x in range(39)]),
        ([2.5] * 30, [1.0 + (i % 7) for i in range(29)]),
    ]
    queries = [Query(0, 9.0), Query(1, 100.0), Query(1, 100.0, "bottleneck"),
               Query(2, 11.0, "processors"), Query(2, 20.0), Query(1, 60.0)]
    return Workload("batch_hot", 0, directory, chains, queries)


def _program_output(wl: Workload) -> bytes:
    """What ``repro batch`` writes for ``wl``, produced in process."""
    from repro.engine import PartitionEngine

    lines = [
        json.dumps({"alpha": wl.chains[q.chain][0], "beta": wl.chains[q.chain][1],
                    "bound": q.bound, "objective": q.objective, "tag": f"q{i}"})
        for i, q in enumerate(wl.queries)
    ]
    results = PartitionEngine().solve_jsonl(lines, max_workers=0)
    return "".join(r.to_json() + "\n" for r in results).encode()


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            files = {}
            for label, seed in (("a", 7), ("b", 7), ("c", 8)):
                wl = workloads.generate("batch_cold", seed, tmp / label)
                files[label] = wl.input_path.read_bytes()
            self.assertEqual(files["a"], files["b"])
            self.assertNotEqual(files["a"], files["c"])

    def test_hot_workload_records_its_repeat_share(self):
        with tempfile.TemporaryDirectory() as tmp:
            wl = workloads.generate("batch_hot", 3, Path(tmp))
            share = wl.properties["repeat_share"]
            self.assertGreater(share, 0.6)
            recorded = json.loads((Path(tmp) / "properties.json").read_text())
            self.assertEqual(recorded["repeat_share"], share)
            self.assertEqual(recorded["machine"]["nproc"], wl.properties["machine"]["nproc"])

    def test_large_chains_follow_the_seed(self):
        self.assertEqual(workloads.large_query(5, 0), workloads.large_query(5, 0))
        self.assertNotEqual(workloads.large_query(5, 0)[2], workloads.large_query(6, 0)[2])


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp())
        self.wl = _tiny_workload(self.tmp)
        self.refs = reference.answers(self.wl)
        self.output = _program_output(self.wl)

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def _corrupt(self, index: int, edit) -> bytes:
        lines = self.output.decode().splitlines()
        record = json.loads(lines[index])
        edit(record)
        lines[index] = json.dumps(record)
        return ("\n".join(lines) + "\n").encode()

    def test_program_answers_match_reference(self):
        self.assertEqual(
            reference.count_batch_errors(self.output, self.wl.queries, self.refs), 0)

    def test_corrupted_cut_index_is_caught(self):
        def shift(record):
            record["cut"][0] += 1

        bad = self._corrupt(1, shift)
        self.assertEqual(reference.count_batch_errors(bad, self.wl.queries, self.refs), 1)

    def test_weight_off_by_one_ulp_is_caught(self):
        import math

        def nudge(record):
            record["weight"] = math.nextafter(record["weight"], math.inf)

        bad = self._corrupt(4, nudge)
        self.assertEqual(reference.count_batch_errors(bad, self.wl.queries, self.refs), 1)

    def test_missing_and_extra_lines_count(self):
        lines = self.output.splitlines(keepends=True)
        self.assertEqual(
            reference.count_batch_errors(b"".join(lines[:-2]), self.wl.queries, self.refs), 2)
        self.assertEqual(
            reference.count_batch_errors(self.output + lines[0], self.wl.queries, self.refs), 1)

    def test_driver_answers_are_checked_the_same_way(self):
        refs = self.refs[:2]
        good = "".join(
            json.dumps({"chain": i, "cut": list(cut), "weight": w, "components": c}) + "\n"
            for i, (cut, w, c) in enumerate(refs)
        ).encode()
        self.assertEqual(reference.count_driver_errors(good, refs), 0)
        self.assertEqual(reference.count_driver_errors(good.replace(b'"cut": [', b'"cut": [0, ', 1), refs), 1)


class LayerTimerTest(unittest.TestCase):
    def test_wrappers_time_layers_and_are_restored(self):
        import repro.engine.batch as batch
        import repro.engine.kernels as kernels
        import repro.engine.plan as plan
        from repro.engine import PartitionQuery
        from repro.graphs import Chain

        originals = (kernels.bandwidth_sweep, plan.sweep_min_cut, plan.sweep_min_weight,
                     Chain.__dict__["__init__"], PartitionQuery.__dict__["from_json"],
                     batch.ProcessPoolExecutor)
        with tempfile.TemporaryDirectory() as tmp:
            wl = _tiny_workload(Path(tmp))
            untraced = _program_output(wl)
            timer = layers.LayerTimer(tmp)
            timer.install()
            try:
                self.assertIsNot(kernels.bandwidth_sweep, originals[0])
                self.assertIsNot(plan.sweep_min_cut, originals[1])
                traced = _program_output(wl)
            finally:
                timer.restore()
        self.assertEqual(traced, untraced)
        self.assertIs(kernels.bandwidth_sweep, originals[0])
        self.assertIs(plan.sweep_min_cut, originals[1])
        self.assertIs(plan.sweep_min_weight, originals[2])
        self.assertIs(Chain.__dict__["__init__"], originals[3])
        self.assertIs(PartitionQuery.__dict__["from_json"], originals[4])
        self.assertIs(batch.ProcessPoolExecutor, originals[5])
        self.assertEqual(timer.calls["ingest.parse"], len(wl.queries))
        self.assertEqual(timer.calls["batch.solve_many"], 1)
        self.assertGreater(timer.calls["core.partition_chain"], 0)
        self.assertGreater(timer.counts["kernels.r_total"], 0)
        self.assertGreater(timer.counts["plan.queries"], 0)
        for layer, seconds in timer.self_s.items():
            self.assertGreaterEqual(seconds, 0.0, layer)
            self.assertLessEqual(seconds, timer.total_s[layer] + 1e-9, layer)

    def test_nested_spans_split_self_time(self):
        import time

        timer = layers.LayerTimer(".")
        inner = timer.wrap("inner", lambda: time.sleep(0.02))
        outer = timer.wrap("outer", lambda: (time.sleep(0.01), inner()))
        outer()
        self.assertAlmostEqual(timer.total_s["outer"],
                               timer.self_s["outer"] + timer.total_s["inner"], places=6)
        self.assertGreater(timer.self_s["inner"], timer.self_s["outer"])


class ContractTest(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

    def test_metric_names_and_units_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for section, emitted in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            declared = {m["name"]: m["unit"] for m in spec[section]}
            self.assertEqual(declared, emitted, section)
            for name in declared:
                self.assertRegex(name, self.NAME)
                self.assertLessEqual(len(name), 64)

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "batch_cold",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
