"""Unit tests for the batched query runner and the ``repro batch`` CLI."""

import json

import pytest

from repro.cli import main
from repro.core.bandwidth import bandwidth_min
from repro.core.feasibility import PartitioningError
from repro.core.inverse import chain_pareto_frontier, partition_chain_for_processors
from repro.core.pipeline import partition_chain
from repro.engine import OBJECTIVES, PartitionEngine, PartitionQuery
from repro.graphs.generators import random_chain


def make_queries(num=12, seed=100):
    queries = []
    for i in range(num):
        chain = random_chain(20 + 5 * i, rng=seed + i)
        bound = (1.5 + 0.5 * (i % 4)) * chain.max_vertex_weight()
        queries.append(
            PartitionQuery.from_chain(chain, bound, tag=f"q{i}")
        )
    return queries


class TestSolve:
    def test_bandwidth_matches_reference(self):
        engine = PartitionEngine()
        chain = random_chain(80, rng=1)
        bound = 2.0 * chain.max_vertex_weight()
        got = engine.solve(chain, bound)
        ref = bandwidth_min(chain, bound)
        assert (got.cut_indices, got.weight) == (ref.cut_indices, ref.weight)

    def test_other_objectives_delegate(self):
        engine = PartitionEngine()
        chain = random_chain(30, rng=2)
        bound = 2.0 * chain.max_vertex_weight()
        for objective in OBJECTIVES:
            got = engine.solve(chain, bound, objective)
            ref = partition_chain(chain, bound, objective)
            assert got.cut_indices == ref.cut_indices

    def test_unknown_objective(self):
        engine = PartitionEngine()
        chain = random_chain(10, rng=3)
        with pytest.raises(ValueError):
            engine.solve(chain, 100.0, "makespan")

    def test_without_native_kernel(self, monkeypatch):
        # A host with no C compiler: misses run the NumPy structure and
        # the Python sweep.
        from repro.engine import native

        monkeypatch.setattr(native, "load", lambda: None)
        engine = PartitionEngine()
        chain = random_chain(50, rng=4)
        bound = 2.0 * chain.max_vertex_weight()
        got = engine.solve(chain, bound)
        ref = bandwidth_min(chain, bound)
        assert (got.cut_indices, got.weight) == (ref.cut_indices, ref.weight)


class TestSolveMany:
    def test_serial_results_in_order(self):
        engine = PartitionEngine()
        queries = make_queries()
        results = engine.solve_many(queries)
        assert [r.index for r in results] == list(range(len(queries)))
        assert [r.tag for r in results] == [q.tag for q in queries]
        for query, result in zip(queries, results):
            ref = bandwidth_min(query.chain(), query.bound)
            assert result.ok
            assert (result.cut_indices, result.weight) == (
                ref.cut_indices,
                ref.weight,
            )

    def test_parallel_matches_serial(self):
        engine = PartitionEngine()
        queries = make_queries()
        serial = engine.solve_many(queries, max_workers=0)
        parallel = engine.solve_many(queries, max_workers=2, chunksize=1)
        assert [r.index for r in parallel] == list(range(len(queries)))
        assert [
            (r.cut_indices, r.weight, r.num_components) for r in parallel
        ] == [(r.cut_indices, r.weight, r.num_components) for r in serial]

    def test_errors_are_per_query(self):
        engine = PartitionEngine()
        chain = random_chain(10, rng=5)
        good = PartitionQuery.from_chain(
            chain, 2.0 * chain.max_vertex_weight(), tag="good"
        )
        bad = PartitionQuery.from_chain(
            chain, 0.1 * chain.max_vertex_weight(), tag="bad"
        )
        results = engine.solve_many([good, bad, good])
        assert [r.ok for r in results] == [True, False, True]
        assert "below the maximum vertex weight" in results[1].error

    def test_out_of_domain_inputs_are_per_query_errors(self):
        # NaN weights, a NaN bound and an overflowing total used to be
        # solved, with the engine and the reference disagreeing.
        nan = float("nan")
        engine = PartitionEngine()
        queries = [
            PartitionQuery((1.0, nan, 2.0), (1.0, 1.0), 5.0, tag="nan-task"),
            PartitionQuery((1.0, 2.0), (1.0,), nan, tag="nan-bound"),
            PartitionQuery(
                (1e308, 1e308, 1.0, 1e308), (3.0, 1.0, 2.0), 1.5e308,
                tag="overflow",
            ),
            PartitionQuery((1.0, 2.0), (1.0,), 3.0, tag="good"),
        ]
        results = engine.solve_many(queries)
        assert [r.ok for r in results] == [False, False, False, True]
        assert "non-finite" in results[0].error
        assert "positive and finite" in results[1].error
        assert "overflows" in results[2].error

    def test_nan_bound_rejected_by_solve(self):
        engine = PartitionEngine()
        with pytest.raises(ValueError, match="positive and finite"):
            engine.solve(random_chain(10, rng=5), float("nan"))

    def test_jsonl_round_trip(self):
        engine = PartitionEngine()
        queries = make_queries(num=4)
        lines = [
            json.dumps(
                {
                    "alpha": list(q.alpha),
                    "beta": list(q.beta),
                    "bound": q.bound,
                    "tag": q.tag,
                }
            )
            for q in queries
        ]
        results = engine.solve_jsonl(lines)
        direct = engine.solve_many(queries)
        assert [r.to_json() for r in results] == [r.to_json() for r in direct]


class TestBatchCli:
    def test_batch_subcommand(self, tmp_path, capsys):
        chain = random_chain(15, rng=6)
        records = [
            {
                "alpha": list(chain.alpha),
                "beta": list(chain.beta),
                "bound": 2.0 * chain.max_vertex_weight(),
                "tag": "ok",
            },
            {
                "alpha": [5.0, 1.0],
                "beta": [2.0],
                "bound": 0.5,
                "tag": "infeasible",
            },
        ]
        inp = tmp_path / "queries.jsonl"
        out = tmp_path / "results.jsonl"
        inp.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        code = main(
            ["batch", "--input", str(inp), "--output", str(out)]
        )
        assert code == 1  # one failed query
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [row["tag"] for row in rows] == ["ok", "infeasible"]
        assert rows[0]["weight"] == pytest.approx(
            bandwidth_min(chain, records[0]["bound"]).weight
        )
        assert "error" in rows[1]

    def test_batch_pooled_matches_serial(self, tmp_path):
        chain = random_chain(20, rng=61)
        records = [
            {
                "alpha": list(chain.alpha),
                "beta": list(chain.beta),
                "bound": (1.5 + 0.5 * i) * chain.max_vertex_weight(),
                "tag": f"s{i}",
            }
            for i in range(4)
        ]
        inp = tmp_path / "queries.jsonl"
        inp.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        serial_out = tmp_path / "serial.jsonl"
        pooled_out = tmp_path / "pooled.jsonl"
        assert main(["batch", "--input", str(inp), "--output", str(serial_out)]) == 0
        assert main(
            ["batch", "--workers", "2", "--input", str(inp),
             "--output", str(pooled_out)]
        ) == 0
        assert pooled_out.read_text() == serial_out.read_text()

    @pytest.mark.parametrize(
        "record",
        [
            {"alpha": "12", "bound": 5},
            {"alpha": [1, 2], "beta": "3", "bound": 5},
            {"alpha": 3, "beta": [], "bound": 5},
            {"alpha": {"0": 1}, "bound": 5},
            # Strings and booleans used to be coerced by float().
            {"alpha": ["3", "2"], "beta": [1], "bound": 5},
            {"alpha": [True, 2], "beta": [1], "bound": 5},
            {"alpha": [3, 2], "beta": [1], "bound": "5"},
            # Too large for a float: used to escape as an OverflowError.
            {"alpha": [1, 10**400], "beta": [1], "bound": 5},
            {"alpha": [1, 2], "beta": [1], "bound": 10**400},
        ],
    )
    def test_non_array_weights_are_invalid_records(self, tmp_path, capsys, record):
        # "alpha": "12" used to be read as the weights (1.0, 2.0).
        good = {"alpha": [1, 1], "beta": [1], "bound": 2}
        inp = tmp_path / "q.jsonl"
        out = tmp_path / "r.jsonl"
        inp.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="invalid query record on line 2"):
            PartitionEngine().solve_jsonl(inp.read_text().splitlines())
        args = ["batch", "--input", str(inp), "--output", str(out)]
        assert main(args) == 2
        serial_err = capsys.readouterr().err
        # The pool parses in its workers, with the same contract.
        assert main(args + ["--workers", "2", "--chunksize", "1"]) == 2
        assert capsys.readouterr().err == serial_err
        assert not out.exists()

    def test_output_is_strict_json(self, tmp_path):
        def reject(constant):
            raise AssertionError(f"non-standard JSON constant {constant}")

        records = [
            {"alpha": [1, 2], "beta": [1], "bound": 1e400, "tag": "inf"},
            {"alpha": [1, 2], "beta": [1], "bound": -1e400, "tag": "-inf"},
            {"alpha": [1, 2], "beta": [1], "bound": 1.5, "tag": "infeasible"},
            {"alpha": [1, 1], "beta": [1e400], "bound": 1, "tag": "inf-edge"},
            {"alpha": [1, 2, 3], "beta": [4, 5], "bound": 5, "tag": "ok"},
        ]
        inp = tmp_path / "q.jsonl"
        out = tmp_path / "r.jsonl"
        inp.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
            + '{"alpha": [1, 2], "beta": [1], "bound": NaN, "tag": "nan"}\n'
        )
        assert main(["batch", "--input", str(inp), "--output", str(out)]) == 1
        rows = [
            json.loads(line, parse_constant=reject)
            for line in out.read_text().splitlines()
        ]
        by_tag = {row["tag"]: row for row in rows}
        assert len(rows) == 6
        for tag in ("inf", "-inf", "nan"):
            assert by_tag[tag]["bound"] is None
            assert "positive and finite" in by_tag[tag]["error"]
        assert by_tag["infeasible"]["bound"] == 1.5
        assert by_tag["inf-edge"]["cut"] == [0]
        assert by_tag["inf-edge"]["weight"] is None
        assert by_tag["ok"]["weight"] == 4.0

    def test_trace_and_stream_files_are_strict_json(self, tmp_path, capsys):
        def reject(constant):
            raise AssertionError(f"non-standard JSON constant {constant}")

        records = [
            {"alpha": [1, 2], "beta": [1], "bound": 1e400, "tag": "inf"},
            {"alpha": [1, 1], "beta": [1e400], "bound": 1, "tag": "inf-edge"},
            {"alpha": [1, 2, 3], "beta": [4, 5], "bound": 5, "tag": "ok"},
        ]
        inp = tmp_path / "q.jsonl"
        inp.write_text("".join(json.dumps(r) + "\n" for r in records))
        trace = tmp_path / "trace.jsonl"
        stream = tmp_path / "stream.jsonl"
        for flag, path in (("--trace", trace), ("--stream", stream)):
            args = ["batch", "--input", str(inp), "--output",
                    str(tmp_path / "r.jsonl"), flag, str(path)]
            assert main(args) == 1
            lines = path.read_text().splitlines()
            assert lines
            for line in lines:
                json.loads(line, parse_constant=reject)
        assert main(["report", "--trace", str(trace)]) == 0
        assert main(["top", "--trace", str(stream), "--once"]) == 0
        capsys.readouterr()

    def test_batch_all_ok_exit_zero(self, tmp_path):
        inp = tmp_path / "q.jsonl"
        out = tmp_path / "r.jsonl"
        inp.write_text(
            json.dumps({"alpha": [1, 1, 1], "beta": [1, 1], "bound": 2}) + "\n"
        )
        assert main(["batch", "--input", str(inp), "--output", str(out)]) == 0


class TestPooledJsonl:
    """``solve_jsonl`` on a pool: workers parse their own raw lines."""

    @staticmethod
    def mixed_lines():
        chain = random_chain(30, rng=300)
        other = random_chain(24, rng=301)
        wmax = chain.max_vertex_weight()

        def line(c, bound, objective="bandwidth", tag=None):
            return json.dumps({
                "alpha": c.alpha_array.tolist(), "beta": c.beta_array.tolist(),
                "bound": bound, "objective": objective, "tag": tag,
            })

        return [
            line(chain, 2.0 * wmax, tag="a"),
            "",
            line(chain, 3.0 * wmax, tag="repeat-chain"),
            line(other, 2.5 * other.max_vertex_weight(), "processors", "tree"),
            "   ",
            line(chain, 0.5 * wmax, tag="infeasible"),
            line(chain, 2.0 * wmax, tag="repeat-query"),
            '{"alpha": [1, 2], "beta": [1], "bound": 1e400, "tag": "inf"}',
            line(other, 2.0 * other.max_vertex_weight(), "bottleneck", "tree-2"),
            line(chain, 4.0 * wmax, tag="c"),
            line(other, 3.0 * other.max_vertex_weight(), tag="d"),
        ]

    @pytest.mark.parametrize("chunksize", [1, 3, 100])
    def test_pooled_jsonl_matches_serial_bytes(self, chunksize):
        lines = self.mixed_lines()
        serial = PartitionEngine().solve_jsonl(lines, max_workers=0)
        pooled = PartitionEngine().solve_jsonl(
            lines, max_workers=2, chunksize=chunksize
        )
        assert [r.ok for r in serial].count(False) == 2
        assert [r.to_json() for r in pooled] == [r.to_json() for r in serial]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_lowest_bad_line_is_reported(self, workers):
        lines = self.mixed_lines()
        lines[3] = '{"alpha": [1, 2], "beta": [1]}'
        lines[9] = "not json"
        with pytest.raises(ValueError) as excinfo:
            PartitionEngine().solve_jsonl(lines, max_workers=workers, chunksize=2)
        assert str(excinfo.value) == "invalid query record on line 4: 'bound'"

    def test_traced_pool_ships_parse_spans_per_chunk(self):
        from repro.observability import Tracer

        lines = self.mixed_lines()
        serial = PartitionEngine(tracer=Tracer())
        serial.solve_jsonl(lines, max_workers=0)
        pooled = PartitionEngine(tracer=Tracer())
        pooled.solve_jsonl(lines, max_workers=2, chunksize=3)
        # Serially, parse is one span in the engine's own tracer.
        parse = serial.tracer.find("batch.parse")
        assert parse is not None and parse.attrs["lines"] == 9
        records = pooled.last_batch_stats.trace_records
        parses = [r for r in records if r["path"] == "batch.parse"]
        assert [r["attrs"]["lines"] for r in parses] == [3, 3, 3]
        assert [r["query_index"] for r in parses] == [0, 3, 6]
        # Every bandwidth query keeps its per-query span set (the
        # shape below the root depends on each process's cache).
        def roots(records):
            return [r["query_index"] for r in records if r["path"] == "cache_solve"]
        assert roots(records) == roots(serial.last_batch_stats.trace_records)
        assert roots(records) == [0, 1, 3, 4, 5, 7, 8]


def solve_per_call(queries):
    """Each query as a batch of its own (a lone query never plan-routes),
    numbered by its position in ``queries``."""
    engine = PartitionEngine()
    results = []
    for index, query in enumerate(queries):
        (result,) = engine.solve_many([query], max_workers=0)
        result.index = index
        results.append(result)
    return results


class TestPlanGrouping:
    """solve_many's fingerprint grouping through compiled plans."""

    def make_grouped_queries(self, num=12, chains=3, seed=200):
        queries = []
        pool = [random_chain(25 + 10 * c, rng=seed + c) for c in range(chains)]
        for i in range(num):
            chain = pool[i % chains]
            bound = (1.2 + 0.4 * (i % 5)) * chain.max_vertex_weight()
            queries.append(PartitionQuery.from_chain(chain, bound, tag=f"g{i}"))
        return queries

    def test_serial_plan_routing_matches_per_call(self):
        queries = self.make_grouped_queries()
        routed = PartitionEngine().solve_many(queries, max_workers=0)
        direct = solve_per_call(queries)
        assert [r.to_json() for r in routed] == [r.to_json() for r in direct]

    def test_plan_routing_shares_one_plan_per_chain(self):
        engine = PartitionEngine()
        engine.solve_many(self.make_grouped_queries(chains=3), max_workers=0)
        assert len(engine.plans) == 3
        assert engine.plans.stats.misses == 3

    def test_mixed_feasibility_and_objectives(self):
        chain = random_chain(20, rng=210)
        wmax = chain.max_vertex_weight()
        queries = [
            PartitionQuery.from_chain(chain, 2.0 * wmax, tag="ok-1"),
            PartitionQuery.from_chain(chain, 0.5 * wmax, tag="infeasible"),
            PartitionQuery.from_chain(
                chain, 2.0 * wmax, objective="processors", tag="procs"
            ),
            PartitionQuery.from_chain(chain, 3.0 * wmax, tag="ok-2"),
        ]
        routed = PartitionEngine().solve_many(queries, max_workers=0)
        direct = solve_per_call(queries)
        assert [r.ok for r in routed] == [True, False, True, True]
        assert [r.to_json() for r in routed] == [r.to_json() for r in direct]

    def test_pool_grouping_preserves_input_order(self):
        # Each worker plan-routes its own contiguous chunk; results
        # must still come home in input order.
        queries = self.make_grouped_queries(num=9, chains=3)
        parallel = PartitionEngine().solve_many(
            queries, max_workers=2, chunksize=1
        )
        serial = PartitionEngine().solve_many(queries, max_workers=0)
        assert [r.index for r in parallel] == list(range(len(queries)))
        assert [r.to_json() for r in parallel] == [r.to_json() for r in serial]

    def test_failed_plan_sweep_falls_back_per_call(self, monkeypatch):
        def broken(*args, **kwargs):
            raise PartitioningError("injected sweep failure")

        queries = self.make_grouped_queries(chains=3)
        direct = solve_per_call(queries)
        monkeypatch.setattr(PartitionEngine, "solve_sweep", broken)
        engine = PartitionEngine()
        routed = engine.solve_many(queries, max_workers=0)
        assert [r.to_json() for r in routed] == [r.to_json() for r in direct]
        assert engine.metrics.counter("engine.plan.group_fallbacks").value == 3

    def test_single_query_groups_stay_on_per_call_path(self):
        engine = PartitionEngine()
        chain = random_chain(18, rng=220)
        one = [PartitionQuery.from_chain(chain, 2.0 * chain.max_vertex_weight())]
        results = engine.solve_many(one, max_workers=0)
        assert results[0].ok
        # A lone query is a single-bound solve, never a sweep.
        assert engine.cache.stats.misses == 1
        assert engine.metrics.counter("engine.plan.sweeps").value == 0


class TestBatchTelemetry:
    def test_last_batch_stats_aggregates_serial(self):
        from repro.observability import Tracer

        engine = PartitionEngine(tracer=Tracer())
        queries = make_queries(num=6)
        results = engine.solve_many(queries, max_workers=0)
        batch = engine.last_batch_stats
        assert batch is not None
        assert batch.queries == 6
        assert batch.failures == 0
        assert batch.latency.count == 6
        assert batch.wall_s > 0.0
        # Worker spans arrive tagged and in query order.
        indices = [r["query_index"] for r in batch.trace_records]
        assert indices == sorted(indices)
        assert set(indices) == set(range(6))
        # The per-worker cache op-counts survive aggregation.
        assert batch.counter.get("cache_misses") == 6
        assert batch.cache.misses == 6
        assert all(r.ok for r in results)

    def test_parallel_aggregation_matches_serial_counts(self):
        from repro.observability import Tracer

        queries = make_queries(num=8)
        serial = PartitionEngine(tracer=Tracer())
        parallel = PartitionEngine(tracer=Tracer())
        serial.solve_many(queries, max_workers=0)
        parallel.solve_many(queries, max_workers=2, chunksize=1)
        a, b = serial.last_batch_stats, parallel.last_batch_stats
        assert b.workers == 2
        # Deterministic quantities agree across execution modes.
        assert (a.queries, a.failures) == (b.queries, b.failures)
        assert a.counter.as_dict() == b.counter.as_dict()
        assert [r["query_index"] for r in a.trace_records] == [
            r["query_index"] for r in b.trace_records
        ]
        assert [r["path"] for r in a.trace_records] == [
            r["path"] for r in b.trace_records
        ]

    def test_failures_counted(self):
        from repro.observability import Tracer

        engine = PartitionEngine(tracer=Tracer())
        chain = random_chain(10, rng=21)
        good = PartitionQuery.from_chain(
            chain, 2.0 * chain.max_vertex_weight()
        )
        bad = PartitionQuery.from_chain(
            chain, 0.1 * chain.max_vertex_weight()
        )
        engine.solve_many([good, bad])
        batch = engine.last_batch_stats
        assert (batch.queries, batch.failures) == (2, 1)
        assert batch.as_dict()["failures"] == 1

    def test_traced_results_identical_to_untraced(self):
        from repro.observability import Tracer

        queries = make_queries(num=5)
        plain = PartitionEngine().solve_many(queries)
        traced = PartitionEngine(tracer=Tracer()).solve_many(queries)
        assert [
            (r.cut_indices, r.weight, r.num_components) for r in traced
        ] == [(r.cut_indices, r.weight, r.num_components) for r in plain]
        # Telemetry rides on the result object but stays off the wire.
        assert [r.to_json() for r in traced] == [r.to_json() for r in plain]
        assert all("spans" in r.telemetry for r in traced)
        assert all("spans" not in r.telemetry for r in plain)

    def test_untraced_engine_records_no_batch_stats(self):
        engine = PartitionEngine()
        engine.solve_many(make_queries(num=3))
        batch = engine.last_batch_stats
        assert batch is not None
        assert batch.queries == 3
        assert batch.trace_records == []  # no spans without a tracer

    def test_snapshot_metrics_mirrors_cache_and_batch(self):
        from repro.observability import Tracer

        engine = PartitionEngine(tracer=Tracer())
        engine.solve_many(make_queries(num=4), max_workers=0)
        metrics = engine.snapshot_metrics()
        names = {r["name"] for r in metrics.records()}
        assert "engine.batch.queries" in names
        assert "engine.cache.hits" in names
        assert "engine.batch.query_latency_s" in names
        assert metrics.counter("engine.batch.queries").value == 4

    def test_engine_solve_traced(self):
        from repro.observability import Tracer

        tracer = Tracer()
        engine = PartitionEngine(tracer=tracer)
        chain = random_chain(60, rng=22)
        bound = 2.0 * chain.max_vertex_weight()
        got = engine.solve(chain, bound)
        assert got.weight == bandwidth_min(chain, bound).weight
        span = tracer.find("engine_solve")
        assert span is not None
        assert span.attrs["n"] == 60
        assert tracer.find("cache_solve") is not None


class TestInverseWiring:
    def test_budget_plan_with_engine_matches(self):
        chain = random_chain(60, rng=7)
        engine = PartitionEngine()
        plain = partition_chain_for_processors(chain, 4)
        cached = partition_chain_for_processors(chain, 4, engine=engine)
        assert cached.bound == plain.bound
        assert (
            cached.bandwidth_cut.cut_indices == plain.bandwidth_cut.cut_indices
        )

    def test_chain_pareto_frontier(self):
        chain = random_chain(50, rng=8)
        rows = chain_pareto_frontier(chain, 5)
        assert [row["processors"] for row in rows] == [1, 2, 3, 4, 5]
        # Bounds tighten as the budget grows; bandwidth can only rise.
        bounds = [row["bound"] for row in rows]
        assert bounds == sorted(bounds, reverse=True)
        for row in rows:
            plan = partition_chain_for_processors(chain, row["processors"])
            assert row["bound"] == plan.bound
            assert row["bandwidth"] == plan.bandwidth_cut.weight
