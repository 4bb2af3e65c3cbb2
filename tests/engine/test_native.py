"""The native fused Algorithm 4.1 kernel against the pure-Python reference.

The kernel must return the reference's answer bit for bit on every
accepted input: the cut, the component count, the weight's exact bits
and the smallest prime weight (the cache's stability interval).  The
strategies aim at the places where a reordered float expression would
show: ties at the bound (``0.1 * 3`` against ``0.3``), subnormals,
1e300-scale weights whose total is still finite, ``K == max alpha`` and
zero edge weights.
"""

import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core.bandwidth import bandwidth_min
from repro.core.prime_subpaths import PrimeStructure
from repro.engine import PartitionEngine, native
from repro.engine.cache import PrimeStructureCache
from repro.engine.kernels import beta_array, prefix_array
from repro.graphs.chain import Chain
from repro.graphs.generators import random_chain
from repro.observability import Tracer

needs_native = pytest.mark.skipif(
    native.load() is None, reason="no C compiler or writable build cache"
)

#: Task weights: tie-prone decimals, subnormals, 1e300-scale values
#: (at most 30 of them stay far below the float64 maximum) and a
#: continuous spread.
task_weight = st.one_of(
    st.sampled_from([0.1, 0.2, 0.3, 1.0, 3.0, 5e-324, 1e-310, 1e300, 3e300]),
    st.floats(min_value=1e-3, max_value=1e3),
)
#: Edge weights, including ``inf`` (a forbidden edge, valid input).
edge_weight = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0, 5e-324, 1e300, float("inf")]),
    st.floats(min_value=0.0, max_value=1e3),
)


@st.composite
def chain_and_bound(draw, max_tasks=30):
    n = draw(st.integers(min_value=1, max_value=max_tasks))
    if draw(st.booleans()):
        alpha = [draw(task_weight)] * n  # all-equal weights
    else:
        alpha = draw(st.lists(task_weight, min_size=n, max_size=n))
    beta = draw(st.lists(edge_weight, min_size=n - 1, max_size=n - 1))
    chain = Chain(alpha, beta)
    wmax = max(alpha)
    lo = draw(st.integers(min_value=0, max_value=n - 1))
    hi = draw(st.integers(min_value=lo, max_value=n - 1))
    bound = draw(
        st.sampled_from(
            [
                wmax,  # K == max alpha
                chain.segment_weight(lo, hi),  # a window weight exactly
                0.1 * 3,
                0.3,
                wmax * draw(st.floats(min_value=1.0, max_value=8.0)),
            ]
        )
    )
    return chain, max(bound, wmax)


def assert_matches_reference(chain, bound, apply_reduction=True):
    got = native.fused_solve(
        prefix_array(chain), beta_array(chain), bound, apply_reduction
    )
    ref = bandwidth_min(chain, bound, apply_reduction=apply_reduction)
    structure = PrimeStructure.compute(
        chain, bound, apply_reduction=apply_reduction
    )
    assert got.cut == ref.cut_indices
    assert len(got.cut) + 1 == ref.num_components
    assert got.weight.hex() == ref.weight.hex()
    assert got.min_prime_weight == structure.min_prime_weight()
    assert (got.p, got.r) == (structure.p, structure.r)


@needs_native
class TestDifferential:
    @settings(max_examples=400, deadline=None)
    @given(chain_and_bound(), st.booleans())
    @example((Chain([0.1, 0.1, 0.1, 0.3], [1.0, 2.0, 3.0]), 0.3), True)
    @example((Chain([1e300, 1e300, 1e300], [0.0, 0.0]), 2e300), True)
    @example((Chain([5e-324, 5e-324, 1e-310], [0.0, 1.0]), 1e-310), False)
    def test_bit_identical_to_reference(self, data, apply_reduction):
        chain, bound = data
        assert_matches_reference(chain, bound, apply_reduction)

    @pytest.mark.parametrize(
        "alpha, beta, bound",
        [
            ([5.0], [], 5.0),  # n = 1
            ([2.0, 3.0], [4.0], 3.0),  # n = 2, K == max alpha
            ([2.0, 3.0], [4.0], 5.0),  # n = 2, the pair fits
            ([1.0] * 12, [2.0] * 11, 3.0),  # all-equal weights
            ([4, 3, 5, 2, 6], [0, 0, 0, 0], 9.0),  # zero beta
            ([4, 3, 5, 2, 6], [7, 1, 9, 2], 6.0),  # K == max alpha
            ([0.1, 0.2, 0.3, 0.1, 0.2], [1, 1, 1, 1], 0.1 * 3),
            ([0.1, 0.2, 0.3, 0.1, 0.2], [1, 1, 1, 1], 0.3),
        ],
    )
    def test_boundary_cases(self, alpha, beta, bound):
        assert_matches_reference(Chain(alpha, beta), bound)

    def test_large_chain(self):
        chain = random_chain(20_000, rng=7)
        assert_matches_reference(chain, 4.0 * chain.max_vertex_weight())


@needs_native
class TestCacheIntegration:
    def test_miss_is_served_by_the_kernel(self, monkeypatch):
        calls = []
        real = native.fused_solve

        def spy(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(native, "fused_solve", spy)
        chain = random_chain(200, rng=11)
        bound = 2.0 * chain.max_vertex_weight()
        cache = PrimeStructureCache()
        result = cache.solve(chain, bound)
        assert calls == [bound]
        ref = bandwidth_min(chain, bound)
        assert result.cut_indices == ref.cut_indices
        assert result.weight.hex() == ref.weight.hex()

    def test_interval_comes_from_the_kernel(self):
        chain = random_chain(200, rng=12)
        bound = 2.0 * chain.max_vertex_weight()
        cache = PrimeStructureCache()
        cache.solve(chain, bound)
        (cached,) = cache.plans.get(chain)._memo.values()
        assert cached.result is not None  # the kernel returned the cut too
        reference = PrimeStructure.compute(chain, bound)
        assert cached.valid_until == reference.min_prime_weight()
        inside = (bound + cached.valid_until) / 2.0
        cache.solve(chain, inside)
        assert cache.stats.interval_hits == 1

    def test_structure_is_built_lazily_and_matches(self, monkeypatch):
        # A sweep-built entry keeps only its weight (unless verification
        # asks the sweep for cuts); the first single query it serves
        # reconstructs the cut with the kernel.
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        chain = random_chain(150, rng=13)
        bound = 2.0 * chain.max_vertex_weight()
        cache = PrimeStructureCache()
        plan = cache.plans.get(chain)
        plan.solve_bounds([bound])
        (cached,) = plan._memo.values()
        assert cached.result is None
        result = cache.solve(chain, bound)
        reference = bandwidth_min(chain, bound)
        assert result.cut_indices == reference.cut_indices
        assert result.weight.hex() == reference.weight.hex()
        assert cached.result is result
        assert cache.stats.misses == 0 and cache.stats.hits == 1

    def test_traced_miss_emits_one_kernel_dispatch(self):
        chain = random_chain(150, rng=15)
        bound = 2.0 * chain.max_vertex_weight()
        structure = PrimeStructure.compute(chain, bound)
        tracer = Tracer()
        cache = PrimeStructureCache()
        cache.solve(chain, bound, tracer=tracer)
        dispatches = [
            s for s in tracer.iter_spans() if s.name == "kernel_dispatch"
        ]
        assert len(dispatches) == 1
        attrs = dispatches[0].attrs
        assert attrs["kernel"] == "native_fused"
        assert attrs["n"] == chain.num_tasks
        assert (attrs["p"], attrs["r"]) == (structure.p, structure.r)
        solve_span = tracer.find("cache_solve")
        assert solve_span.attrs["outcome"] == "miss"
        assert solve_span.attrs["sweep_ran"] is True
        # A repeat is a hit: no dispatch, no sweep.
        repeat = Tracer()
        cache.solve(chain, bound, tracer=repeat)
        assert repeat.find("kernel_dispatch") is None
        assert repeat.find("cache_solve").attrs["outcome"] == "hit"
        assert repeat.find("cache_solve").attrs["sweep_ran"] is False

    def test_verify_mode_cross_checks_fused_results(self, monkeypatch):
        import repro.verify.runtime as runtime

        checked = []
        real = runtime.maybe_verify_cache_solve

        def spy(chain, bound, result, **kwargs):
            checked.append(bound)
            return real(chain, bound, result, **kwargs)

        monkeypatch.setenv("REPRO_VERIFY", "1")
        monkeypatch.setattr(runtime, "maybe_verify_cache_solve", spy)
        chain = random_chain(80, rng=16)
        bound = 2.0 * chain.max_vertex_weight()
        cache = PrimeStructureCache()
        cache.solve(chain, bound)
        cache.solve(chain, bound)
        assert checked == [bound, bound]


def _sweep_answers(engine, chains):
    answers = []
    for chain in chains:
        wmax = chain.max_vertex_weight()
        for factor in (1.0, 1.5, 1.5, 2.5, 4.0, 2.0):
            result = engine.solve(chain, factor * wmax)
            answers.append((result.cut_indices, result.weight.hex()))
    stats = engine.cache_stats()
    return answers, (stats.hits, stats.interval_hits, stats.misses)


def test_traced_fallback_emits_one_structure_dispatch(monkeypatch):
    monkeypatch.setattr(native, "load", lambda: None)
    chain = random_chain(150, rng=15)
    bound = 2.0 * chain.max_vertex_weight()
    structure = PrimeStructure.compute(chain, bound)
    tracer = Tracer()
    PrimeStructureCache().solve(chain, bound, tracer=tracer)
    dispatches = [s for s in tracer.iter_spans() if s.name == "kernel_dispatch"]
    assert len(dispatches) == 1
    assert dispatches[0].attrs["kernel"] == "prime_structure"
    assert (dispatches[0].attrs["p"], dispatches[0].attrs["r"]) == (
        structure.p, structure.r,
    )
    assert tracer.find("cache_solve").attrs["sweep_ran"] is True


def test_forced_fallback_gives_same_answers_and_stats(monkeypatch):
    chains = [random_chain(n, rng=n) for n in (1, 2, 30, 300)]
    native_run = _sweep_answers(PartitionEngine(), chains)
    monkeypatch.setattr(native, "load", lambda: None)
    assert native.fused_solve(np.zeros(2), np.zeros(0), 1.0) is None
    fallback_run = _sweep_answers(PartitionEngine(), chains)
    assert fallback_run == native_run
    reference = [
        (r.cut_indices, r.weight.hex())
        for r in (
            bandwidth_min(chain, factor * chain.max_vertex_weight())
            for chain in chains
            for factor in (1.0, 1.5, 1.5, 2.5, 4.0, 2.0)
        )
    ]
    assert fallback_run[0] == reference


class TestLoader:
    def test_source_ships_as_package_data(self):
        source = resources.files("repro.engine.native").joinpath(
            native.SOURCE_NAME
        )
        assert source.is_file()
        assert native.SYMBOL in source.read_text(encoding="utf-8")

    def test_library_name_is_keyed_by_source(self):
        assert native.library_name(b"a") != native.library_name(b"b")
        assert native.library_name(b"a") == native.library_name(b"a")

    def test_float_discipline_flags(self):
        assert "-ffp-contract=off" in native.CFLAGS
        assert not any("fast-math" in flag for flag in native.CFLAGS)

    def test_import_does_not_build_or_load(self):
        code = (
            "import sys, repro, repro.engine; "
            "print('repro.engine.native' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, cwd=Path(__file__).resolve().parents[2],
            env=dict(os.environ, PYTHONPATH=str(Path(native.__file__).parents[3])),
        )
        assert out.stdout.strip() == "False"

    @needs_native
    def test_builds_into_cache_and_reuses_it(self, tmp_path, monkeypatch):
        monkeypatch.setattr(native, "_loaded", [])
        monkeypatch.setattr(native, "cache_dirs", lambda: [tmp_path / "cache"])
        assert native.load() is not None
        built = list((tmp_path / "cache").iterdir())
        assert [p.name for p in built] == [
            native.library_name(native.source_path().read_bytes())
        ]
        # A second process-level load finds the cached file: no compile.
        monkeypatch.setattr(native, "_loaded", [])
        monkeypatch.setattr(native, "_compile", lambda *a: False)
        assert native.load() is not None

    @needs_native
    def test_mismatched_arrays_are_rejected_before_the_call(self):
        with pytest.raises(ValueError, match="length"):
            native.fused_solve(np.zeros(4), np.zeros(1), 1.0)
        with pytest.raises(ValueError, match="length"):
            native.fused_solve(np.zeros(1), np.zeros(0), 1.0)

    def test_no_compiler_means_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setattr(native, "_loaded", [])
        monkeypatch.setattr(native, "cache_dirs", lambda: [tmp_path / "empty"])
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
        assert native.load() is None
        assert native.fused_solve(np.zeros(2), np.zeros(0), 1.0) is None

    def test_unwritable_cache_means_fallback(self, tmp_path, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        monkeypatch.setattr(native, "_loaded", [])
        monkeypatch.setattr(native, "cache_dirs", lambda: [blocker / "sub"])
        assert native.load() is None

    def test_shared_directory_is_refused(self, tmp_path):
        shared = tmp_path / "shared"
        shared.mkdir()
        shared.chmod(0o777)
        assert not native._private_dir(shared)
        assert native._private_dir(tmp_path / "private")
