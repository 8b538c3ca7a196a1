"""Differential tests for the fused cache engine and its backends.

The load-bearing invariant of ``repro.cache.fused``: every backend
(``numpy`` per-batch, ``fused`` chunked sweeps, ``native`` compiled
walk) produces **bit-identical** results — same per-level miss counts,
same writeback counts, same rendered experiment bytes — differing only
in speed.  These tests pin that invariant across the matrix of
geometries (direct-mapped and associative), write traffic (dirty and
clean), and warmup, plus the kernels' own oracles (the sequential
per-access loops).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import telemetry
from repro.cache import _native, build_hierarchy, resolve_backend
from repro.cache.cache import CacheLevel, dm_sweep, set_order
from repro.cache.fused import BACKENDS, FusedHierarchy
from repro.cache.hierarchy import CacheHierarchy
from repro.config import (
    ALLCACHE_SIM,
    SNIPER_SIM,
    SNIPER_TABLE_III,
    CacheConfig,
)
from repro.errors import ConfigError
from repro.isa.trace import SliceTrace
from repro.pin.engine import Engine
from repro.pin.tools.allcache import AllCache

#: Backends that resolve to themselves on this machine.
AVAILABLE = [b for b in BACKENDS if resolve_backend(b) == b]

needs_native = pytest.mark.skipif(
    "native" not in AVAILABLE, reason="no working C compiler"
)


def make_trace(rng, index=0, n_mem=300, n_if=60, writes=True, span=2000,
               mem=None):
    """A small random slice trace over a bounded address span.

    ``mem`` replaces the random data stream (``n_mem`` and ``span`` are
    then ignored).
    """
    if mem is None:
        mem = rng.integers(0, span, size=n_mem).astype(np.int64)
    n_mem = mem.size
    if writes:
        is_write = rng.random(n_mem) < 0.3
    else:
        is_write = np.zeros(n_mem, dtype=bool)
    return SliceTrace(
        index=index,
        phase_id=0,
        instruction_count=1000,
        block_counts=np.array([1000], dtype=np.int64),
        class_counts=np.array([700, 200, 100, 0], dtype=np.int64),
        mem_lines=mem,
        mem_is_write=is_write,
        ifetch_lines=rng.integers(4096, 4096 + 300, size=n_if).astype(
            np.int64
        ),
        branch_count=10,
        branch_entropy=0.5,
    )


def crowded_trace(rng, index=0, writes=True):
    """A slice whose data stream mixes a hot set with lines crowding a
    few sets of every level: hits at every level, plus LRU evictions
    and dirty writebacks in the associative L2 and L3."""
    hot = rng.integers(0, 4000, size=700)
    crowd = (rng.integers(0, 512, size=800) * 4096
             + rng.integers(0, 32, size=800))
    mem = rng.permutation(np.concatenate([hot, crowd])).astype(np.int64)
    return make_trace(rng, index=index, writes=writes, mem=mem)


def oracle_hierarchy(config) -> CacheHierarchy:
    """A per-batch hierarchy whose every level runs its oracle loop."""
    hierarchy = CacheHierarchy(config)
    hierarchy.l1i, hierarchy.l1d, hierarchy.l2, hierarchy.l3 = (
        CacheLevel(level.config, reference=True)
        for level in hierarchy.levels
    )
    return hierarchy


def level_contents(level: CacheLevel) -> list:
    """Per-set resident ``(tag, dirty)`` pairs, MRU first, whichever
    state representation the level keeps."""
    if level._assoc == 1:
        return [
            [(tag, dirty)] if tag >= 0 else []
            for tag, dirty in zip(level._resident.tolist(),
                                  level._dirty.tolist())
        ]
    if level._sets is not None:
        return [[(tag, bool(dirty)) for tag, dirty in reversed(entry.items())]
                for entry in level._sets]
    return [[(way >> 1, bool(way & 1)) for way in row if way >= 0]
            for row in level._way_state.tolist()]


def level_stats(tool: AllCache) -> dict:
    return {
        name: (s.accesses, s.misses, s.writebacks)
        for name, s in tool.stats().items()
    }


class TestDmSweepKernel:
    """The run-collapse sweep against the sequential DM oracle."""

    def _pair(self, size=2048, line=32):
        config = CacheConfig("T", size_bytes=size, line_size=line,
                             associativity=1)
        return CacheLevel(config), CacheLevel(config, reference=True)

    @pytest.mark.parametrize("with_writes", [True, False])
    def test_fuzz_matches_reference(self, with_writes):
        rng = np.random.default_rng(7 + with_writes)
        fast, oracle = self._pair()
        for batch in range(40):
            n = int(rng.integers(1, 400))
            lines = rng.integers(0, 600, size=n) * 32
            writes = (
                (rng.random(n) < 0.4) if with_writes else None
            )
            miss_f = fast.access_many(lines, writes)
            miss_o = oracle.access_many(lines, writes)
            np.testing.assert_array_equal(miss_f, miss_o)
            assert fast.stats.writebacks == oracle.stats.writebacks
            np.testing.assert_array_equal(fast._resident, oracle._resident)
            np.testing.assert_array_equal(fast._dirty, oracle._dirty)

    def test_sweep_reports_sorted_positions_and_updates_state(self):
        resident = np.full(8, -1, dtype=np.int64)
        dirty = np.zeros(8, dtype=bool)
        lines = np.array([0, 8, 0, 16, 0], dtype=np.int64)  # set 0 x5
        writes = np.array([True, False, False, False, False])
        miss_idx, writebacks = dm_sweep(resident, dirty, 7, 3, lines, writes)
        # Runs: [0], [8], [0], [16], [0] -- every access is a run head
        # and every run is a miss; the dirty first run is written back
        # when 8 evicts it.
        assert sorted(miss_idx.tolist()) == [0, 1, 2, 3, 4]
        assert writebacks == 1
        assert resident[0] == 0 and not dirty[0]

    def test_set_order_groups_by_set_preserving_program_order(self):
        rng = np.random.default_rng(11)
        lines = rng.integers(0, 512, size=1000).astype(np.int64)
        order = set_order(lines, 63)
        expected = np.argsort(lines & 63, kind="stable")
        np.testing.assert_array_equal(order, expected)


class TestInstallVectorized:
    """Grouped install against the per-line reference loop."""

    def _pair(self, assoc=4):
        config = CacheConfig("T", size_bytes=4096, line_size=32,
                             associativity=assoc)
        return CacheLevel(config), CacheLevel(config, reference=True)

    @pytest.mark.parametrize("assoc", [2, 4, 8])
    def test_fuzz_matches_reference(self, assoc):
        rng = np.random.default_rng(13 + assoc)
        fast, oracle = self._pair(assoc)
        for round_ in range(25):
            n = int(rng.integers(1, 200))
            lines = rng.integers(0, 400, size=n) * 32
            if round_ % 2:
                writes = rng.random(n) < 0.3
                np.testing.assert_array_equal(
                    fast.access_many(lines, writes),
                    oracle.access_many(lines, writes),
                )
            else:
                fast.install(lines)
                oracle.install(lines)
        probe = rng.integers(0, 400, size=500) * 32
        np.testing.assert_array_equal(
            fast.access_many(probe), oracle.access_many(probe)
        )
        assert fast.stats.writebacks == oracle.stats.writebacks

    def test_repeat_with_interleaved_line_is_not_deduplicated(self):
        # Install stream [a, c, a]: dropping the second ``a`` (as a
        # non-consecutive dedup would) loses its move-to-MRU, flipping
        # which line a later conflict evicts.
        fast, oracle = self._pair(assoc=2)
        a, b = 0, 32 * 128  # same set of the 2-way config
        c = 32 * 256
        for level in (fast, oracle):
            level.access_many(np.array([a, b], dtype=np.int64))
            level.install(np.array([a, c, a], dtype=np.int64))
        probe = np.array([b, a], dtype=np.int64)
        np.testing.assert_array_equal(
            fast.access_many(probe), oracle.access_many(probe)
        )


@pytest.mark.parametrize("backend", AVAILABLE)
@pytest.mark.parametrize("caches", [ALLCACHE_SIM, SNIPER_TABLE_III.caches],
                         ids=["direct-mapped", "associative"])
@pytest.mark.parametrize("writes", [True, False], ids=["dirty", "clean"])
@pytest.mark.parametrize("warmup", [0, 4], ids=["cold", "warmed"])
class TestBackendMatrix:
    """backends x geometry x write-traffic x warmup: identical stats."""

    def test_matches_numpy_reference(self, backend, caches, writes, warmup):
        rng = np.random.default_rng(42)
        traces = [
            make_trace(rng, index=i, writes=writes) for i in range(12)
        ]

        def replay(b):
            tool = AllCache(config=caches, backend=b)
            Engine([tool]).run(traces[warmup:], warmup=traces[:warmup])
            return level_stats(tool)

        reference = replay("numpy")
        assert replay(backend) == reference
        assert reference["L1D"][0] == sum(
            t.mem_lines.size for t in traces[warmup:]
        )


class TestChunkInvariance:
    """Chunk boundaries are invisible: any flush threshold, same result."""

    @pytest.mark.parametrize("chunk", [1, 997, 10**9])
    def test_results_do_not_depend_on_chunk(self, chunk):
        rng = np.random.default_rng(3)
        traces = [make_trace(rng, index=i) for i in range(10)]
        reference = CacheHierarchy(ALLCACHE_SIM)
        fused = FusedHierarchy(ALLCACHE_SIM, backend="fused",
                               chunk_refs=chunk)
        for hierarchy in (reference, fused):
            for trace in traces:
                hierarchy.process_trace(trace)
            hierarchy.drain()
        assert fused.snapshot() == reference.snapshot()

    def test_direct_access_drains_buffer_first(self):
        rng = np.random.default_rng(5)
        trace = make_trace(rng)
        reference = CacheHierarchy(ALLCACHE_SIM)
        fused = FusedHierarchy(ALLCACHE_SIM, backend="fused",
                               chunk_refs=10**9)
        extra = np.array([0, 64, 0], dtype=np.int64)
        for hierarchy in (reference, fused):
            hierarchy.process_trace(trace)
            # The per-batch call on the buffered hierarchy must observe
            # the slice's effects, i.e. drain before accessing.
            hierarchy.access_data(extra)
        assert fused.snapshot() == reference.snapshot()


@needs_native
class TestNativeLruWalk:
    """The native walk over associative levels against the oracles."""

    @pytest.mark.parametrize("chunk", [1, 7, None], ids=["1", "7", "default"])
    @pytest.mark.parametrize("caches", [SNIPER_SIM.caches,
                                        SNIPER_TABLE_III.caches],
                             ids=["sniper-sim", "table-iii"])
    @pytest.mark.parametrize("writes", [True, False], ids=["dirty", "clean"])
    @pytest.mark.parametrize("warmup", [0, 3], ids=["cold", "warmed"])
    def test_matches_reference_hierarchy(self, chunk, caches, writes,
                                         warmup):
        rng = np.random.default_rng(21)
        traces = [crowded_trace(rng, i, writes) for i in range(10)]
        native = FusedHierarchy(caches, backend="native", chunk_refs=chunk)
        oracle = oracle_hierarchy(caches)
        for hierarchy in (native, oracle):
            hierarchy.set_recording(False)
            for trace in traces[:warmup]:
                hierarchy.process_trace(trace)
            hierarchy.set_recording(True)
            for trace in traces[warmup:]:
                hierarchy.process_trace(trace)
        expected = oracle.snapshot()
        assert native.snapshot() == expected
        for fast, slow in zip(native.levels, oracle.levels):
            assert level_contents(fast) == level_contents(slow), fast.name
        # The traffic reaches the LRU paths it is meant to pin.
        assert expected.levels["L3"].accesses > expected.levels["L3"].misses
        assert (expected.levels["L2"].writebacks > 0) == writes

    def test_drains_interleave_with_per_batch_and_install(self):
        rng = np.random.default_rng(23)
        traces = [crowded_trace(rng, i) for i in range(8)]
        extra = crowded_trace(rng, 99)
        fills = rng.integers(0, 1 << 16, size=300).astype(np.int64)
        native = FusedHierarchy(SNIPER_SIM.caches, backend="native",
                                chunk_refs=10**9)
        oracle = oracle_hierarchy(SNIPER_SIM.caches)
        for hierarchy in (native, oracle):
            for trace in traces[:4]:
                hierarchy.process_trace(trace)
            # Drains, then runs the wave path on the walk's own stacks.
            hierarchy.access_data(extra.mem_lines, extra.mem_is_write)
            for trace in traces[4:6]:
                hierarchy.process_trace(trace)
            # install() bypasses the buffer, so drain first.
            hierarchy.drain()
            hierarchy.l2.install(fills)
            hierarchy.l3.install(fills)
            for trace in traces[6:]:
                hierarchy.process_trace(trace)
            hierarchy.drain()
        assert native.l2._sets is None and native.l3._sets is None
        assert native.snapshot() == oracle.snapshot()
        for fast, slow in zip(native.levels, oracle.levels):
            assert level_contents(fast) == level_contents(slow), fast.name


class TestBackendResolution:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            resolve_backend("verilog")

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_BACKEND", "fused")
        assert resolve_backend() == "fused"
        assert isinstance(build_hierarchy(ALLCACHE_SIM), FusedHierarchy)
        monkeypatch.setenv("REPRO_CACHE_BACKEND", "numpy")
        assert resolve_backend() == "numpy"
        built = build_hierarchy(ALLCACHE_SIM)
        assert not isinstance(built, FusedHierarchy)

    def test_missing_compiler_falls_back_to_fused_with_counter(
        self, monkeypatch
    ):
        monkeypatch.setattr(_native, "load_kernel", lambda: None)
        recorder = telemetry.TraceRecorder()
        with telemetry.using_recorder(recorder):
            assert resolve_backend("native") == "fused"
        key = "cache.fused.fallback{requested=native,to=fused}"
        assert recorder.metrics.counters.get(key, 0) == 1

    def test_native_requested_through_environment_is_honoured(self):
        # CI runs the differential suite with the native backend pinned
        # in the environment.  A silent fallback to fused there would
        # leave the compiled walk untested, so it fails rather than
        # skips.
        if os.environ.get("REPRO_CACHE_BACKEND") == "native":
            assert resolve_backend() == "native"

    def test_auto_resolves_to_available_backend(self):
        assert resolve_backend("auto") in ("native", "fused")


class TestFusedTelemetry:
    def test_drain_emits_span_and_counters(self):
        rng = np.random.default_rng(9)
        recorder = telemetry.TraceRecorder()
        with telemetry.using_recorder(recorder):
            fused = FusedHierarchy(ALLCACHE_SIM, backend="fused")
            fused.process_trace(make_trace(rng))
            fused.drain()
        names = [e["name"] for e in recorder.events]
        assert "cache.fused" in names
        counters = recorder.metrics.counters
        assert counters.get("cache.fused.waves", 0) > 0
        assert counters.get("cache.fused.backend{backend=fused}", 0) >= 1

    @needs_native
    def test_walk_levels_count_their_strategy(self):
        recorder = telemetry.TraceRecorder()
        with telemetry.using_recorder(recorder):
            FusedHierarchy(SNIPER_SIM.caches, backend="native")
        counters = recorder.metrics.counters
        for level in ("L2", "L3"):
            key = f"cache.strategy{{level={level},path=walk}}"
            assert counters.get(key, 0) == 1

    @pytest.mark.parametrize(
        "backend", [b for b in AVAILABLE if b != "numpy"]
    )
    def test_sniper_region_nests_cache_spans(self, backend, monkeypatch):
        from repro.sniper import SniperSimulator

        monkeypatch.setenv("REPRO_CACHE_BACKEND", backend)
        rng = np.random.default_rng(29)
        traces = [crowded_trace(rng, i) for i in range(6)]
        recorder = telemetry.TraceRecorder()
        with telemetry.using_recorder(recorder):
            SniperSimulator().run_region(traces[2:], warmup=traces[:2])
        (region,) = [e for e in recorder.events
                     if e["name"] == "sniper.region"]
        drains = [e for e in recorder.events if e["name"] == "cache.fused"]
        # One drain at the warmup boundary, one at the closing snapshot.
        assert len(drains) == 2
        for drain in drains:
            assert drain["depth"] == region["depth"] + 1
            assert drain["args"]["backend"] == backend
            assert region["ts"] <= drain["ts"]
            assert (drain["ts"] + drain["dur"]
                    <= region["ts"] + region["dur"])


class TestExperimentBytes:
    """Rendered experiment output is backend-independent, byte for byte:
    fig8/fig10 through ``allcache``, fig12 through Sniper and the perf
    model."""

    QUICK = dict(slice_size=3000, total_slices=120)

    def _render(self, backend, tmp_path, monkeypatch, figures, bench):
        from repro.experiments import common
        from repro.experiments.common import configure_cache

        monkeypatch.setenv("REPRO_CACHE_BACKEND", backend)
        configure_cache(tmp_path / backend)
        common._MEMO.clear()
        return "\n".join(
            render(run([bench], jobs=1, **self.QUICK))
            for run, render in figures
        )

    def _assert_identical(self, tmp_path, monkeypatch, figures, bench):
        renders = {
            backend: self._render(backend, tmp_path, monkeypatch,
                                  figures, bench)
            for backend in AVAILABLE
        }
        reference = renders["numpy"]
        assert bench in reference
        for backend, text in renders.items():
            assert text == reference, f"{backend} diverged from numpy"

    def test_fig8_fig10_bytes_identical_across_backends(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments.fig8 import render_fig8, run_fig8
        from repro.experiments.fig10 import render_fig10, run_fig10

        figures = [(run_fig8, render_fig8), (run_fig10, render_fig10)]
        self._assert_identical(tmp_path, monkeypatch, figures,
                               "620.omnetpp_s")

    def test_fig12_bytes_identical_across_backends(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments.fig12 import render_fig12, run_fig12

        self._assert_identical(tmp_path, monkeypatch,
                               [(run_fig12, render_fig12)], "544.nab_r")
