"""The slice-trace memo: transparent, bounded, bit-identical."""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.workloads import slicecache
from repro.workloads.slicecache import SliceTraceCache
from repro.workloads.spec2017 import build_program


@pytest.fixture(autouse=True)
def _fresh_memo():
    """Each test starts from an empty memo."""
    slicecache.reset_slice_cache()
    yield
    slicecache.reset_slice_cache()


def test_repeat_generation_is_a_hit_returning_the_same_trace():
    program = build_program("505.mcf_r", slice_size=3000, total_slices=120)
    recorder = telemetry.TraceRecorder()
    with telemetry.using_recorder(recorder):
        first = program.generate_slice(5)
        second = program.generate_slice(5)
    assert second is first
    counters = recorder.metrics.counters
    assert counters.get("slice.cache.miss", 0) == 1
    assert counters.get("slice.cache.hit", 0) == 1


def test_equal_content_shares_entries_name_does_not_matter():
    kwargs = dict(slice_size=3000, total_slices=120)
    a = build_program("505.mcf_r", **kwargs)
    b = build_program("505.mcf_r", **kwargs)
    assert a is not b
    assert b.generate_slice(3) is a.generate_slice(3)


def test_different_seeds_do_not_collide():
    a = build_program("505.mcf_r", slice_size=3000, total_slices=120)
    b = build_program("557.xz_r", slice_size=3000, total_slices=120)
    assert a._trace_key != b._trace_key
    assert b.generate_slice(3) is not a.generate_slice(3)


def test_cleared_memo_regenerates_bit_identically():
    program = build_program("505.mcf_r", slice_size=3000, total_slices=120)
    cached = program.generate_slice(7)
    slicecache.reset_slice_cache()
    assert len(slicecache.get_slice_cache()) == 0
    fresh = program.generate_slice(7)
    assert fresh is not cached
    for field in ("block_counts", "class_counts", "mem_lines",
                  "mem_is_write", "ifetch_lines"):
        np.testing.assert_array_equal(
            getattr(fresh, field), getattr(cached, field)
        )
    assert fresh.instruction_count == cached.instruction_count


def test_cached_arrays_are_frozen():
    program = build_program("505.mcf_r", slice_size=3000, total_slices=120)
    trace = program.generate_slice(0)
    with pytest.raises(ValueError):
        trace.mem_lines[0] = 123


def test_lru_eviction_respects_budget():
    cache = SliceTraceCache(budget_bytes=1)  # below any real trace
    program = build_program("505.mcf_r", slice_size=3000, total_slices=120)
    trace = program.generate_slice(1)
    cache.put(("k", 1), trace)  # oversize: silently not cached
    assert len(cache) == 0 and cache.used_bytes == 0

    program2 = build_program("505.mcf_r", slice_size=3000, total_slices=120)
    traces = [program2.generate_slice(i) for i in range(6)]
    size = sum(
        getattr(traces[0], f).nbytes
        for f in ("block_counts", "class_counts", "mem_lines",
                  "mem_is_write", "ifetch_lines")
    )
    bounded = SliceTraceCache(budget_bytes=3 * size + size // 2)
    for i, t in enumerate(traces):
        bounded.put(("k", i), t)
    assert len(bounded) <= 4
    assert bounded.used_bytes <= bounded.budget_bytes
    # Most-recent entries survive; the oldest were evicted.
    assert bounded.get(("k", 5)) is traces[5]
    assert bounded.get(("k", 0)) is None
