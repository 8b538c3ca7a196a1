"""Byte-identity of the sort-based dedupe and the synthesis hot path.

The MAV footprint and the prefetcher's per-batch dedupe count distinct
lines by sorting and comparing neighbours instead of calling
``np.unique``; slice synthesis shuffles references in place instead of
gathering through ``rng.permutation`` and draws lines over
``[base, base + size)`` instead of adding ``base`` to a draw over
``[0, size)``.  Each is checked here against a test-local reference
form or against digests recorded with the reference forms in place.
"""

import hashlib

import numpy as np
import pytest

from repro.cache import prefetch
from repro.cache.prefetch import PrefetchingHierarchy
from repro.config import ALLCACHE_SIM
from repro.isa.trace import SliceTrace, sorted_unique
from repro.pin.tools.mav import LOCAL_STRIDE_LINES, MAV_DIM, slice_mav
from repro.workloads import slicecache
from repro.workloads.program import SyntheticProgram
from repro.workloads.schedule import PhaseSchedule
from repro.workloads.spec2017 import build_program

from conftest import QUICK, make_phase

BENCHMARKS = ("505.mcf_r", "557.xz_r", "620.omnetpp_s")


def reference_mav(trace):
    """``slice_mav`` with the footprint counted by ``np.unique``."""
    vec = np.zeros(MAV_DIM, dtype=np.float64)
    lines = trace.mem_lines
    refs = lines.size
    if refs == 0:
        return vec
    vec[0] = min(1.0, refs / trace.instruction_count)
    vec[1] = trace.mem_is_write.sum() / refs
    vec[2] = np.unique(lines).size / refs
    if refs > 1:
        deltas = np.abs(np.diff(lines))
        transitions = deltas.size
        repeat = int((deltas == 0).sum())
        unit = int((deltas == 1).sum())
        local = int(((deltas > 1) & (deltas <= LOCAL_STRIDE_LINES)).sum())
        vec[3] = repeat / transitions
        vec[4] = unit / transitions
        vec[5] = local / transitions
        vec[6] = (transitions - repeat - unit - local) / transitions
    return vec


def bare_trace(mem_lines):
    lines = np.asarray(mem_lines, dtype=np.int64)
    return SliceTrace(
        index=0, phase_id=0, instruction_count=100,
        block_counts=np.ones(4, dtype=np.int64),
        class_counts=np.array([97, 3, 0, 0], dtype=np.int64),
        mem_lines=lines, mem_is_write=np.zeros(lines.size, dtype=bool),
        ifetch_lines=np.zeros(1, dtype=np.int64),
        branch_count=0, branch_entropy=0.0,
    )


@pytest.fixture
def fresh_slices(monkeypatch):
    """Generate every slice from scratch, bypassing the memo."""
    monkeypatch.setattr(slicecache, "lookup", lambda key: None)
    monkeypatch.setattr(slicecache, "store", lambda key, trace: None)


class TestSortedUnique:
    @pytest.mark.parametrize("size", [0, 1, 2, 17, 5000])
    def test_matches_np_unique(self, rng, size):
        for high in (3, 1 << 40):
            values = rng.integers(-high, high, size=size)
            got, want = sorted_unique(values), np.unique(values)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_input_left_untouched(self):
        values = np.array([5, 1, 5, 3], dtype=np.int64)
        sorted_unique(values)
        assert values.tolist() == [5, 1, 5, 3]


class TestMavFootprint:
    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_matches_np_unique_reference(self, bench):
        program = build_program(bench, **QUICK)
        for trace in program.iter_slices():
            got, want = slice_mav(trace), reference_mav(trace)
            assert got.tobytes() == want.tobytes(), trace.index

    @pytest.mark.parametrize(
        "lines", [[], [42], [7, 7], [3, 1, 3, 2, 1, 1 << 40]]
    )
    def test_short_slices(self, lines):
        trace = bare_trace(lines)
        assert slice_mav(trace).tobytes() == reference_mav(trace).tobytes()


class TestPrefetchDedupe:
    def test_stats_match_np_unique(self, monkeypatch):
        program = build_program("505.mcf_r", **QUICK)

        def replay():
            hierarchy = PrefetchingHierarchy(ALLCACHE_SIM, degree=2)
            for trace in program.iter_slices(0, 40):
                hierarchy.access_data(trace.mem_lines)
            snapshot = hierarchy.snapshot()
            return (
                hierarchy.prefetches_issued, hierarchy.prefetch_hits,
                {name: (lv.accesses, lv.misses)
                 for name, lv in snapshot.levels.items()},
            )

        got = replay()
        monkeypatch.setattr(prefetch, "sorted_unique", np.unique)
        assert got == replay()
        assert got[0] > 0


def trace_digest(trace):
    digest = hashlib.sha256()
    for array in (
        trace.block_counts, trace.class_counts, trace.mem_lines,
        trace.mem_is_write, trace.ifetch_lines,
    ):
        digest.update(array.dtype.str.encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    digest.update(repr((
        trace.index, trace.phase_id, trace.instruction_count,
        trace.branch_count, trace.branch_entropy,
    )).encode())
    return digest.hexdigest()


#: Slice digests recorded while synthesis still gathered through
#: ``rng.permutation``, drew line offsets from zero and added the region
#: base, and copied with ``astype(np.int64)``.
SYNTH_DIGESTS = {
    ("505.mcf_r", 0): "7c7a70bf03d4421d17a97475b15aa2025a54660ff38c7a121f3aa940ee687d93",
    ("505.mcf_r", 57): "832fdd0df987560b9ff10f47f079639c59aa470bcce368b34f7ba2c725b6743d",
    ("505.mcf_r", 119): "520eb2b08cd4fbfb50307ac6afbb72eb3104a32a870f4d5ab1a231c2a802876c",
    ("557.xz_r", 0): "e6fa7cde14d5ef750782786933a25bea66e83d684d288ea0eb78a83e4bc37735",
    ("557.xz_r", 57): "b1c2794ddcdae79570b79ed96662ff440340f698bbe0bdaafa7e688608332cfe",
    ("557.xz_r", 119): "2f405c661e9458a3ed5a98adacfe6037f29b241111e793c68025202aae87f272",
    ("620.omnetpp_s", 0): "993bb076e674b6a27633979b98987370786dcfe38127cd8ad53f9a0fbc06d7ed",
    ("620.omnetpp_s", 57): "6da1c640496ba58ba0a6921633348be1774ae30300540639ae5a0e55e837f4a4",
    ("620.omnetpp_s", 119): "8d1f727f5b392df7fc58e373718afa4947e6a0e6304b400770af8491a0bb005d",
    ("markov", 0): "e0a70f8627e3cf504d79c6b9b983501f3e366b20e6c3df3b093e8aea39a89288",
    ("markov", 39): "37c409062b44d7af23d9c60f730bbf3884f8690eef2b0bd71644e5e406165b8a",
}


def markov_program():
    phases = [
        make_phase(0, weight=0.5, mix=(0.6, 0.3, 0.08, 0.02)),
        make_phase(1, weight=0.5, mix=(0.4, 0.4, 0.17, 0.03)),
    ]
    schedule = PhaseSchedule.from_counts([20, 20], seed=3)
    return SyntheticProgram(
        "markov.test", phases, schedule, slice_size=4000, seed=21,
        block_model="markov",
    )


class TestSynthesisBytes:
    @pytest.mark.parametrize("key", sorted(SYNTH_DIGESTS))
    def test_slice_matches_recorded_digest(self, fresh_slices, key):
        name, index = key
        program = (
            markov_program() if name == "markov"
            else build_program(name, **QUICK)
        )
        assert trace_digest(program.generate_slice(index)) == (
            SYNTH_DIGESTS[key]
        )
