"""A bounded in-process memo for deterministic slice traces.

Slice generation is a pure function of ``(program content, slice
index)`` — that per-slice determinism is the repository's synthetic
stand-in for PinPlay checkpoint replay.  The same slices are therefore
generated repeatedly along the pipeline: the BBV profiling pass walks
every slice of the whole run, the Whole Run measurement replays the very
same stream moments later, and regional replays re-generate their warmup
prefixes.  This module memoizes the finished :class:`SliceTrace` objects
behind an LRU byte budget, so each repeat is a dictionary hit instead of
a fresh multinomial draw and reference shuffle.

Memoization cannot change results: a hit returns a trace that is
bit-identical to what generation would produce (it *is* that trace), and
every consumer treats traces as read-only — the memo enforces this by
marking cached arrays non-writeable, so an accidental in-place mutation
raises instead of silently corrupting later replays.

The budget is the constant :data:`BUDGET_MB` megabytes.  The memo
is per-process: parallel workers each keep their own, which preserves
the repo's partition-independent determinism story.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.errors import ConfigError
from repro.isa.trace import SliceTrace
from repro.telemetry.recorder import get_recorder

#: Memo budget in megabytes (~one whole run's slices).
BUDGET_MB = 192

Key = Tuple[str, int]


class SliceTraceCache:
    """LRU map from ``(program fingerprint, slice index)`` to traces.

    Args:
        budget_bytes: Maximum total size of cached trace arrays; the
            least-recently-used entries are evicted past it.
    """

    def __init__(self, budget_bytes: int) -> None:
        if budget_bytes < 1:
            raise ConfigError("slice cache budget must be positive")
        self.budget_bytes = int(budget_bytes)
        self._entries: "OrderedDict[Key, Tuple[SliceTrace, int]]" = (
            OrderedDict()
        )
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def used_bytes(self) -> int:
        """Total bytes of cached trace arrays."""
        return self._bytes

    def get(self, key: Key) -> Optional[SliceTrace]:
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def put(self, key: Key, trace: SliceTrace) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        size = _trace_bytes(trace)
        if size > self.budget_bytes:
            return
        _freeze(trace)
        self._entries[key] = (trace, size)
        self._bytes += size
        while self._bytes > self.budget_bytes:
            _, (_, evicted) = self._entries.popitem(last=False)
            self._bytes -= evicted

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0


def _trace_bytes(trace: SliceTrace) -> int:
    return (
        trace.block_counts.nbytes
        + trace.class_counts.nbytes
        + trace.mem_lines.nbytes
        + trace.mem_is_write.nbytes
        + trace.ifetch_lines.nbytes
    )


def _freeze(trace: SliceTrace) -> None:
    for array in (
        trace.block_counts,
        trace.class_counts,
        trace.mem_lines,
        trace.mem_is_write,
        trace.ifetch_lines,
    ):
        array.flags.writeable = False


#: The process-wide memo.
_CACHE = SliceTraceCache(BUDGET_MB << 20)


def get_slice_cache() -> SliceTraceCache:
    """The process-wide memo."""
    return _CACHE


def reset_slice_cache() -> None:
    """Drop every memoized trace (for tests)."""
    _CACHE.clear()


def lookup(key: Key) -> Optional[SliceTrace]:
    """Memo lookup with hit/miss telemetry."""
    trace = _CACHE.get(key)
    recorder = get_recorder()
    if recorder is not None:
        recorder.count(
            "slice.cache.hit" if trace is not None else "slice.cache.miss", 1
        )
    return trace


def store(key: Key, trace: SliceTrace) -> None:
    """Insert a freshly generated trace."""
    _CACHE.put(key, trace)
