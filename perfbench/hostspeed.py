"""Host-speed probes, and repetition clocks that scale host time by them.

The benchmark runs on a few cores of a shared host whose speed drifts
by tens of percent over seconds to minutes, and at times halves, while
nothing inside the machine shows it: no steal time is reported, and a
process's CPU time tracks its wall time.  A repetition's host time alone
would measure the neighbours as much as the program.

:func:`probe` times a fixed mix of host work that runs none of the
program's code.  A :class:`Clock` times a repetition in segments (one
benchmark each, or one pool fan-out) and probes the host before, between
and after them, and in each pool item.  The repetition's host time,
scaled by ``REFERENCE_S`` over the mean probe, is what it would have
taken at the reference speed.  A change to the program moves the scaled
time exactly as it moves the raw time, since the probes run none of the
program; what the scaling removes is the host's drift, which moves probe
and program alike.  Over ten seeded runs of each workload on the 2-core
reference host, the quartile distance of ``wall_s`` was 7.5 to 22 % of
its median in raw host time and 2.4 to 11.5 % scaled.
"""

from __future__ import annotations

import gc
import pickle
from statistics import mean
from time import perf_counter_ns
from typing import List, Sequence

import numpy as np

#: Seconds :func:`probe` takes on the reference host (2-core x86-64
#: Xeon, Python 3.11, numpy 2.4), so scaled times read close to raw
#: ones there.
REFERENCE_S = 0.020

_TABLE = dict.fromkeys(range(1 << 18), 0)
_RNG = np.random.default_rng(0)
_POINTS = _RNG.random((2000, 16))
_CENTRES = _RNG.random((24, 16))
_BLOB = pickle.dumps(
    [np.arange(i, i + 2000, dtype=np.float64) for i in range(100)]
    + [{"slice": i, "name": str(i)} for i in range(2000)]
)


def probe() -> float:
    """Seconds one fixed mix of host work takes.

    The mix follows what the workloads do, in about equal parts:
    interpreter updates scattered over a table larger than the core's
    caches (the LRU and memo dictionaries), unpickling (the artifact
    store's reads) and, smaller, the distance and arg-min kernels of
    k-means in numpy.  Of the parts tried alone, the small-table loop
    tracked the workloads worst and unpickling best.

    The cyclic garbage collector is off while it runs: a collection
    would cost in proportion to the program's heap, which the probe must
    not measure.
    """
    collecting = gc.isenabled()
    gc.disable()
    start = perf_counter_ns()
    table = _TABLE
    for i in range(16_000):
        key = (i * 2654435761) & 0x3FFFF
        table[key] = table[key] + 1
    for _ in range(8):
        pickle.loads(_BLOB)
    for _ in range(9):
        distances = (
            (_POINTS * _POINTS).sum(1)[:, None]
            - 2 * _POINTS @ _CENTRES.T
            + (_CENTRES * _CENTRES).sum(1)
        )
        distances.argmin(1)
    elapsed = perf_counter_ns() - start
    if collecting:
        gc.enable()
    return elapsed / 1e9


class Clock:
    """Times a repetition in segments, probing the host between them.

    The probes fall outside every segment, so ``wall_ns`` is the body's
    time alone.
    """

    def __init__(self) -> None:
        self.probes: List[float] = [probe()]
        self.wall_ns = 0
        self._start = perf_counter_ns()

    def lap(self, probes: Sequence[float] = ()) -> None:
        """End a segment; ``probes`` were taken during it (pool workers)."""
        self.wall_ns += perf_counter_ns() - self._start
        self.probes += [*probes, probe()]
        self._start = perf_counter_ns()

    @property
    def speed(self) -> float:
        """The host's speed over the repetition, relative to the reference."""
        return REFERENCE_S / mean(self.probes)

    def scaled(self, seconds: float) -> float:
        """``seconds`` of host time at the reference speed."""
        return seconds * self.speed
