"""Memory Access Vector profiler (Caculo et al., arXiv:2506.02344).

BBVs capture *control-flow* phases; two slices with identical block
mixes can still stress the memory hierarchy very differently.  Memory
Access Vectors augment the BBV with per-slice memory-locality features
so clustering can separate such slices.  This tool derives one
fixed-width feature vector per slice from the data-reference stream the
pin engine already observes (``SliceTrace.mem_lines`` /
``mem_is_write``) — no second profiling pass and no new trace fields.

Features (all dimensionless fractions in [0, 1], so they compose with
L1-normalized BBVs without rescaling):

* memory intensity — data references per instruction (clipped at 1),
* write fraction — stores over all references,
* footprint — unique cache lines touched over references (streaming
  slices score high, tight loops low),
* stride histogram — successive-reference line deltas bucketed as
  repeat (0), unit (|d| = 1), local (|d| <= 64 lines, within a page),
  and far (everything else); four fractions summing to 1.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import SimulationError
from repro.isa.trace import SliceTrace, sorted_unique
from repro.pin.pintool import Pintool

#: Width of one memory access vector.
MAV_DIM = 7

#: Feature names, aligned with the vector columns.
MAV_FEATURES = (
    "intensity", "write_frac", "footprint",
    "stride_repeat", "stride_unit", "stride_local", "stride_far",
)

#: Stride-bucket boundary between "local" and "far", in cache lines
#: (64 lines of 64 B = one 4 KiB page).
LOCAL_STRIDE_LINES = 64


def slice_mav(trace: SliceTrace) -> np.ndarray:
    """The memory access vector of one slice.

    A slice without data references maps to the zero vector: it exerts
    no memory behaviour, and zeros keep it maximally distant from every
    memory-active slice under Euclidean clustering.
    """
    vec = np.zeros(MAV_DIM, dtype=np.float64)
    lines = trace.mem_lines
    refs = lines.size
    if refs == 0:
        return vec
    vec[0] = min(1.0, refs / trace.instruction_count)
    vec[1] = trace.mem_is_write.sum() / refs
    vec[2] = sorted_unique(lines).size / refs
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


class MAVProfiler(Pintool):
    """Accumulates one memory access vector per observed slice."""

    def __init__(self) -> None:
        super().__init__()
        self._vectors: List[np.ndarray] = []
        self._slice_indices: List[int] = []

    def process_slice(self, trace: SliceTrace) -> None:
        self._vectors.append(slice_mav(trace))
        self._slice_indices.append(trace.index)

    @property
    def num_slices(self) -> int:
        """Slices profiled so far."""
        return len(self._vectors)

    def matrix(self) -> np.ndarray:
        """``(n_slices, MAV_DIM)`` matrix of memory access vectors.

        Raises:
            SimulationError: If no slices were profiled.
        """
        if not self._vectors:
            raise SimulationError("MAV profiler observed no slices")
        return np.vstack(self._vectors)

    def slice_indices(self) -> np.ndarray:
        """Global slice indices, aligned with the matrix rows."""
        return np.asarray(self._slice_indices, dtype=np.int64)

    def reset(self) -> None:
        self._vectors = []
        self._slice_indices = []
