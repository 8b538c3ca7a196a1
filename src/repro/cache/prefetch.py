"""Sequential (next-line) prefetching on the cache hierarchy.

A classic mitigation for streaming misses: when a line misses in the L2,
its sequential successors are prefetched into the L2 and L3.  Two effects
are modelled:

* **intra-batch coverage** — within one batch (one slice's references),
  an access that would miss is converted into a prefetch hit when an
  earlier access in the same batch touched one of its ``degree``
  predecessor lines (that access triggered the prefetch, and the fill
  had time to land);
* **cross-batch fills** — successors of a batch's missed lines are
  installed so the next batch starts covered.

Exposed as a drop-in :class:`PrefetchingHierarchy`; the allcache pintool
accepts any hierarchy, so Fig 8-style experiments can be replayed with
prefetching enabled (see ``bench_ablation_prefetch``).
"""

from __future__ import annotations

import numpy as np

from repro.cache.cache import CacheLevel
from repro.cache.hierarchy import CacheHierarchy
from repro.config import CacheHierarchyConfig
from repro.errors import SimulationError
from repro.isa.trace import sorted_unique


class PrefetchingHierarchy(CacheHierarchy):
    """A hierarchy with a sequential L2/L3 prefetcher.

    Args:
        config: Hierarchy geometry.
        degree: Sequential lines fetched per triggering access (>= 1).
    """

    def __init__(self, config: CacheHierarchyConfig, degree: int = 1) -> None:
        if degree < 1:
            raise SimulationError("prefetch degree must be at least 1")
        super().__init__(config)
        self.degree = degree
        self.prefetches_issued = 0
        self.prefetch_hits = 0

    def _coverage(self, stream: np.ndarray, miss: np.ndarray) -> np.ndarray:
        """Misses covered by prefetches triggered earlier in the batch."""
        covered = np.zeros(stream.size, dtype=bool)
        seen: dict = {}
        degree = self.degree
        for i, line in enumerate(stream.tolist()):
            if miss[i]:
                for delta in range(1, degree + 1):
                    j = seen.get(line - delta)
                    if j is not None and j < i:
                        covered[i] = True
                        break
            if line not in seen:
                seen[line] = i
        return covered

    def _access_with_prefetch(
        self, level: CacheLevel, stream: np.ndarray
    ) -> np.ndarray:
        """Access ``level`` and return the miss mask net of coverage."""
        recording = level.recording
        level.recording = False
        miss = level.access_many(stream)
        level.recording = recording
        if miss.any():
            covered = self._coverage(stream, miss)
            self.prefetch_hits += int(covered.sum())
            miss = miss & ~covered
        if recording:
            level.stats.record(int(stream.size), int(miss.sum()))
        return miss

    def _install_successors(self, missed_lines: np.ndarray) -> None:
        if missed_lines.size == 0:
            return
        targets = sorted_unique(np.concatenate([
            missed_lines + offset for offset in range(1, self.degree + 1)
        ]))
        self.prefetches_issued += int(targets.size)
        self.l2.install(targets)
        self.l3.install(targets)

    def access_data(self, lines: np.ndarray, is_write: np.ndarray = None) -> None:
        """L1D -> L2 -> L3 with sequential prefetch at L2 and L3."""
        miss1 = self.l1d.access_many(lines)
        if not miss1.any():
            return
        l2_stream = lines[miss1]
        miss2 = self._access_with_prefetch(self.l2, l2_stream)
        if miss2.any():
            l3_stream = l2_stream[miss2]
            self._access_with_prefetch(self.l3, l3_stream)
            self._install_successors(sorted_unique(l3_stream))

    def reset(self) -> None:
        """Cold caches and zeroed prefetch counters."""
        super().reset()
        self.prefetches_issued = 0
        self.prefetch_hits = 0
