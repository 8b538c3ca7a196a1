"""Native compiled backend for the fused hierarchy walk.

Compiles a small C kernel — the sequential per-access hierarchy walk,
the same semantics as ``CacheLevel._access_direct_mapped_reference``
for direct-mapped levels and ``_access_associative_reference`` for
set-associative LRU levels — with the host C compiler at first use, and
loads it through :mod:`ctypes`.  The build is content-addressed (the
object file name embeds a hash of the source and compiler), so it
compiles once per machine and is reused by every process, including
parallel workers racing to create it (writes go to a temporary file
followed by an atomic rename).

Everything degrades gracefully: no compiler, a failed build, or a
failed load all surface as :func:`load_kernel` returning ``None``, and
the caller falls back to the fused numpy backend.  The kernel is a pure
function of its inputs — determinism is unaffected by which backend
runs.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Optional, Sequence

_SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* One cache level.  A direct-mapped level (assoc == 1) keeps one tag
 * per set in `tags` (-1 = empty) and one flag per set in `dirty`.  A
 * set-associative level keeps packed LRU stacks in `tags`, a row-major
 * (num_sets, assoc) array: way 0 is MRU, each entry is tag << 1 | dirty,
 * -1 is empty, and valid entries always occupy a prefix of the ways.
 * Both are the exact state CacheLevel keeps, so native and numpy passes
 * can interleave on the same hierarchy. */
typedef struct {
    int64_t *tags;
    uint8_t *dirty;
    int64_t mask, shift, assoc;
} level_t;

/* One access at one level; `c` is the level's accesses, misses,
 * writebacks row.  Returns 1 on a hit. */
static inline __attribute__((always_inline)) int
lookup(const level_t *L, int64_t line, int64_t w, int64_t *c)
{
    int64_t s = line & L->mask, tag = line >> L->shift;
    c[0]++;
    if (L->assoc == 1) {
        int64_t *res = L->tags;
        uint8_t *dir = L->dirty;
        if (res[s] == tag) { if (w) dir[s] = 1; return 1; }
        c[1]++;
        if (res[s] >= 0 && dir[s]) c[2]++;
        res[s] = tag; dir[s] = (uint8_t)w;
        return 0;
    }
    int64_t assoc = L->assoc, *row = L->tags + s * assoc, way;
    /* -1 >> 1 is -1 and tags are non-negative: empties never match. */
    for (way = 0; way < assoc; way++)
        if ((row[way] >> 1) == tag) break;
    int hit = way < assoc;
    int64_t mru = tag << 1 | w;
    if (hit) {
        mru |= row[way] & 1;
    } else {
        way = assoc - 1;
        if (row[way] >= 0 && (row[way] & 1)) c[2]++;
        c[1]++;
    }
    /* Hits promote their way to MRU, misses recycle the LRU way: both
     * shift ways 0..way-1 down by one. */
    memmove(row + 1, row, (size_t)way * sizeof(int64_t));
    row[0] = mru;
    return hit;
}

/* One pass over an interleaved ifetch+data reference stream through an
 * L1I/L1D -> L2 -> L3 hierarchy with miss filtering, write-allocate,
 * and write-back accounting.  `levels` is L1I, L1D, L2, L3; `counts` is
 * a 4x3 row-major table: rows per level, columns accesses, misses,
 * writebacks. */
void repro_walk(const int64_t *lines, const uint8_t *writes,
                const uint8_t *is_data, int64_t n,
                const level_t *levels, int64_t *counts)
{
    /* Local copies: stores into cache state cannot alias them, so the
     * geometry and the counters stay in registers across the loop. */
    const level_t l1i = levels[0], l1d = levels[1];
    const level_t l2 = levels[2], l3 = levels[3];
    int64_t c[12] = {0};
    for (int64_t i = 0; i < n; i++) {
        int64_t line = lines[i], w = 0;
        if (is_data[i]) {
            w = writes[i];
            if (lookup(&l1d, line, w, c + 3)) continue;
        } else if (lookup(&l1i, line, 0, c + 0)) {
            continue;
        }
        if (lookup(&l2, line, w, c + 6)) continue;
        lookup(&l3, line, w, c + 9);
    }
    for (int k = 0; k < 12; k++) counts[k] += c[k];
}
"""

_CACHE_ENV = "REPRO_NATIVE_CACHE"
_FLAGS = ["-O2", "-shared", "-fPIC"]

#: Memoized load result: unset, or (kernel-or-None).
_LOADED: list = []


def _compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _build_dir() -> Path:
    override = os.environ.get(_CACHE_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-spec2017" / "native"


def _build(compiler: str) -> Optional[Path]:
    digest = hashlib.sha256(
        (_SOURCE + "\0" + compiler + "\0" + " ".join(_FLAGS)).encode()
    ).hexdigest()[:16]
    out_dir = _build_dir()
    lib_path = out_dir / f"reprocache-{digest}.so"
    if lib_path.exists():
        return lib_path
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            src = Path(tmp) / "kernel.c"
            src.write_text(_SOURCE)
            obj = Path(tmp) / "kernel.so"
            proc = subprocess.run(
                [compiler, *_FLAGS, str(src), "-o", str(obj)],
                capture_output=True,
                timeout=120,
            )
            if proc.returncode != 0:
                return None
            # Atomic publish: concurrent workers race benignly.
            os.replace(obj, lib_path)
    except OSError:
        return None
    return lib_path


class _Level(ctypes.Structure):
    """The C ``level_t``: one level's state pointers and geometry."""

    _fields_ = [
        ("tags", ctypes.c_void_p),
        ("dirty", ctypes.c_void_p),
        ("mask", ctypes.c_int64),
        ("shift", ctypes.c_int64),
        ("assoc", ctypes.c_int64),
    ]


class NativeKernel:
    """ctypes binding of the compiled hierarchy walk."""

    def __init__(self, lib) -> None:
        self._fn = lib.repro_walk
        self._fn.restype = None
        self._fn.argtypes = [
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_int64, ctypes.POINTER(_Level), ctypes.c_void_p,
        ]

    def bind(self, levels: Sequence[tuple]) -> Callable:
        """Bind the walk to four levels' state, in L1I, L1D, L2, L3 order.

        Each level is ``(tags, dirty, set_mask, set_shift, assoc)``:
        ``CacheLevel``'s ``_resident``/``_dirty`` arrays for a
        direct-mapped level, its packed ``_way_state`` stacks and
        ``None`` for a set-associative one.  The walk updates these
        arrays in place through raw pointers, so they must never be
        replaced, only reset in place (as ``CacheLevel.flush`` does).

        Returns:
            ``walk(lines, writes, is_data, counts)`` running one chunk:
            granularity-shifted int64 ``lines`` in program order, uint8
            ``writes`` and ``is_data`` (1 = data reference, 0 = ifetch)
            flags aligned with them, and an int64 ``(4, 3)`` ``counts``
            table accumulating accesses, misses and writebacks per
            level.
        """
        table = (_Level * 4)(*[
            _Level(
                tags.ctypes.data,
                None if dirty is None else dirty.ctypes.data,
                set_mask, set_shift, assoc,
            )
            for tags, dirty, set_mask, set_shift, assoc in levels
        ])
        fn = self._fn
        arrays = [array for tags, dirty, *_ in levels
                  for array in (tags, dirty) if array is not None]

        def walk(lines, writes, is_data, counts, _keep=arrays) -> None:
            fn(lines.ctypes.data, writes.ctypes.data, is_data.ctypes.data,
               lines.size, table, counts.ctypes.data)

        return walk


def load_kernel() -> Optional[NativeKernel]:
    """Compile (once) and load the native kernel, or ``None``."""
    if _LOADED:
        return _LOADED[0]
    kernel = None
    compiler = _compiler()
    if compiler is not None:
        lib_path = _build(compiler)
        if lib_path is not None:
            try:
                kernel = NativeKernel(ctypes.CDLL(str(lib_path)))
            except OSError:
                kernel = None
    _LOADED.append(kernel)
    return kernel
