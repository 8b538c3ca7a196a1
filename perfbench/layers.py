"""Per-layer self-time accounting, measured from outside the program.

Tracing wraps the program's public functions at the boundary of each
stage of the paper's Figure 2 flow (synthesis, BBV collection, sampling,
k-means, pinball logging, replay feed, cache kernel, Sniper, the perf
model, artifact-store I/O, the process pool and the experiment memo).
Nothing under ``src/`` is edited: :func:`install` rebinds every module
attribute and class attribute that refers to a wrapped function.

Accounting is over the wrapped call tree.  Each call pushes a frame;
when it returns, its duration minus the time its wrapped children took
is the layer's *self* time, and its full duration is charged to the
parent frame as child time.  Self times therefore never overlap, and
the wall time of a traced run is exactly the sum of all self times
plus ``unattributed`` — the time spent outside every wrapped call.

Work done in forked pool workers is traced in the worker and shipped
back with the item's result (:func:`traced_item`).  The parent charges
each worker layer ``worker seconds / workers`` of its own wall time and
keeps the rest of the pool's duration as the pool's self time (workers
idle, forking, pickling), so the partition still sums to the wall time.

Which end-to-end metric a change to each layer should move (on every
other workload the prediction is no change):

- ``workloads.*`` (synthesis on slice-memo misses): ``wall_s`` on
  sweep-cold, ``peak_rss_mb`` on sampler-sweep and sniper-cpi.
- ``pin.*`` (BBV/MAV collection): ``wall_s`` on sweep-cold and
  sampler-sweep.
- ``sampling.*``, ``clustering.*`` (samplers, k-means + BIC): ``wall_s``
  on sampler-sweep and sweep-cold.
- ``pinball.*``, ``pinpoints.*`` (logging, pipeline glue): ``wall_s`` on
  sweep-cold.
- ``cache.feed_s``, ``cache.kernel_s``, ``cache.refs``: ``wall_s`` and
  ``sim_minstr_per_s`` on sweep-cold.
- ``cache.assoc_s``, ``sniper.*``, ``perf.native_s``: ``wall_s`` on
  sniper-cpi.
- ``store.get_s``, ``store.hit_ratio``: ``wall_s`` on sweep-warm;
  ``store.put_s``: ``wall_s`` on sweep-cold.
- ``pool.*``: ``wall_s`` on sampler-sweep.
- ``experiments.*`` (memo lookups, rendering): ``wall_s`` on both sweeps.
- ``unattributed_s``, ``trace.overhead_frac``: the attribution's health.

Untraced runs install only the simulated-instruction counters, which
``sim_minstr_per_s`` is computed from.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

#: Layer names whose self times partition a traced run's wall time.
SELF_LAYERS = (
    "workloads.synth",
    "pin.features",
    "sampling.select",
    "clustering.kmeans",
    "pinball.log",
    "pinpoints.flow",
    "cache.feed",
    "cache.kernel",
    "cache.assoc",
    "sniper.region",
    "perf.native",
    "store.get",
    "store.put",
    "pool.wait",
    "experiments.memo",
    "experiments.render",
)


class Tracer:
    """Self times and counters of one process's wrapped calls."""

    def __init__(self) -> None:
        #: The tracing process; forked pool workers report back to it.
        self.pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far."""
        self.self_ns: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        # One [layer, child_ns] frame per open wrapped call; the first
        # frame is the root, whose child time is all attributed time.
        self.frames: List[list] = [["", 0]]

    @property
    def layer(self) -> str:
        """The innermost open layer ("" outside every wrapped call)."""
        return self.frames[-1][0]

    def call(self, layer: str, fn: Callable, args, kwargs):
        """Run ``fn`` as one call of ``layer``, charging its self time."""
        frame = [layer, 0]
        frames = self.frames
        frames.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter_ns() - start
            frames.pop()
            self.self_ns[layer] += elapsed - frame[1]
            frames[-1][1] += elapsed

    def charge(self, layer: str, elapsed_ns: int) -> None:
        """Charge a leaf call (no wrapped children) timed by the caller."""
        self.self_ns[layer] += elapsed_ns
        self.frames[-1][1] += elapsed_ns

    def snapshot(self, wall_ns: int) -> dict:
        """Picklable totals of this process, for shipping out of a worker."""
        return {
            "wall_ns": wall_ns,
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
        }

    def absorb(self, snapshots: List[dict], workers: int) -> None:
        """Fold pool workers' snapshots into this (the parent) tracer.

        Each worker second is charged ``1 / workers`` wall seconds, taken
        out of the pool's own self time.  The item time no worker layer
        claims stays unattributed.
        """
        busy_ns = 0
        for snap in snapshots:
            busy_ns += snap["wall_ns"]
            for layer, ns in snap["self_ns"].items():
                self.self_ns[layer] += ns / workers
            for name, value in snap["counts"].items():
                self.counts[name] += value
        self.self_ns["pool.wait"] -= busy_ns / workers
        self.counts["pool.busy_ns"] += busy_ns


def traced_item(fn: Callable, item):
    """Run one pool item, returning ``(result, snapshot-or-None)``.

    In a forked worker the inherited tracer still holds the parent's open
    frames (or the previous item's totals), so it is reset and its totals
    are shipped back.  Run in the
    tracing process itself (the serial path), the calls are already
    charged where they happen and no snapshot is returned.
    """
    tracer = installed()
    if tracer is None or tracer.pid == os.getpid():
        return fn(item), None
    tracer.reset()
    start = perf_counter_ns()
    result = fn(item)
    return result, tracer.snapshot(perf_counter_ns() - start)


# -- wrapping ---------------------------------------------------------


def _rebind(owner, name: str, wrapper: Callable) -> None:
    """Point ``owner.name`` and every module alias of it at ``wrapper``."""
    original = getattr(owner, name)
    setattr(owner, name, wrapper)
    if isinstance(owner, type):
        return
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _timed(tracer: Tracer, layer, original: Callable, after=None):
    """Wrap ``original`` as a layer; ``layer`` may be a callable of args."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        name = layer(tracer, args) if callable(layer) else layer
        if name is None:
            return original(*args, **kwargs)
        result = tracer.call(name, original, args, kwargs)
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper


def _count(key: str, measure: Callable = lambda args, result: 1):
    def after(tracer, args, result):
        tracer.counts[key] += measure(args, result)

    return after


def _memo(tracer: Tracer, original: Callable, compute_key: str):
    """An experiment memo lookup: a hit is a call that computed nothing."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        before = tracer.counts[compute_key]
        result = tracer.call("experiments.memo", original, args, kwargs)
        tracer.counts["experiments.memo_calls"] += 1
        if tracer.counts[compute_key] == before:
            tracer.counts["experiments.memo_hits"] += 1
        return result

    return wrapper


def _store_read(tracer: Tracer, original: Callable, fmt: str):
    @functools.wraps(original)
    def wrapper(store, kind, params):
        result = tracer.call("store.get", original, (store, kind, params), {})
        tracer.counts["store.gets"] += 1
        if result is not None:
            tracer.counts["store.hits"] += 1
            path = store.path_for(kind, store.key(kind, params), fmt)
            tracer.counts["store.bytes_read"] += path.stat().st_size
        return result

    return wrapper


def _slice_generation(tracer: Tracer, original: Callable):
    """Charge ``generate_slice`` to synthesis only when the memo missed."""

    @functools.wraps(original)
    def wrapper(program, slice_index):
        misses = tracer.counts["workloads.slices_synth"]
        start = perf_counter_ns()
        trace = original(program, slice_index)
        if tracer.counts["workloads.slices_synth"] != misses:
            tracer.charge("workloads.synth", perf_counter_ns() - start)
        return trace

    return wrapper


def _memo_lookup(tracer: Tracer, original: Callable):
    @functools.wraps(original)
    def wrapper(key):
        trace = original(key)
        tracer.counts["workloads.slice_lookups"] += 1
        if trace is None:
            tracer.counts["workloads.slices_synth"] += 1
        return trace

    return wrapper


def _submitted_refs(tracer: Tracer, original: Callable):
    @functools.wraps(original)
    def wrapper(hierarchy, trace):
        tracer.counts["cache.refs"] += (
            trace.ifetch_lines.size + trace.mem_lines.size
        )
        return original(hierarchy, trace)

    return wrapper


def _pool(tracer: Tracer, original: Callable, resolve_jobs: Callable):
    @functools.wraps(original)
    def wrapper(fn, items, jobs=None, *args, **kwargs):
        items = list(items)
        workers = resolve_jobs(jobs, items=len(items))
        tracer.counts["pool.items"] += len(items)
        self_before = tracer.self_ns["pool.wait"]
        start = perf_counter_ns()
        try:
            results = tracer.call(
                "pool.wait", original, (fn, items, jobs) + args, kwargs
            )
        except Exception:
            tracer.counts["pool.failed"] += len(items)
            raise
        elapsed = perf_counter_ns() - start
        tracer.counts["pool.failed"] += len(items) - len(results)
        tracer.counts["pool.slots_ns"] += workers * elapsed
        if workers == 1 or len(items) <= 1:
            # The serial path ran every item inside this call.
            tracer.counts["pool.busy_ns"] += elapsed - (
                tracer.self_ns["pool.wait"] - self_before
            )
        return results

    return wrapper


def _region_layer(tracer: Tracer, args) -> str:
    # The perf model times whole programs through the Sniper engine;
    # that run belongs to the perf layer, not to Sniper's regions.
    if tracer.layer == "perf.native":
        return "perf.native"
    tracer.counts["sniper.regions"] += 1
    return "sniper.region"


def _assoc_layer(tracer: Tracer, args) -> Optional[str]:
    level = args[0]
    return "cache.assoc" if level.config.associativity > 1 else None


def _counted(tracer: Tracer, slices):
    for trace in slices:
        tracer.counts["sim.instructions"] += trace.instruction_count
        yield trace


def _simulating(tracer: Tracer, original: Callable):
    """Count every slice's instructions, warmup included, as it is simulated."""

    @functools.wraps(original)
    def wrapper(self, slices, warmup=()):
        return original(self, _counted(tracer, slices), _counted(tracer, warmup))

    return wrapper


_INSTALLED: List[Tracer] = []


def installed() -> Optional[Tracer]:
    """The tracer :func:`install` bound the wrappers to, if any.

    Forked pool workers inherit it, which is how their items report.
    """
    return _INSTALLED[0] if _INSTALLED else None


def install(tracer: Tracer, timing: bool = True) -> None:
    """Wrap the loaded ``repro`` package, reporting to ``tracer``.

    The simulated-instruction counters (``sim.instructions``) are always
    installed: they wrap the two places slices are simulated, the Pin
    engine (every pintool, BBV profiling and ``allcache`` replay alike)
    and Sniper's region run (which the perf model also uses).  With
    ``timing``, every traced layer boundary is wrapped as well.
    """
    if _INSTALLED:
        raise RuntimeError("layer tracing is already installed")
    _INSTALLED.append(tracer)
    import repro.experiments  # noqa: F401  (binds every driver's imports)
    from repro.pin.engine import Engine
    from repro.sniper.core import SniperSimulator

    Engine.run = _simulating(tracer, Engine.run)
    SniperSimulator.run_region = _simulating(tracer, SniperSimulator.run_region)
    if timing:
        _install_timers(tracer)


def _install_timers(tracer: Tracer) -> None:
    from repro.cache.cache import CacheLevel
    from repro.cache.fused import FusedHierarchy
    from repro.experiments import common, fig7, fig8, fig10, fig12
    from repro.parallel import pool
    from repro.parallel.store import ArtifactStore
    from repro.perf.native import NativeMachine
    from repro.pinball.logger import PinPlayLogger
    from repro.pinball.replayer import Replayer
    from repro.pinpoints import pipeline
    from repro.sampling import features, registry
    from repro.sniper.core import SniperSimulator
    from repro.workloads import slicecache
    from repro.workloads.program import SyntheticProgram

    # The package re-exports the function under the module's own name.
    kmeans_mod = importlib.import_module("repro.clustering.kmeans")

    def wrap(owner, name, make):
        _rebind(owner, name, make(getattr(owner, name)))

    wrap(SyntheticProgram, "generate_slice",
         lambda f: _slice_generation(tracer, f))
    wrap(slicecache, "lookup", lambda f: _memo_lookup(tracer, f))
    wrap(features, "collect_features", lambda f: _timed(
        tracer, "pin.features", f,
        _count("pin.slices_profiled", lambda a, r: r.num_slices)))
    wrap(registry, "run_sampler",
         lambda f: _timed(tracer, "sampling.select", f))
    wrap(kmeans_mod, "kmeans", lambda f: _timed(
        tracer, "clustering.kmeans", f, _count("clustering.kmeans_fits")))
    wrap(PinPlayLogger, "log_whole",
         lambda f: _timed(tracer, "pinball.log", f))
    wrap(PinPlayLogger, "log_regions", lambda f: _timed(
        tracer, "pinball.log", f, _count("pinball.regions", lambda a, r: len(r))))
    wrap(pipeline, "run_pinpoints", lambda f: _timed(
        tracer, "pinpoints.flow", f, _count("pinpoints.runs")))
    wrap(Replayer, "replay", lambda f: _timed(
        tracer, "cache.feed", f, _count("cache.replays")))
    wrap(FusedHierarchy, "submit_slice", lambda f: _submitted_refs(tracer, f))
    wrap(FusedHierarchy, "drain",
         lambda f: _timed(tracer, "cache.kernel", f))
    wrap(CacheLevel, "access_many",
         lambda f: _timed(tracer, _assoc_layer, f))
    wrap(SniperSimulator, "run_region",
         lambda f: _timed(tracer, _region_layer, f))
    wrap(NativeMachine, "run", lambda f: _timed(tracer, "perf.native", f))
    wrap(ArtifactStore, "get_json", lambda f: _store_read(tracer, f, "json"))
    wrap(ArtifactStore, "get_pickle",
         lambda f: _store_read(tracer, f, "pickle"))
    wrap(ArtifactStore, "has", lambda f: _timed(tracer, "store.get", f))
    for name in ("put_json", "put_pickle"):
        wrap(ArtifactStore, name, lambda f: _timed(
            tracer, "store.put", f,
            _count("store.bytes_written", lambda a, r: r.stat().st_size)))
    wrap(pool, "parallel_map",
         lambda f: _pool(tracer, f, pool.resolve_jobs))
    wrap(common, "pinpoints_for", lambda f: _memo(tracer, f, "pinpoints.runs"))
    for name in ("measure_whole", "measure_points"):
        wrap(common, name, lambda f: _memo(tracer, f, "cache.replays"))
    for module, name in ((fig7, "render_fig7"), (fig8, "render_fig8"),
                         (fig10, "render_fig10"), (fig12, "render_fig12")):
        wrap(module, name, lambda f: _timed(tracer, "experiments.render", f))


def layer_metrics(tracer: Tracer, wall_ns: float) -> Dict[str, float]:
    """The per-layer figures of one traced run, seconds and ratios."""
    s, c = tracer.self_ns, tracer.counts
    metrics = {f"{layer}_s": s.get(layer, 0.0) / 1e9 for layer in SELF_LAYERS}
    metrics["unattributed_s"] = (wall_ns - sum(s.values())) / 1e9
    metrics["trace.wall_s"] = wall_ns / 1e9

    def ratio(num, den):
        return c.get(num, 0.0) / c[den] if c.get(den) else 0.0

    lookups = c.get("workloads.slice_lookups", 0.0)
    metrics["workloads.slices_synth"] = c.get("workloads.slices_synth", 0.0)
    metrics["workloads.memo_hit_ratio"] = (
        1.0 - metrics["workloads.slices_synth"] / lookups if lookups else 0.0
    )
    for name in ("pin.slices_profiled", "clustering.kmeans_fits",
                 "pinball.regions", "cache.refs", "sniper.regions",
                 "store.bytes_read", "store.bytes_written", "pool.items",
                 "pool.failed"):
        metrics[name] = c.get(name, 0.0)
    metrics["cache.kernel_ns_per_ref"] = (
        s.get("cache.kernel", 0.0) / c["cache.refs"] if c.get("cache.refs")
        else 0.0
    )
    metrics["store.hit_ratio"] = ratio("store.hits", "store.gets")
    metrics["experiments.memo_hit_ratio"] = ratio(
        "experiments.memo_hits", "experiments.memo_calls"
    )
    metrics["pool.efficiency"] = ratio("pool.busy_ns", "pool.slots_ns")
    return metrics
