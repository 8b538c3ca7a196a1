"""Workload bodies, run inside a fresh process by ``rep.py``.

Each body calls the program's public drivers for a list of benchmark
names and returns the result rows the parent checks against the
committed ``results/``.  Calls go through module attributes at call
time, so a traced run sees the wrappers :mod:`layers` installed.  The
serial bodies run one benchmark at a time and end a segment of the
repetition's :class:`hostspeed.Clock` after each; the pool body is one
segment, with a host-speed probe from each item's worker.

:func:`sim_frac_pct` runs after the timed region of a sweep.  It reads
the pipelines back from the experiment memo (a hit in the same process)
for the simulated share of the whole run, warmup included.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import hostspeed
import layers

Rows = Dict[str, List[dict]]


def sweep(benchmarks: Sequence[str], jobs: int,
          clock: hostspeed.Clock) -> Rows:
    """Figures 7, 8 and 10, rendered as the CLI would print them."""
    from repro.experiments import fig7, fig8, fig10

    rows: Rows = {"fig7": [], "fig8": [], "fig10": []}
    for benchmark in benchmarks:
        for module, name in ((fig7, "fig7"), (fig8, "fig8"),
                             (fig10, "fig10")):
            result = getattr(module, f"run_{name}")(
                benchmarks=[benchmark], jobs=jobs
            )
            getattr(module, f"render_{name}")(result)
            rows[name] += result.to_payload()["rows"]
        clock.lap()
    return rows


def fig12(benchmarks: Sequence[str], jobs: int,
          clock: hostspeed.Clock) -> Rows:
    """Figure 12: Sniper Regional/Reduced CPI against the perf model."""
    from repro.experiments import fig12 as driver

    rows: List[dict] = []
    for benchmark in benchmarks:
        result = driver.run_fig12(benchmarks=[benchmark], jobs=jobs)
        driver.render_fig12(result)
        rows += result.to_payload()["rows"]
        clock.lap()
    return {"fig12": rows}


def pinpoints(benchmarks: Sequence[str], jobs: int,
              clock: hostspeed.Clock) -> Rows:
    """The PinPoints flow alone: fills a store for the Figure 12 runs."""
    from repro.experiments import common

    common.map_benchmarks(benchmarks, jobs=jobs)
    clock.lap()
    return {}


def select(benchmarks: Sequence[str], jobs: int,
           clock: hostspeed.Clock) -> Rows:
    """Point selection of every frontier sampler plus SimPoint at MaxK 35.

    No region is replayed: this is BBV/MAV collection, clustering and
    regional logging only, fanned out one benchmark per pool item.
    """
    from repro.experiments import common

    shipped = common.map_items(_select_item, list(benchmarks), jobs=jobs)
    clock.lap([probe_s for _, _, probe_s in shipped])
    tracer = layers.installed()
    snapshots = [snap for _, snap, _ in shipped if snap is not None]
    if tracer is not None and snapshots:
        tracer.absorb(snapshots, min(jobs, len(benchmarks)))
    results = [result for result, _, _ in shipped]
    return {
        "table2": [r["table2"] for r in results],
        "sampler-frontier": [row for r in results for row in r["frontier"]],
    }


def _select_item(name: str):
    """One pool item: a host-speed probe, then the traced selection."""
    probe_s = hostspeed.probe()
    return (*layers.traced_item(_select, name), probe_s)


def _select(name: str) -> dict:
    from repro.experiments import common
    from repro.experiments.frontier import DEFAULT_BUDGETS, DEFAULT_SAMPLERS
    from repro.pinball.logger import PinPlayLogger
    from repro.sampling import features, registry
    from repro.workloads.spec2017 import get_descriptor

    out = common.pinpoints_for(name)
    # The union of the samplers' feature families, as the frontier
    # experiment collects them: one bundle serves every sampler.
    needs_mav = any(
        features.FEATURE_MAV in registry.get_sampler(s).requires
        for s in DEFAULT_SAMPLERS
    )
    requires = (features.FEATURE_BBV,) + (
        (features.FEATURE_MAV,) if needs_mav else ()
    )
    bundle = features.collect_features(
        out.program, out.whole, benchmark=out.benchmark,
        seed=get_descriptor(name).seed, requires=requires,
    )
    logger = PinPlayLogger(out.benchmark, out.program)
    slice_size = out.program.slice_size
    frontier = []
    for sampler in DEFAULT_SAMPLERS:
        for budget in DEFAULT_BUDGETS:
            selection = registry.run_sampler(sampler, bundle, budget)
            pinballs = logger.log_regions(selection.replay_points())
            frontier.append({
                "benchmark": out.benchmark,
                "sampler": sampler,
                "budget": budget,
                "points": selection.num_points,
                "instructions": slice_size * sum(
                    pb.total_slices_with_warmup for pb in pinballs
                ),
                "whole_instructions": out.program.num_slices * slice_size,
            })
    return {
        "table2": {
            "benchmark": out.benchmark,
            "points": out.num_points,
            "points_90": len(out.reduced),
        },
        "frontier": frontier,
    }


BODIES = {"sweep": sweep, "fig12": fig12, "pinpoints": pinpoints,
          "select": select}


def sim_frac_pct(benchmarks: Sequence[str]) -> float:
    """The Regional sets' share of the Whole Runs, warmup included, in %."""
    from repro.experiments import common

    regional = whole = 0
    for name in benchmarks:
        out = common.pinpoints_for(name)
        regional += sum(pb.total_slices_with_warmup for pb in out.regional)
        whole += out.program.num_slices
    return 100 * regional / whole
