"""One repetition of a workload, in the fresh process it needs.

    python3 perfbench/rep.py KIND BENCHMARK[,BENCHMARK...] [--jobs N]
        [--store DIR] [--trace]
    python3 perfbench/rep.py build -

``build`` only loads the program and its native kernel (compiling the
kernel on first use) and reports the environment.

Run by ``run.py`` from the repository root with ``src`` on
``PYTHONPATH``.  Prints one JSON record as its last line: set-up time
(imports and the native cache-kernel load), the wall time of the
workload body, both also scaled to the reference host speed
(:mod:`hostspeed`), the result rows, the instructions simulated, peak
memory, the resolved cache backend and, with ``--trace``, the per-layer
figures of :mod:`layers`.
"""

from time import perf_counter_ns

_STARTED_NS = perf_counter_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB; pool workers count as children.
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind")
    parser.add_argument("benchmarks")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--store", default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import numpy
    import repro.experiments  # noqa: F401
    from repro.cache.fused import resolve_backend
    from repro.experiments.common import configure_cache

    import hostspeed
    import layers
    import workloads

    backend = resolve_backend()  # loads, or first builds, the native kernel
    setup_ns = perf_counter_ns() - _STARTED_NS
    env = {
        "cores": os.cpu_count(),
        "backend": backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if args.kind == "build":
        print(json.dumps({"env": env}))
        return 0

    tracer = layers.Tracer()
    layers.install(tracer, timing=args.trace)
    configure_cache(args.store, enabled=args.store is not None)
    benchmarks = args.benchmarks.split(",")
    body = workloads.BODIES[args.kind]

    clock = hostspeed.Clock()
    rows = body(benchmarks, args.jobs, clock)
    wall_ns = clock.wall_ns

    record = {
        "setup_s": setup_ns / 1e9,
        "wall_s": wall_ns / 1e9,
        "scaled_setup_s": clock.scaled(setup_ns / 1e9),
        "scaled_wall_s": clock.scaled(wall_ns / 1e9),
        "rows": rows,
        "env": env,
        "sim_instructions": tracer.counts["sim.instructions"],
    }
    if args.trace:
        record["layers"] = layers.layer_metrics(tracer, wall_ns)
    if args.kind == "sweep":
        record["sim_frac_pct"] = workloads.sim_frac_pct(benchmarks)
    record["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
