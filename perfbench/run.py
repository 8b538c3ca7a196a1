"""The repository benchmark: four workloads over the paper's Figure 2 flow.

    python3 perfbench/run.py --backend native --seed N [--workload NAME]
        [--seconds S] [--trace 0|1]

Run from the repository root; without ``--workload`` every workload runs
in turn.  ``BENCHMARK.json`` records the backend and the default seed in
its command.  ``sniper-cpi`` and ``sampler-sweep`` draw their benchmarks
from ``--seed`` (:func:`suite.draw`); the sweeps run a fixed
cross-section.  Each workload repeats its unit of work, each repetition
in a fresh process (``rep.py``) with one thread per process, and starts
no repetition that would end after ``--seconds``.  Every
repetition's result rows are checked against the committed ``results/``
rows of its benchmarks and must match exactly; a mismatched, missing or
unexpected row, a crash or a cache backend other than ``--backend``
counts as a failed item.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1``
repetitions alternate between untraced and traced, and the metrics are
the per-layer ones (:mod:`layers`), averaged over the traced
repetitions, plus the tracing overhead and the simulated throughput
(``sim_minstr_per_s``) of the untraced ones.

Host times (``wall_s``, ``setup_s`` and the throughput derived from
them) are scaled to the reference host speed by probes taken between a
repetition's segments (:mod:`hostspeed`): the shared host's speed
drifts by tens of percent between runs, and the scaling takes that
drift out without touching what the program costs.  The raw host times
are printed beside the scaled ones.  Per-layer self times stay raw, so
that with ``unattributed_s`` they sum to the traced run's ``trace.wall_s``.

``l3_err_pp`` and ``cpi_err_pct`` are suite-wide means over the
committed Figure 8 and Figure 12 rows with this run's rows in place of
the committed ones; on a workload that computes no such rows they are
the committed suite's values.  ``sim_frac_pct`` is the share the sweeps'
Regional sets simulate of their Whole Runs; elsewhere it is the
suite-wide share of the frontier samplers
(:func:`suite.frontier_sim_frac_pct`), with this run's frontier rows in
place.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

import suite

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
NPROC = os.cpu_count() or 1

#: A run stops starting repetitions once this many seconds are gone,
#: so it ends well inside the three minutes a run may take.
HARD_STOP_S = 120


#: The sweeps run one fixed cross-section of the suite, every fifth
#: benchmark in Table II order (six).  A sweep's cost depends on how its
#: benchmarks share the slice memo, so a subset drawn anew for every
#: seed would make its time differ from seed to seed.
SWEEP_STEP = 5


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        kind: Body in ``workloads.BODIES`` each repetition runs.
        jobs: Worker processes of a repetition.
        size: Benchmarks :func:`suite.draw` draws per seed, or 0 for the
            fixed sweep cross-section.
        order: Ranking of the suite the draw stratifies (default: suite
            order).
        fill: Body that fills a private artifact store during set-up, or
            None.  Without a fill, ``kind == "sweep"`` repetitions each
            get a fresh empty store and the others run without one.
    """

    kind: str
    jobs: int
    size: int = 0
    order: Tuple[str, ...] = ()
    fill: Optional[str] = None

    def benchmarks(self, seed: int) -> List[str]:
        """The benchmarks a run with ``seed`` measures."""
        if not self.size:
            return suite.suite_names()[::SWEEP_STEP]
        return suite.draw(seed, self.size, self.order)


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {
    "sweep-cold": Workload("sweep", jobs=1),
    "sweep-warm": Workload("sweep", jobs=1, fill="sweep"),
    "sniper-cpi": Workload("fig12", jobs=1, size=8,
                           order=suite.FIG12_COST_ORDER, fill="pinpoints"),
    "sampler-sweep": Workload("select", jobs=NPROC, size=16),
}

#: The result families each body returns, and how each is checked
#: against the committed rows (:func:`suite.compare`).
CHECKS = {
    "sweep": {"fig7": {}, "fig8": {}, "fig10": {}},
    "fig12": {"fig12": {}},
    "select": {
        "table2": {"fields": ("points", "points_90")},
        "sampler-frontier": {
            "key": ("benchmark", "sampler", "budget"),
            "fields": ("points", "instructions", "whole_instructions"),
        },
    },
}


def _child_env(backend: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        # One thread per process, so a workload runs at most as many
        # threads as it has workers and never more than the cores.
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=str(ROOT / "src"),
        REPRO_NATIVE_CACHE=str(WORK / "native"),
        REPRO_CACHE_DIR=str(WORK / "default-store"),
        REPRO_CACHE_BACKEND=backend,
    )
    return env


def run_child(args: List[str], backend: str, timeout: float) -> dict:
    """Run ``rep.py`` with ``args``; its last output line, parsed.

    The child leads its own process group, so a timeout also stops the
    pool workers it started.
    """
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), *args],
        cwd=ROOT, env=_child_env(backend), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"rep.py {' '.join(args[:2])} exited {proc.returncode}: "
            f"{stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


@dataclass
class Tally:
    """Items checked against the committed rows, and those that failed."""

    attempted: int = 0
    failed: int = 0

    def check(self, record: dict, kind: str, benchmarks: List[str],
              backend: str) -> List[str]:
        """Count one repetition's items; describe each that failed."""
        checks = CHECKS[kind]
        problems = [f"{family}: unexpected result family"
                    for family in record["rows"] if family not in checks]
        attempted = len(problems)
        for family, how in checks.items():
            items, mismatches = suite.compare(
                family, record["rows"].get(family, ()), benchmarks, **how
            )
            attempted += items
            problems += mismatches
        self.attempted += attempted
        if record["env"]["backend"] != backend:
            problems.append(
                f"cache backend {record['env']['backend']!r}, "
                f"expected {backend!r}"
            )
            self.failed += attempted
        else:
            self.failed += len(problems)
        return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 backend: str) -> dict:
    """One benchmark run: set up, measure for ``seconds``, check, report."""
    spec = WORKLOADS[name]
    benchmarks = spec.benchmarks(seed)
    names = ",".join(benchmarks)
    started = time.monotonic()
    deadline = started + HARD_STOP_S

    def remaining() -> float:
        return deadline + 40 - time.monotonic()

    build = run_child(["build", "-"], backend, remaining())
    env = build["env"]
    print(f"# {name}: seed {seed}, benchmarks {names}")
    print(f"# env {json.dumps(env, sort_keys=True)}")

    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    tally, problems = Tally(), []
    setups, fill_s = [], 0.0
    untraced: List[dict] = []
    traced: List[dict] = []
    try:
        store = None
        if spec.fill is not None:
            store = run_dir / "store"
            filled = run_child(
                [spec.fill, names, "--jobs", str(NPROC), "--store", str(store)],
                backend, remaining(),
            )
            setups.append(filled["scaled_setup_s"])
            fill_s = filled["scaled_wall_s"]
        measure_start = time.monotonic()
        last = 0.0
        rep = 0
        while True:
            tracing = trace and rep % 2 == 1
            args = [spec.kind, names, "--jobs", str(spec.jobs)]
            rep_store = store
            if rep_store is None and spec.kind == "sweep":
                rep_store = run_dir / f"store-{rep}"
            if rep_store is not None:
                args += ["--store", str(rep_store)]
            if tracing:
                args.append("--trace")
            t0 = time.monotonic()
            try:
                record = run_child(args, backend, remaining())
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                tally.attempted += 1
                tally.failed += 1
                problems.append(str(exc))
                break
            last = time.monotonic() - t0
            if store is None and rep_store is not None:
                shutil.rmtree(rep_store, ignore_errors=True)
            problems += tally.check(record, spec.kind, benchmarks, backend)
            setups.append(record["scaled_setup_s"])
            (traced if tracing else untraced).append(record)
            rep += 1
            # Start no repetition that would end after ``seconds``,
            # judged by the last one, once each kind needed has run.
            enough = untraced and (traced or not trace)
            if enough and (
                time.monotonic() + last - measure_start > seconds
                or time.monotonic() + last > deadline
            ):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for problem in problems:
        print(f"# FAILED {problem}")
    print(f"# {name}: repetition walls, host / scaled (s) "
          + " ".join(f"{r['wall_s']:.3f}/{r['scaled_wall_s']:.3f}"
                     for r in untraced + traced))
    metrics: Dict[str, float] = {}
    if untraced:
        wall = median(r["scaled_wall_s"] for r in untraced)
        first = untraced[0]
        rows = first["rows"]
        sim_frac = first.get("sim_frac_pct")
        if sim_frac is None:
            sim_frac = suite.frontier_sim_frac_pct(
                rows.get("sampler-frontier", ())
            )
        metrics = {
            "wall_s": wall,
            "setup_s": median(setups) + fill_s,
            "peak_rss_mb": median(r["peak_rss_mb"] for r in untraced),
            "l3_err_pp": suite.l3_err_pp(rows.get("fig8", ())),
            "cpi_err_pct": suite.cpi_err_pct(rows.get("fig12", ())),
            "sim_frac_pct": sim_frac,
            "sim_minstr_per_s": median(
                r["sim_instructions"] / 1e6 / r["scaled_wall_s"]
                for r in untraced
            ),
            "reps": len(untraced),
        }
    if traced:
        layer_names = traced[0]["layers"]
        metrics.update({
            key: sum(r["layers"][key] for r in traced) / len(traced)
            for key in layer_names
        })
        metrics["trace.overhead_frac"] = (
            median(r["scaled_wall_s"] for r in traced) / metrics["wall_s"] - 1
        )
        metrics["trace.reps"] = len(traced)
        share = metrics["unattributed_s"] / metrics["trace.wall_s"]
        print(f"# {name}: layer self times plus unattributed_s sum to the "
              f"traced wall time; unattributed share {share:.2%}"
              + (" (over 5%)" if share > 0.05 else ""))
    return {
        "correct": not problems and bool(untraced),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": metrics,
    }


def _report(result: dict, declared: List[dict]) -> dict:
    """Print ``declared`` metrics as a table; the contract's JSON object."""
    out = {}
    for spec in declared:
        value = result["metrics"].get(spec["name"])
        if value is None:
            continue
        print(f"{spec['name']:30s} {value:14.6g} {spec['unit']:8s} "
              f"({spec['better']} is better)")
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": out,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see BENCHMARK.json)."
    )
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--backend", required=True,
                        help="cache backend every repetition must resolve to")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not suite.RESULTS.is_dir():
        print("perfbench: run from the repository root (src/repro and "
              "results/ are missing here)", file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    # A terminated run still stops its repetition's process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    declared = manifest["per_layer" if args.trace else "end_to_end"]
    seconds = args.seconds or manifest["run_seconds"]

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = run_workload(
                name, args.seed, seconds, bool(args.trace), args.backend
            )
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
        print(f"# {name}: failed_frac "
              f"{result['failed'] / result['attempted']:.4g} "
              f"({result['attempted']} items checked, {result['failed']} "
              f"failed); repetitions {result['metrics'].get('reps', 0)} "
              f"untraced, {result['metrics'].get('trace.reps', 0)} traced")
        print(json.dumps(_report(result, declared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
