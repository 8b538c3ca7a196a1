"""The benchmark suite the workloads draw from, and the committed rows.

Everything here reads only the committed ``results/*.json`` files, so
the driving process never imports the program it measures.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from statistics import mean
from typing import Dict, Iterable, List, Sequence, Tuple

RESULTS = Path("results")

#: The suite ranked by the host time Figure 12 takes on each benchmark
#: alone with its PinPoints stored, cheapest first (native backend, one
#: thread, 2-core x86-64 host, scaled to the reference host speed of
#: :mod:`hostspeed`; 1.2 s for 544.nab_r up to 3.7 s for 605.mcf_s).  A
#: benchmark's cost there follows its memory behaviour through the
#: set-associative LRU path, so the ranking carries over between hosts
#: better than the times.  Drawing one benchmark per stratum of it keeps
#: the work of a seed's subset close to every other seed's: over seeds
#: 1-400 the quartile distance of an 8-benchmark subset's summed time is
#: 3.6 % of its median, against 11.6 % for strata of suite order.  A
#: stale ranking unbalances subsets, never results.
FIG12_COST_ORDER = (
    "544.nab_r", "631.deepsjeng_s", "641.leela_s", "602.gcc_s",
    "538.imagick_r", "541.leela_r", "625.x264_s", "648.exchange2_s",
    "531.deepsjeng_r", "557.xz_r", "548.exchange2_r", "525.x264_r",
    "526.blender_r", "511.povray_r", "503.bwaves_r", "510.parest_r",
    "500.perlbench_r", "519.lbm_r", "502.gcc_r", "657.xz_s", "508.namd_r",
    "600.perlbench_s", "620.omnetpp_s", "520.omnetpp_r", "507.cactuBSSN_r",
    "623.xalancbmk_s", "549.fotonik3d_r", "505.mcf_r", "605.mcf_s",
)


def committed(experiment: str) -> List[dict]:
    """The committed result rows of ``experiment``, in suite order."""
    payload = json.loads((RESULTS / f"{experiment}.json").read_text())
    return payload["data"]["rows"]


def suite_names() -> List[str]:
    """The suite's benchmarks, in Table II order."""
    return [row["benchmark"] for row in committed("table2")]


def draw(seed: int, size: int, order: Sequence[str] = ()) -> List[str]:
    """Draw ``size`` benchmarks for ``seed``: a stratified random sample.

    ``order`` (default: suite order) is cut into ``size`` contiguous
    strata of near-equal size, and the seed picks one benchmark from
    each.  Names come back in suite order.
    """
    names = suite_names()
    order = list(order) or names
    if sorted(order) != sorted(names):
        raise ValueError("the order to draw from must rank the whole suite")
    if not 1 <= size <= len(names):
        raise ValueError(f"subset size must be 1..{len(names)}, got {size}")
    rng = random.Random(seed)
    drawn = {
        rng.choice(order[h * len(order) // size:(h + 1) * len(order) // size])
        for h in range(size)
    }
    return [name for name in names if name in drawn]


def compare(
    experiment: str,
    rows: Sequence[dict],
    benchmarks: Iterable[str],
    key: Tuple[str, ...] = ("benchmark",),
    fields: Tuple[str, ...] = (),
) -> Tuple[int, List[str]]:
    """Check computed ``rows`` against the committed ones of ``benchmarks``.

    Every committed row of those benchmarks is expected exactly once,
    matched on ``key``; ``fields`` restricts the comparison to those
    fields (default: the whole row).  Values must be exactly equal, since
    every simulated number is deterministic.  A missing, duplicated,
    unexpected or differing row is one mismatch.

    Returns:
        ``(items, mismatches)``: the rows expected plus those that were
        not, and a description of each mismatch.
    """
    wanted = set(benchmarks)
    expected = {
        tuple(r[k] for k in key): r
        for r in committed(experiment) if r["benchmark"] in wanted
    }
    mismatches, seen = [], set()
    for row in rows:
        ident = tuple(row.get(k) for k in key)
        want = expected.get(ident)
        if want is None or ident in seen:
            mismatches.append(f"{experiment} {ident}: unexpected row")
            continue
        seen.add(ident)
        names = fields or tuple(want)
        diff = [n for n in names if row.get(n) != want.get(n)]
        if not fields and set(row) != set(want):
            diff.append("<keys>")
        if diff:
            mismatches.append(f"{experiment} {ident}: {', '.join(diff)} differ")
    missing = [ident for ident in expected if ident not in seen]
    mismatches += [f"{experiment} {ident}: missing" for ident in missing]
    return len(expected) + len(rows) - len(seen), mismatches


def _suite_rows(
    experiment: str,
    recomputed: Sequence[dict],
    key: Tuple[str, ...] = ("benchmark",),
) -> List[dict]:
    fresh: Dict[tuple, dict] = {tuple(r[k] for k in key): r for r in recomputed}
    return [fresh.get(tuple(r[k] for k in key), r) for r in committed(experiment)]


def l3_err_pp(fig8_rows: Sequence[dict] = ()) -> float:
    """Suite-mean |Regional - Whole| L3 miss rate, in percentage points.

    Over the committed Figure 8 rows, with the rows this run recomputed
    in place of the committed ones.
    """
    return mean(
        abs(r["regional"]["miss_rates"]["L3"] - r["whole"]["miss_rates"]["L3"])
        * 100
        for r in _suite_rows("fig8", fig8_rows)
    )


def cpi_err_pct(fig12_rows: Sequence[dict] = ()) -> float:
    """Suite-mean |Sniper-Regional - native| / native CPI, in percent.

    Over the committed Figure 12 rows, with the rows this run recomputed
    in place of the committed ones.
    """
    return mean(
        abs(r["regional_cpi"] - r["native_cpi"]) / r["native_cpi"] * 100
        for r in _suite_rows("fig12", fig12_rows)
    )



def frontier_sim_frac_pct(frontier_rows: Sequence[dict] = ()) -> float:
    """Suite-wide share of whole-run instructions the frontier simulates.

    Over every committed ``sampler-frontier`` row (each sampler at each
    budget, warmup included), with the rows this run recomputed in place
    of the committed ones.
    """
    rows = _suite_rows(
        "sampler-frontier", frontier_rows, ("benchmark", "sampler", "budget")
    )
    return 100 * sum(r["instructions"] for r in rows) / sum(
        r["whole_instructions"] for r in rows
    )
