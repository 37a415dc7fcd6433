#!/usr/bin/env python
"""Generate ``BENCH_kernel.json``: columnar vs the rebuild oracle.

Measures, for each SLRH variant on the 240-task comparison workload, the
best-of-N wall time of a full ``map()`` under the two kernel modes:

* ``columnar`` — flat-array candidate scoring over the delta-maintained
  pool (the default path, ``REPRO_KERNEL=columnar``);
* ``rebuild`` — from-scratch pool construction per (tick, machine), the
  paper-literal differential oracle behind ``REPRO_KERNEL=rebuild``.

It also times the static heuristics (Max-Max, Min-Min), which have no
kernel modes: each maps the generated scenarios of seeds 1 and 2 (the
golden-digest and perfbench scenarios) at 240 and 1024 tasks, and the
document records the per-map best and median seconds plus the
static-round memo's fresh (``plan.pairs``) and re-placed
(``plan.replacements``) pair counts.

Mode runs are interleaved within each repeat so frequency scaling and
cache warmth hit both modes equally.  Before timing anything it asserts
byte-identity of the two modes' mappings on the measured scenario — a
benchmark of a wrong answer is worse than no benchmark.  The acceptance
criterion — rebuild/columnar speedup >= 2.25x for every SLRH variant —
is recorded in the document and enforced with exit status 1 when missed
at the 240-task scale.

Usage::

    python benchmarks/bench_kernel.py                 # write BENCH_kernel.json
    python benchmarks/bench_kernel.py --out F.json    # write elsewhere
    python benchmarks/bench_kernel.py --n-tasks 64 --repeats 2   # quick look
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # script invocation: python benchmarks/bench_...
    _SRC = Path(__file__).resolve().parent.parent / "src"
    if _SRC.exists() and str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro.core.kernel import KERNEL_MODES  # noqa: E402
from repro.core.objective import Weights  # noqa: E402
from repro.core.slrh import SLRH_VARIANTS, SlrhConfig  # noqa: E402
from repro.heuristics import generate_named_scenario, run_heuristic  # noqa: E402
from repro.io.serialization import canonical_mapping_bytes  # noqa: E402
from repro.workload.scenario import paper_scaled_suite  # noqa: E402

SCHEMA = "repro.bench/1"
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"
#: Per-variant rebuild/columnar floor at the 240-task scale.
CRITERION_COLUMNAR = 2.25

ALPHA, BETA = 0.5, 0.2

#: The static arm: heuristics, scales and generator seeds.
STATIC_HEURISTICS = ("maxmax", "minmin")
STATIC_SIZES = (240, 1024)
STATIC_SEEDS = (1, 2)


def _one_map_seconds(variant, scenario, weights, mode: str):
    """Wall seconds for one full map, plus the run's canonical mapping
    bytes and perf snapshot."""
    scheduler = SLRH_VARIANTS[variant](
        SlrhConfig(weights=weights, kernel=mode)
    )
    start = time.perf_counter()
    result = scheduler.map(scenario)
    elapsed = time.perf_counter() - start
    return elapsed, canonical_mapping_bytes(result.schedule), result.trace.perf


def measure_static(repeats: int) -> dict:
    """Per-map wall time of the static heuristics at each scale and seed;
    maps of one scenario run interleaved across heuristics per repeat."""
    runs: dict[str, dict] = {}
    for n_tasks in STATIC_SIZES:
        for seed in STATIC_SEEDS:
            scenario = generate_named_scenario(n_tasks, seed)
            times: dict[str, list[float]] = {h: [] for h in STATIC_HEURISTICS}
            results = {}
            for _ in range(repeats):
                for name in STATIC_HEURISTICS:
                    start = time.perf_counter()
                    results[name] = run_heuristic(name, scenario)
                    times[name].append(time.perf_counter() - start)
            for name in STATIC_HEURISTICS:
                result = results[name]
                entry = runs[f"{name}/{n_tasks}/{seed}"] = {
                    "best_seconds": round(min(times[name]), 4),
                    "median_seconds": round(statistics.median(times[name]), 4),
                    "plan_pairs": result.perf.get("plan.pairs", 0.0),
                    "plan_replacements": result.perf.get("plan.replacements", 0.0),
                    "mapping_sha256": hashlib.sha256(
                        canonical_mapping_bytes(result.schedule)
                    ).hexdigest(),
                }
                print(
                    f"{name}/{n_tasks}/{seed}: best {entry['best_seconds']:.3f}s "
                    f"median {entry['median_seconds']:.3f}s, "
                    f"{entry['plan_pairs']:g} fresh + "
                    f"{entry['plan_replacements']:g} re-placed pairs"
                )
    return {
        "scenarios": "generate_named_scenario(n_tasks, seed) for n_tasks in "
        f"{list(STATIC_SIZES)}, seed in {list(STATIC_SEEDS)}",
        "weights": f"Weights.from_alpha_beta({ALPHA}, {BETA}) (Max-Max; "
        "Min-Min is weight-free)",
        "timing": f"{repeats} full map() calls per heuristic and scenario",
        "runs": runs,
    }


def measure(n_tasks: int, repeats: int, seed: int) -> dict:
    suite = paper_scaled_suite(n_tasks, n_etc=1, n_dag=1, seed=seed)
    scenario = suite.scenario(0, 0, "A")
    weights = Weights.from_alpha_beta(ALPHA, BETA)

    per_heuristic: dict[str, dict] = {}
    for variant, cls in SLRH_VARIANTS.items():
        timings = {mode: float("inf") for mode in KERNEL_MODES}
        payloads: dict[str, bytes] = {}
        perfs: dict[str, dict] = {}
        # Interleave the modes within each repeat: frequency scaling and
        # cache warmth then bias every mode equally, keeping the ratios
        # (the quantity the criteria gate on) stable on noisy runners.
        for _ in range(repeats):
            for mode in KERNEL_MODES:
                elapsed, payloads[mode], perfs[mode] = _one_map_seconds(
                    variant, scenario, weights, mode
                )
                timings[mode] = min(timings[mode], elapsed)
        for mode in KERNEL_MODES:
            if payloads[mode] != payloads["rebuild"]:
                raise SystemExit(
                    f"{cls.name}: {mode} and rebuild mappings differ — "
                    "refusing to benchmark a broken kernel"
                )
        columnar_speedup = round(timings["rebuild"] / timings["columnar"], 3)
        reuse = perfs["columnar"].get("pool.reuse_hits", 0.0)
        invalidated = perfs["columnar"].get("pool.invalidations", 0.0)
        per_heuristic[cls.name] = {
            "columnar_best_seconds": round(timings["columnar"], 4),
            "rebuild_best_seconds": round(timings["rebuild"], 4),
            "columnar_speedup": columnar_speedup,
            "pool_reuse_hits": reuse,
            "pool_invalidations": invalidated,
            "pool_reuse_rate": round(reuse / (reuse + invalidated), 4)
            if reuse + invalidated
            else 0.0,
        }
        print(
            f"{cls.name}: rebuild {timings['rebuild']:.3f}s -> "
            f"columnar {timings['columnar']:.3f}s ({columnar_speedup:.2f}x, "
            f"reuse rate {per_heuristic[cls.name]['pool_reuse_rate']:.0%})"
        )

    return {
        "schema": SCHEMA,
        "benchmark": "kernel",
        "date": datetime.date.today().isoformat(),
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "workload": {
            "suite": f"paper_scaled_suite(n_tasks={n_tasks}, n_etc=1, "
            f"n_dag=1, seed={seed})",
            "scenario": "(etc=0, dag=0, case='A')",
            "weights": f"Weights.from_alpha_beta({ALPHA}, {BETA})",
            "timing": f"best of {repeats} full map() calls per kernel mode",
        },
        "kernel_speedup": {
            "per_heuristic": per_heuristic,
            "columnar_criterion": f"rebuild/columnar >= "
            f"{CRITERION_COLUMNAR}x per SLRH variant at the "
            f"{n_tasks}-task scale, byte-identical mappings",
        },
        "static": measure_static(repeats),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--n-tasks", type=int, default=240)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    doc = measure(args.n_tasks, args.repeats, args.seed)
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n")
    print(f"wrote {args.out}")
    failed = False
    if args.n_tasks >= 240:
        for name, entry in doc["kernel_speedup"]["per_heuristic"].items():
            if entry["columnar_speedup"] < CRITERION_COLUMNAR:
                print(
                    f"FAIL: {name} columnar speedup "
                    f"{entry['columnar_speedup']:.2f}x below the "
                    f"{CRITERION_COLUMNAR}x criterion",
                    file=sys.stderr,
                )
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
