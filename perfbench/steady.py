"""Steadiness check: run one workload repeatedly and report, for every
end-to-end metric, the median, the quartiles and the spread (quartile
distance over the median) against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload service-16 --runs 10 --first-seed 1

Each run is a separate ``run.py`` process with its own seed, as the
benchmark is meant to be run.  With ``--traced`` every seed is also run
with ``--trace 1`` and the tracing overhead (traced minus untraced
median of ``p50_s`` and ``ops_per_s``) is reported.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/steady.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--traced", action="store_true",
                        help="also run each seed traced; report the overhead")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    results = [run_once(args.workload, s, seconds, 0) for s in seeds]
    bad = [r for r in results if not r["correct"] or r["failed"]]

    print(f"{args.workload}: {len(results)} runs, seeds {seeds.start}..{seeds.stop - 1}, "
          f"{seconds} s each; incorrect or failing runs: {len(bad)}")
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    worst = 0.0
    for name in bounds:
        values = [r["metrics"][name]["value"] for r in results]
        med, q1, q3, share = spread(values)
        flag = "" if share <= bounds[name] / 3 else (" > bound/3" if share <= bounds[name] else " > BOUND")
        if name != "setup_s":
            worst = max(worst, share / bounds[name])
        print(f"{name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {share:>8.3f} {bounds[name]:>6}{flag}")
    if args.traced:
        traced = [run_once(args.workload, s, seconds, 1) for s in seeds]
        for name in ("p50_s", "ops_per_s"):
            plain = statistics.median(r["metrics"][name]["value"] for r in results)
            with_trace = statistics.median(r["metrics"][f"trace.{name}"]["value"] for r in traced)
            print(f"tracing overhead on {name}: {with_trace - plain:+.6g} "
                  f"({(with_trace - plain) / plain:+.1%} of {plain:.6g})")
    print(f"largest spread / bound (setup_s excluded): {worst:.2f}")
    return 0 if not bad and worst <= 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
