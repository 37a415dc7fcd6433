"""The repository benchmark: ``python3 perfbench/run.py --workload W``.

Starts ``python -m repro.service --port 0 --shards 2`` in a process of
its own (a fresh daemon per run), drives it from this one process over
persistent HTTP/1.1 connections (at most ``nproc`` of them, one thread
each), checks every reply against an in-process reference and prints
one JSON object as the last line of standard output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  The line before it is a
``report:`` object with the workload's own named metrics, provenance
and, when traced, self time per span; the same document, and the spans,
are written under ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Daemon start-ups per run; ``setup_s`` is their median and the last
#: daemon serves the timed phase.
SETUPS = 3


def _revision() -> str:
    """The git revision, or a digest of ``src/`` where there is no git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT:
            return lines[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small scenarios and sessions (the fast tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "service" / "__main__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from harness import DAEMON_FLAGS, Checker, Client, Daemon, nproc
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    w = WORKLOADS[args.workload](args.seed, bool(args.trace), tiny=args.tiny)
    w.prepare(args.seconds)

    setups: list[float] = []
    daemon = None
    try:
        for i in range(SETUPS):
            daemon = Daemon(ROOT, out_dir / f"{stem}.daemon.log")
            started = time.perf_counter()
            port = daemon.start()
            client = Client(port)
            w.setup(client)
            setups.append(time.perf_counter() - started)
            client.close()
            if i < SETUPS - 1:
                daemon.stop()
        before = after = {}
        if args.trace:
            before = client.get("/metrics").json()
        w.drive(port, args.seconds)
        if args.trace:
            after = client.get("/metrics").json()
            client.close()
        rss = daemon.rss_mb()
    finally:
        drained = daemon.stop() if daemon is not None else True
    w.settle()

    checkers = w.checkers()
    total = Checker()
    for c in checkers:
        total.attempted += c.attempted
        total.failed += c.failed
        total.mismatches += c.mismatches
    errors = [c.error for c in w.conns if c.error]
    correct = all(c.correct for c in checkers) and not errors and drained

    e2e = {
        "setup_s": (sorted(setups)[len(setups) // 2], "s"),
        "daemon_rss_mb": (rss, "MB"),
        **w.end_to_end(),
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            "nproc": nproc(),
            "connections": w.n_connections,
            "python": platform.python_version(),
            "revision": _revision(),
            "daemon": ["python", "-m", "repro.service", *DAEMON_FLAGS],
        },
        "setup_runs_s": setups,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "named": {k: {"value": v, "unit": u} for k, (v, u) in w.detail().items()},
        "mismatches": total.mismatches,
        "client_429s": sum(c.client.rejected for c in w.conns),
        "errors": errors,
        "daemon_drained": drained,
    }
    if args.trace:
        from layers import TARGETS, per_layer

        layer, detail = per_layer(w, before, after)
        metrics = {k: {"value": v, "unit": TARGETS[k][0]} for k, v in layer.items()}
        report["per_layer"] = {
            k: {"value": v, "unit": TARGETS[k][0], "moves": TARGETS[k][1]}
            for k, v in layer.items()
        }
        report.update(detail)
        w.spans.write(out_dir / f"{stem}.spans.ndjson")
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}

    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    print("report: " + json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
