"""Per-layer metrics of the traced run.

Server-side splits come from what the daemon already reports: the
``X-Heuristic-Seconds`` and ``X-Job-Id`` headers, ``GET /v1/jobs/<id>``
(``wait_seconds``, ``total_seconds``) and ``/metrics`` snapshots taken
before and after the timed phase.  In-process splits replay the run's
own inputs through the public functions of each layer after the HTTP
phase, timed from outside with the benchmark's span recorder.

Every metric is printed on every workload; a layer the workload does
not exercise reports 0 (no work, no time).  :data:`TARGETS` names the
end-to-end metric each one should move, and on which workload.
"""

from __future__ import annotations

import time

from harness import mean, median
from workloads import PAPER_HEURISTICS, SLRH, LiveGridWorkload, Workload

from repro.heuristics import make_scheduler, run_heuristic
from repro.io.serialization import (
    canonical_json_bytes,
    mapping_to_dict,
    scenario_digest,
    scenario_from_dict,
)
from repro.obs.spans import Tracer
from repro.session import DeltaEncoder, SessionEngine

#: Samples per in-process timing of the io layer.
IO_SAMPLES = 21

#: per-layer metric -> (unit, "end-to-end metric it moves @ workload").
TARGETS: dict[str, tuple[str, str]] = {
    "app.transport_s": ("s", "p50_s (map_p50_s, register_p50_s) @ service-16"),
    "app.response_bytes": ("bytes", "p50_s, tail_s (*_map_p50_s) @ paper-1024"),
    "app.connects_per_op": ("count", "p50_s (batch_p50_s) @ live-grid"),
    "jobs.queue_wait_s": ("s", "tail_s (map_p99_s) @ service-16"),
    "jobs.rejected": ("count", "failed @ all (expected 0)"),
    "shard.rpc_s": ("s", "p50_s (map_p50_s, cold_map_p50_s) @ service-16"),
    "shard.rpc_unexplained_s": ("s", "residual of shard.rpc_s not covered by io.*"),
    "worker.scenario_cache_hit_rate": ("ratio", "p50_s (map_p50_s, cold_map_p50_s) @ service-16"),
    "io.scenario_digest_s": ("s", "register_p50_s @ service-16"),
    "io.scenario_decode_s": ("s", "cold_map_p50_s @ service-16; setup_s @ paper-1024"),
    "io.mapping_encode_s": ("s", "p50_s, tail_s (*_map_p50_s) @ paper-1024"),
    **{
        f"kernel.map_s.{h}": ("s", f"{h}_map_p50_s, ops_per_s @ paper-1024; p50_s @ service-16")
        for h in PAPER_HEURISTICS
    },
    "kernel.tick_self_s": ("s", "p50_s (slrh*_map_p50_s) @ paper-1024"),
    "pool.columnar_s": ("s", "p50_s (slrh*_map_p50_s) @ paper-1024"),
    "commit_s": ("s", "p50_s (slrh*_map_p50_s) @ paper-1024"),
    "tick.count": ("count", "p50_s (slrh*_map_p50_s) @ paper-1024"),
    "pool.builds": ("count", "p50_s (slrh*_map_p50_s) @ paper-1024"),
    "pool.invalidations": ("count", "p50_s (slrh*_map_p50_s) @ paper-1024"),
    "pool.reuse_rate": ("ratio", "p50_s (slrh*_map_p50_s) @ paper-1024"),
    "commit.count": ("count", "p50_s (slrh*_map_p50_s) @ paper-1024"),
    **{
        f"{name}.{h}": (unit, "p50_s (slrh*) versus tail_s (maxmax) @ paper-1024")
        for h in PAPER_HEURISTICS
        for name, unit in (
            ("plan.pairs", "count"),
            ("plan.cache.pair_hit_rate", "ratio"),
            ("plan.cache.comm_hit_rate", "ratio"),
        )
    },
    "session.apply_s": ("s", "tail_s (batch_p95_s, batch_p99_s), ops_per_s (events_per_s) @ live-grid"),
    "session.encode_s": ("s", "p50_s (batch_p50_s) @ live-grid"),
    "session.delta_lines": ("count", "p50_s (batch_p50_s) @ live-grid"),
    "session.transport_s": ("s", "residual of batch latency not covered by apply + encode @ live-grid"),
    "trace.p50_s": ("s", "p50_s of this traced run; minus the untraced p50_s = tracing overhead"),
    "trace.ops_per_s": ("1/s", "ops_per_s of this traced run; versus untraced = tracing overhead"),
}


def _counter_delta(before: dict, after: dict, predicate) -> float:
    a = after.get("counters", {})
    b = before.get("counters", {})
    return sum(v - b.get(k, 0.0) for k, v in a.items() if predicate(k))


def _rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _timed(spans, name: str, fn, *args) -> float:
    """Seconds taken by ``fn(*args)``, called inside a span."""
    with spans.span(name):
        started = time.perf_counter()
        fn(*args)
        return time.perf_counter() - started


def _span_self_seconds(events: list[dict]) -> dict[str, float]:
    """Self time per span name of a :class:`Tracer` run (nesting by
    containment: the tracer records no parent links)."""
    spans = sorted(
        (e for e in events if e["dur"] is not None),
        key=lambda e: (e["ts"], -e["dur"]),
    )
    totals: dict[str, float] = {}
    stack: list[list] = []  # [end, name, child seconds, duration]

    def pop() -> None:
        end, name, children, dur = stack.pop()
        totals[name] = totals.get(name, 0.0) + max(0.0, dur - children)

    for e in spans:
        while stack and e["ts"] >= stack[-1][0]:
            pop()
        if stack:
            stack[-1][2] += e["dur"]
        stack.append([e["ts"] + e["dur"], e["name"], 0.0, e["dur"]])
    while stack:
        pop()
    return totals


def _perf_of(result) -> dict:
    """Engine counters of one mapping (a session's whole life for a
    session outcome)."""
    if result.trace is not None and result.trace.perf:
        return dict(result.trace.perf)
    return result.schedule.perf.snapshot()


def per_layer(w: Workload, before: dict, after: dict) -> tuple[dict, dict]:
    """Every per-layer metric for workload *w*, plus a detail dict
    (self time per span name, reconciliation inputs)."""
    m = {name: 0.0 for name in TARGETS}
    spans = w.spans
    maps = w.all_maps()
    traced = [r for r in maps if r.server]

    # -- app / jobs / shard ----------------------------------------------
    if traced:
        m["app.transport_s"] = median([r.seconds - r.server["total_seconds"] for r in traced])
        m["jobs.queue_wait_s"] = mean([r.server["wait_seconds"] for r in traced])
        rpc = [
            r.server["total_seconds"] - r.server["wait_seconds"] - r.kernel_seconds
            for r in traced
        ]
        m["shard.rpc_s"] = median(rpc)
    batches = [b for c in w.conns for b in c.batches]
    replies = [r.response_bytes for r in maps] + [b[1] for b in batches]
    m["app.response_bytes"] = mean(replies)
    m["app.connects_per_op"] = w.connects_per_op()
    m["jobs.rejected"] = _counter_delta(
        before, after, lambda k: k in ("service.rejected", "session.rejected")
    )
    hits = _counter_delta(before, after, lambda k: k.endswith(".cache_hits") and k.startswith("shard"))
    misses = _counter_delta(before, after, lambda k: k.endswith(".cache_misses") and k.startswith("shard"))
    m["worker.scenario_cache_hit_rate"] = _rate(hits, misses)
    for h in PAPER_HEURISTICS:
        kernel = [r.kernel_seconds for r in maps if r.heuristic == h]
        if kernel:
            m[f"kernel.map_s.{h}"] = median(kernel)

    # -- io (registry / serialization), replayed in-process --------------
    docs, results = w.layer_inputs()
    digest, decode = [], []
    for i in range(IO_SAMPLES):
        doc = docs[i % len(docs)]
        digest.append(_timed(spans, "io.scenario_digest", scenario_digest, doc))
        decode.append(_timed(spans, "io.scenario_decode", scenario_from_dict, doc))
    m["io.scenario_digest_s"] = median(digest)
    m["io.scenario_decode_s"] = median(decode)
    encode, to_dict = [], []
    for i in range(IO_SAMPLES):
        schedule = results[i % len(results)][1].schedule
        with spans.span("io.mapping_encode") as sid:
            started = time.perf_counter()
            with spans.span("io.mapping_to_dict", parent=sid):
                doc = mapping_to_dict(schedule)
            mid = time.perf_counter()
            with spans.span("io.canonical_json", parent=sid):
                canonical_json_bytes(doc)
            ended = time.perf_counter()
        encode.append(ended - started)
        to_dict.append(mid - started)
    m["io.mapping_encode_s"] = median(encode)
    if traced:
        # In the shard the worker builds the mapping dict (and decodes
        # the document on a cache miss); everything else in rpc is pipe,
        # pickling and dispatch.
        m["shard.rpc_unexplained_s"] = m["shard.rpc_s"] - (
            median(to_dict) + (1.0 - m["worker.scenario_cache_hit_rate"]) * m["io.scenario_decode_s"]
        )

    # -- kernel and plan counters ----------------------------------------
    slrh = [r for h, r in results if h in SLRH]
    if slrh:
        perfs = [_perf_of(r) for r in slrh]

        def per_map(key: str) -> float:
            return mean([p.get(key, 0.0) for p in perfs])

        for key in ("tick.count", "pool.builds", "pool.invalidations", "commit.count"):
            m[key] = per_map(key)
        m["pool.reuse_rate"] = _rate(per_map("pool.reuse_hits"), per_map("pool.builds"))
        kernel_self: dict[str, float] = {}
        replays = w.kernel_replays()
        for scenario, h in replays:
            tracer = Tracer()
            with spans.span(f"replay.kernel.{h}"):
                run_heuristic(h, scenario, tracer=tracer)
            for name, seconds in _span_self_seconds(tracer.events).items():
                kernel_self[name] = kernel_self.get(name, 0.0) + seconds
        if replays:
            n = len(replays)
            m["kernel.tick_self_s"] = kernel_self.get("kernel.tick", 0.0) / n
            m["pool.columnar_s"] = kernel_self.get("pool.columnar", 0.0) / n
            m["commit_s"] = kernel_self.get("commit", 0.0) / n
    for h in PAPER_HEURISTICS:
        perfs = [_perf_of(r) for name, r in results if name == h]
        if not perfs:
            continue
        total = {k: sum(p.get(k, 0.0) for p in perfs) for k in set().union(*perfs)}
        m[f"plan.pairs.{h}"] = total.get("plan.pairs", 0.0) / len(perfs)
        m[f"plan.cache.pair_hit_rate.{h}"] = _rate(
            total.get("plan.cache.pair_hit", 0.0), total.get("plan.cache.pair_miss", 0.0)
        )
        m[f"plan.cache.comm_hit_rate.{h}"] = _rate(
            total.get("plan.cache.comm_hit", 0.0), total.get("plan.cache.comm_miss", 0.0)
        )

    # -- session engine and delta codec ----------------------------------
    if isinstance(w, LiveGridWorkload):
        m.update(session_layers(w))

    e2e = w.end_to_end()
    m["trace.p50_s"] = e2e["p50_s"][0]
    m["trace.ops_per_s"] = e2e["ops_per_s"][0]
    detail = {
        "span_self_seconds": spans.self_seconds(),
        "mapping_to_dict_s": median(to_dict),
    }
    return m, detail


def session_layers(w: LiveGridWorkload) -> dict[str, float]:
    """Replay the first checked session batch by batch, timing
    ``SessionEngine.apply`` and ``DeltaEncoder.delta_lines`` per batch,
    and pair each batch with the client latency of the same batch."""
    out: dict[str, float] = {}
    sessions = [s for c in w.conns for s in c.sessions]
    if not sessions:
        return out
    index, client_latency = sessions[0]
    held, events, _ = w.streams[index]
    engine = SessionEngine(w.scenario, make_scheduler("slrh1"), pending=held)
    encoder = DeltaEncoder(engine.schedule)
    apply_s, encode_s, lines_n = [], [], []
    spans = w.spans
    for start in range(0, len(events), w.BATCH):
        apply_t = encode_t = 0.0
        n_lines = 0
        with spans.span("replay.batch", request=("replay", index, start)) as sid:
            for ev in events[start:start + w.BATCH]:
                with spans.span("session.apply", parent=sid):
                    t0 = time.perf_counter()
                    engine.apply(ev)
                    t1 = time.perf_counter()
                with spans.span("session.encode", parent=sid):
                    lines = list(encoder.delta_lines(cycle=ev.cycle, event=ev.kind))
                    if engine.closed:
                        lines.extend(encoder.footer_lines())
                    t2 = time.perf_counter()
                apply_t += t1 - t0
                encode_t += t2 - t1
                n_lines += len(lines)
                if engine.closed:
                    break
        apply_s.append(apply_t)
        encode_s.append(encode_t)
        lines_n.append(n_lines)
    out["session.apply_s"] = median(apply_s)
    out["session.encode_s"] = median(encode_s)
    out["session.delta_lines"] = mean(lines_n)
    if client_latency:
        out["session.transport_s"] = median(
            [lat - a - e for lat, a, e in zip(client_latency, apply_s, encode_s)]
        )
    return out
