"""The mapping executor shared by in-process and shard-process execution.

:func:`execute_mapping` is a module-level function taking plain JSON-able
values and returning them plus the reply bytes it already encoded, so a
shard dispatcher can run it directly (``--shards 1``) or ship it to a
long-lived shard child process — in both cases through the same registry
dispatch (:func:`repro.heuristics.run_heuristic`), which is what keeps
served results byte-identical to the batch CLI at any shard count.

Each worker process keeps a small LRU of deserialised scenarios keyed by
content digest, so a stream of requests against one hot scenario
deserialises it once per process, not once per request.  The LRU bound is
configurable (``--scenario-cache`` / ``$REPRO_SCENARIO_CACHE``; default
:data:`DEFAULT_SCENARIO_CACHE`), and every hit/miss/eviction is reported
back in the job outcome's perf snapshot as
``worker.scenario_cache_{hits,misses,evictions}``.

:func:`shard_main` is the shard child's top-level loop: it reads command
tuples off a pipe and answers each with exactly one reply on the result
queue (the :class:`~repro.util.parallel.ShardProcess` contract).  Besides
one-shot jobs it hosts *sessions* — persistent
:class:`~repro.session.SessionEngine` kernels that live in exactly one
shard process for their whole lifetime (:class:`SessionHost`).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import replace as _dc_replace
from typing import Any

from repro.core.kernel import KERNEL_MODES, resolve_kernel_mode
from repro.core.objective import Weights
from repro.heuristics import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    SLRH_FAMILY,
    WEIGHTED_HEURISTICS,
    make_scheduler,
    normalize_heuristic,
    run_heuristic,
)
from repro.io.serialization import (
    canonical_json_bytes,
    canonical_mapping_bytes,
    scenario_from_dict,
)
from repro.session import DeltaEncoder, SessionEngine, event_from_dict
from repro.sim.trace import MappingTrace
from repro.workload.scenario import Scenario

#: Default bound on deserialised scenarios kept hot per worker process.
DEFAULT_SCENARIO_CACHE = 8

#: SlrhConfig fields a session-open request may override.  Everything
#: else (weights aside) is pinned to the registry defaults so "same
#: scenario + heuristic + overrides" means the same mapping everywhere.
_CONFIG_OVERRIDES = ("delta_t_cycles", "horizon_cycles", "kernel")

# Explicit override from configure_scenario_cache(); None defers to the
# environment / default at lookup time.  Per-process state, set once at
# process start (shard_main / router construction) before any traffic.
_cache_max: int | None = None


def configure_scenario_cache(limit: int | str | None) -> int | None:
    """Set this process's scenario-LRU bound (``None`` resets to the
    environment/default resolution).  Returns the stored value."""
    global _cache_max
    if limit is None:
        _cache_max = None
        return None
    if isinstance(limit, str):
        try:
            limit = int(limit.strip())
        except ValueError:
            raise ValueError(
                f"scenario cache size must be an integer, got {limit!r}"
            ) from None
    if limit < 1:
        raise ValueError(f"scenario cache size must be >= 1, got {limit}")
    _cache_max = limit
    return _cache_max


def scenario_cache_limit() -> int:
    """The effective LRU bound: explicit configuration, else
    ``$REPRO_SCENARIO_CACHE``, else :data:`DEFAULT_SCENARIO_CACHE`."""
    if _cache_max is not None:
        return _cache_max
    raw = os.environ.get("REPRO_SCENARIO_CACHE", "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"REPRO_SCENARIO_CACHE must be an integer, got {raw!r}"
            ) from None
        if value < 1:
            raise ValueError(
                f"REPRO_SCENARIO_CACHE must be >= 1, got {value}"
            )
        return value
    return DEFAULT_SCENARIO_CACHE


class _ScenarioCache:
    """Bounded LRU of deserialised scenarios with per-call stats.

    Not thread-safe by itself: the module-level instance below is only
    touched from a single dispatcher thread or shard child process, and
    :class:`SessionHost` wraps its own instance in the host lock.
    """

    def __init__(self) -> None:
        self._scenarios: OrderedDict[str, Scenario] = OrderedDict()

    def get(self, scenario_id: str, doc: dict) -> tuple[Scenario, dict]:
        """The deserialised scenario plus this lookup's cache-stat deltas
        (nonzero ``worker.scenario_cache_*`` counters only)."""
        scenario = self._scenarios.get(scenario_id)
        if scenario is not None:
            self._scenarios.move_to_end(scenario_id)
            return scenario, {"worker.scenario_cache_hits": 1}
        scenario = scenario_from_dict(doc)
        self._scenarios[scenario_id] = scenario
        stats = {"worker.scenario_cache_misses": 1}
        limit = scenario_cache_limit()
        evicted = 0
        while len(self._scenarios) > limit:
            self._scenarios.popitem(last=False)
            evicted += 1
        if evicted:
            stats["worker.scenario_cache_evictions"] = evicted
        return scenario, stats

    def __len__(self) -> int:
        return len(self._scenarios)


# Deliberately lock-free (no '# guarded-by:'): this module-level cache is
# per-process state.  Each shard child is a separate process, and in the
# inline (--shards 1) path execute_mapping runs only on the single
# dispatcher thread, so no two threads ever share it.  Inline *sessions*
# go through a SessionHost, which owns a separate locked cache.
_scenarios = _ScenarioCache()


def _scenario_for(scenario_id: str, doc: dict) -> tuple[Scenario, dict]:
    return _scenarios.get(scenario_id, doc)


def build_scheduler(canonical: str, body: dict) -> Any:
    """Construct the scheduler a session-open request describes.

    Raises ``ValueError`` for weights on a weight-free baseline, config
    overrides outside the SLRH family, or an unknown kernel mode.
    """
    alpha = body.get("alpha")
    beta = body.get("beta")
    overrides: dict = {}
    for key in _CONFIG_OVERRIDES:
        if body.get(key) is not None:
            overrides[key] = body[key]
    if canonical not in SLRH_FAMILY and overrides:
        raise ValueError(
            f"{sorted(overrides)} only apply to the SLRH family, "
            f"not {canonical!r}"
        )
    if canonical not in WEIGHTED_HEURISTICS:
        if alpha is not None or beta is not None:
            raise ValueError(
                f"heuristic {canonical!r} does not take objective weights"
            )
        return make_scheduler(canonical)
    weights = Weights.from_alpha_beta(
        DEFAULT_ALPHA if alpha is None else float(alpha),
        DEFAULT_BETA if beta is None else float(beta),
    )
    scheduler = make_scheduler(canonical, weights)
    if overrides:
        for key in ("delta_t_cycles", "horizon_cycles"):
            if key in overrides:
                value = overrides[key]
                if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                    raise ValueError(f"{key} must be a positive integer")
        if "kernel" in overrides and overrides["kernel"] not in KERNEL_MODES:
            raise ValueError(
                f"unknown kernel mode {overrides['kernel']!r}; "
                f"expected one of {', '.join(KERNEL_MODES)}"
            )
        scheduler = scheduler.__class__(
            _dc_replace(scheduler.config, **overrides)
        )
    return scheduler


def trace_events(trace: MappingTrace) -> list[dict]:
    """Tick-level progress events of a finished mapping, NDJSON-ready.

    One ``commit`` event per committed assignment (in commit order, with
    the heuristic clock, pool size and running T100) plus one trailing
    ``trace`` summary event.
    """
    events = [
        {
            "event": "commit",
            "clock": r.clock,
            "task": r.task,
            "version": r.version,
            "machine": r.machine,
            "start": r.start,
            "finish": r.finish,
            "objective": r.objective,
            "pool_size": r.pool_size,
            "t100": r.t100,
        }
        for r in trace.records
    ]
    events.append(
        {
            "event": "trace",
            "ticks": trace.ticks,
            "commits": trace.n_commits,
            "empty_pool_ticks": trace.empty_pool_ticks,
            "machine_scans": trace.machine_scans,
            # Which candidate-pool maintenance mode the kernel ran under
            # (mappings are byte-identical across modes; this is for
            # provenance when $REPRO_KERNEL pins the rebuild oracle).
            "kernel": resolve_kernel_mode(None),
        }
    )
    return events


def execute_mapping(
    scenario_id: str,
    scenario_doc: dict,
    heuristic: str,
    alpha: float | None,
    beta: float | None,
) -> dict:
    """Run *heuristic* on the scenario and return a plain-dict outcome.

    The outcome carries the canonical mapping JSON (``mapping_bytes``),
    the tick-level trace events as one NDJSON block (``events_ndjson``,
    :func:`trace_events` each encoded by ``canonical_json_bytes``), the
    run's perf-counter snapshot (including this lookup's scenario-cache
    stats) and a summary — everything the service surfaces, nothing that
    needs the worker process again.  Both byte payloads are encoded here,
    in the shard, so the router neither unpickles nested documents nor
    re-encodes them per reply, and its job table keeps only the bytes.
    """
    scenario, cache_stats = _scenario_for(scenario_id, scenario_doc)
    result = run_heuristic(heuristic, scenario, alpha, beta)
    perf = dict(result.trace.perf)
    for key, value in cache_stats.items():
        perf[key] = perf.get(key, 0) + value
    return {
        "mapping_bytes": canonical_mapping_bytes(result.schedule),
        "events_ndjson": b"".join(
            canonical_json_bytes(event) for event in trace_events(result.trace)
        ),
        "perf": perf,
        "heuristic": result.heuristic,
        "heuristic_seconds": result.heuristic_seconds,
        "summary": {
            "scenario": scenario.name,
            "n_tasks": scenario.n_tasks,
            "n_mapped": result.schedule.n_mapped,
            "t100": result.t100,
            "aet": result.aet,
            "tec": result.tec,
            "success": result.success,
        },
    }


class SessionHost:
    """Worker-side table of live session kernels.

    This is where a persistent :class:`~repro.session.SessionEngine`
    actually lives — in exactly one process for its whole lifetime
    (session-affine routing upstream guarantees every batch for a session
    lands here).  The parent-side
    :class:`~repro.service.sessions.LiveSession` is a thin proxy over
    these methods.

    One lock serialises the whole host: event application on a session,
    the scenario LRU, and table mutation.  In the inline (single-shard)
    path this host is shared by HTTP handler threads, so unlike the
    module-level job cache it must lock; in a shard child every call
    arrives serially off the command pipe and the lock is uncontended.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sessions: dict[str, dict] = {}  # guarded-by: _lock
        self._cache = _ScenarioCache()  # guarded-by: _lock

    def open(
        self, session_id: str, scenario_id: str, doc: dict, body: dict
    ) -> dict:
        """Create the engine+encoder pair for a validated open request.

        Raises ``ValueError``/``IndexError``/``KeyError`` exactly like
        direct :class:`SessionEngine` construction, so upstream HTTP
        status mapping is unchanged.
        """
        canonical = normalize_heuristic(body.get("heuristic", "slrh1"))
        scheduler = build_scheduler(canonical, body)
        pending = body.get("pending", [])
        with self._lock:
            scenario, _stats = self._cache.get(scenario_id, doc)
            engine = SessionEngine(scenario, scheduler, pending=pending)
            self._sessions[session_id] = {
                "engine": engine,
                "encoder": DeltaEncoder(engine.schedule),
                "scenario_id": scenario_id,
                "heuristic": canonical,
                "n_errors": 0,
                "accounted": False,
            }
            return {"pending": sorted(engine.pending), "heuristic": canonical}

    def apply(self, session_id: str, event_docs: list[dict]) -> dict:
        """Apply an event batch; returns the encoded delta lines plus
        bookkeeping the parent needs (new error count, closed flag, and
        — exactly once, at close — the engine's perf snapshot).

        A rejected event (time travel, unknown id, double loss …) adds
        one ``{"record": "error", ...}`` line and ends the batch; the
        engine rejects atomically, so the session stays usable and the
        remaining events are simply not applied.
        """
        with self._lock:
            record = self._sessions[session_id]
            engine = record["engine"]
            encoder = record["encoder"]
            lines: list[bytes] = []
            new_errors = 0
            for index, event_doc in enumerate(event_docs):
                event = event_from_dict(event_doc)
                try:
                    engine.apply(event)
                except (ValueError, IndexError) as exc:
                    record["n_errors"] += 1
                    new_errors += 1
                    lines.append(
                        canonical_json_bytes(
                            {
                                "record": "error",
                                "error": str(exc),
                                "event_index": index,
                            }
                        )
                    )
                    break
                lines.extend(
                    encoder.delta_lines(cycle=event.cycle, event=event.kind)
                )
                if engine.closed:
                    lines.extend(encoder.footer_lines())
                    break
            perf = None
            if engine.closed and not record["accounted"]:
                record["accounted"] = True
                perf = engine.schedule.perf.snapshot()
            return {
                "lines": lines,
                "closed": engine.closed,
                "errors": new_errors,
                "perf": perf,
            }

    def status(self, session_id: str) -> dict:
        """JSON-ready status doc for ``GET /v1/session/<id>``."""
        with self._lock:
            record = self._sessions[session_id]
            engine = record["engine"]
            doc = {
                "session": session_id,
                "state": "closed" if engine.closed else "open",
                "scenario": record["scenario_id"],
                "heuristic": record["heuristic"],
                "cursor": engine.cursor,
                "seq": record["encoder"].seq,
                "n_mapped": engine.schedule.n_mapped,
                "pending": sorted(engine.pending),
                "errors": record["n_errors"],
            }
            if engine.closed:
                outcome = engine.outcome
                doc["n_events"] = outcome.n_events
                doc["rolled_back"] = outcome.total_rolled_back
                doc["success"] = outcome.final.success
                doc["heuristic_seconds"] = outcome.final.heuristic_seconds
            return doc

    def result(self, session_id: str) -> bytes | None:
        """Canonical mapping JSON of a closed session (None while open)
        — byte-identical to an offline replay of the same events."""
        with self._lock:
            engine = self._sessions[session_id]["engine"]
            if not engine.closed:
                return None
            return canonical_mapping_bytes(engine.schedule)

    def discard(self, session_id: str) -> bool:
        """Drop a session's kernel (idle eviction upstream); returns
        whether it existed."""
        with self._lock:
            return self._sessions.pop(session_id, None) is not None

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)


def shard_main(
    cmd_conn: Any, results: Any, index: int, scenario_cache: int | None = None
) -> None:
    """Shard child main loop: one reply per command, state kept hot.

    Commands (plain tuples; first element is the op):

    * ``("ping",)`` → ``("ok", {"pid": ...})`` — liveness heartbeat.
    * ``("job", scenario_id, doc|None, heuristic, alpha, beta)`` — run a
      mapping.  The raw scenario doc is shipped only the *first* time a
      scenario reaches this shard (affine routing makes that sticky);
      afterwards the parent sends ``None`` and the shard replays from
      its resident copy.
    * ``("session_open"|"session_events"|"session_status"|
      "session_result"|"session_discard", ...)`` — hosted-session RPCs
      (see :class:`SessionHost`).
    * ``("stop",)`` — acknowledge and exit the loop.
    * ``("exit", code)`` — ``os._exit(code)`` with *no* reply: the crash
      everyone upstream must survive (tests inject it on purpose).

    Failures reply ``("error", exc_type_name, message)`` so the parent
    can re-raise the matching builtin; successes reply ``("ok", value)``.
    """
    if scenario_cache is not None:
        configure_scenario_cache(scenario_cache)
    docs: dict[str, dict] = {}
    sessions = SessionHost()
    while True:
        try:
            # repro-lint: disable=blocking-call-timeout -- the child's only job is this wait; parent death closes the pipe and the EOFError below exits the loop
            command = cmd_conn.recv()
        except (EOFError, OSError):
            break
        op = command[0]
        if op == "stop":
            results.put(("ok", "stopped"))
            break
        if op == "exit":
            os._exit(int(command[1]))
        try:
            if op == "ping":
                reply = {"pid": os.getpid(), "sessions": len(sessions)}
            elif op == "job":
                _, scenario_id, doc, heuristic, alpha, beta = command
                if doc is not None:
                    docs[scenario_id] = doc
                reply = execute_mapping(
                    scenario_id, docs[scenario_id], heuristic, alpha, beta
                )
            elif op == "session_open":
                _, session_id, scenario_id, doc, body = command
                if doc is not None:
                    docs[scenario_id] = doc
                reply = sessions.open(
                    session_id, scenario_id, docs[scenario_id], body
                )
            elif op == "session_events":
                reply = sessions.apply(command[1], command[2])
            elif op == "session_status":
                reply = sessions.status(command[1])
            elif op == "session_result":
                reply = sessions.result(command[1])
            elif op == "session_discard":
                reply = sessions.discard(command[1])
            else:
                raise ValueError(f"unknown shard command {op!r}")
        except Exception as exc:  # surfaced to the parent, never fatal here
            results.put(("error", type(exc).__name__, str(exc)))
        else:
            results.put(("ok", reply))
