"""Job admission, affine routing and lifecycle for the scheduling service.

The service dispatch layer is *sharded*: N independent
:class:`ShardDispatcher` units (one bounded queue + one dispatcher thread
+ one execution backend each) behind one thin :class:`ShardRouter`.
Requests become :class:`Job` records routed by **scenario-hash affinity**
— ``int(sha256_digest, 16) % n_shards`` — so every request for a given
scenario lands on the same shard and that shard's process-resident
deserialised-scenario LRU stays hot.  At ``shards=1`` the single shard
runs inline on its dispatcher thread (:class:`~repro.service.shard.
InlineShard`), which *is* the pre-shard service byte for byte; at
``shards>1`` each shard owns a long-lived child process
(:class:`~repro.service.shard.ProcessShard`).

Admission control is global but per-shard-bounded: the router serialises
admission under its own lock, and when the *target shard's* queue is at
``max_queue`` the submit raises :class:`QueueFullError` (HTTP 429
upstream) carrying a ``Retry-After`` derived from that shard's backlog ×
the observed mean map time — never an unbounded backlog, and a hot
scenario cannot starve requests routed to other shards.  Draining is
global: once :meth:`ShardRouter.drain` starts, every shard rejects with
:class:`DrainingError` (503) while queued and in-flight jobs run out.

The router owns the global :mod:`repro.perf` registry (service counters,
request/map latency histograms, every job's merged engine counters);
each dispatcher keeps a per-shard registry (``shard<k>.*`` counters,
exact map-seconds histogram, queue/busy/cache gauges).
:meth:`ShardRouter.metrics_document` rolls all of them into the one
``repro.perf/2`` document ``/metrics`` serves, and
:meth:`ShardRouter.health_doc` reports per-shard liveness (pid, queue
depth, last heartbeat) for ``/healthz``.

A crashed shard child fails its in-flight job (surfaced as a ``failed``
job with the crash message — never a hang), stays dead, and flips
``/healthz`` to 503.  :class:`JobManager` remains as the single-shard
compatibility constructor older callers and tests use.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.heuristics import WEIGHTED_HEURISTICS, normalize_heuristic
from repro.obs.log import get_logger
from repro.perf import PerfCounters, merge_registries
from repro.service.registry import ScenarioRegistry
from repro.service.shard import InlineShard, ProcessShard
from repro.service.worker import configure_scenario_cache
from repro.util.parallel import resolve_jobs, resolve_shards

#: Fallback per-job seconds used for Retry-After before any job finished.
_DEFAULT_JOB_SECONDS = 1.0

#: Structured job-lifecycle events (no-op unless repro.obs.log is configured).
_LOG = get_logger("service.jobs")


class QueueFullError(Exception):
    """The target shard's bounded queue is at capacity (HTTP 429 upstream)."""

    def __init__(self, depth: int, retry_after: int) -> None:
        super().__init__(
            f"job queue full ({depth} queued); retry in ~{retry_after}s"
        )
        self.depth = depth
        self.retry_after = retry_after


class DrainingError(Exception):
    """The service is draining and no longer admits jobs (HTTP 503)."""


@dataclass
class Job:
    """One ``/v1/map`` request through its lifecycle."""

    id: str
    scenario_id: str
    heuristic: str
    alpha: float | None
    beta: float | None
    shard: int = 0
    state: str = "queued"  # queued | running | succeeded | failed
    error: str | None = None
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    #: :func:`~repro.service.worker.execute_mapping`'s outcome once the
    #: job succeeded: the reply bytes (``mapping_bytes``,
    #: ``events_ndjson``) already encoded by the shard, plus ``perf``,
    #: ``heuristic``, ``heuristic_seconds`` and ``summary``.
    outcome: dict | None = None
    done: threading.Event = field(default_factory=threading.Event, repr=False)

    @property
    def mapping_bytes(self) -> bytes | None:
        """Canonical mapping JSON of a succeeded job (None otherwise)."""
        if self.outcome is None:
            return None
        return self.outcome["mapping_bytes"]

    def status_doc(self) -> dict:
        """JSON-ready status for ``GET /v1/jobs/<id>``."""
        doc = {
            "job": self.id,
            "state": self.state,
            "scenario": self.scenario_id,
            "heuristic": self.heuristic,
            "alpha": self.alpha,
            "beta": self.beta,
            "shard": self.shard,
        }
        if self.error is not None:
            doc["error"] = self.error
        if self.finished_at is not None:
            doc["wait_seconds"] = (self.started_at or self.finished_at) - self.submitted_at
            doc["total_seconds"] = self.finished_at - self.submitted_at
        if self.outcome is not None:
            doc["summary"] = self.outcome["summary"]
            doc["heuristic_seconds"] = self.outcome["heuristic_seconds"]
        return doc


class ShardDispatcher:
    """One shard: a bounded queue, a dispatcher thread, a backend.

    The dispatcher thread pops one job at a time and runs it on the
    backend; with an :class:`~repro.service.shard.InlineShard` that is
    exactly the old single-dispatcher execution path, with a
    :class:`~repro.service.shard.ProcessShard` the job ships to the
    shard's resident child.  All admission goes through the router (which
    serialises submitters), so :meth:`enqueue` itself never rejects; the
    router reads :meth:`admission_state` first under its own lock.

    Lock order: the router acquires ``ShardDispatcher._lock`` while
    holding its own; a dispatcher never acquires the router lock while
    holding its own (``_run_job`` records global results *between* lock
    scopes), so the hierarchy is acyclic.  This is no longer just prose:
    the ``lock-order-cycle`` analysis (``repro.lint.rules.lock_order``)
    builds the project-wide acquisition graph on every lint run — the
    audited order today is ``ShardRouter._lock -> ShardDispatcher._lock``
    and ``SessionManager._lock / LiveSession.lock -> backend locks``,
    with no reverse edges — and CI fails on any future cycle, with the
    witness call path in the finding.
    """

    def __init__(
        self, index: int, backend: InlineShard | ProcessShard,
        router: "ShardRouter",
    ) -> None:
        self.index = index
        self.backend = backend
        self.router = router
        self.max_queue = router.max_queue
        self.perf = PerfCounters()  # guarded-by: _lock
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._queue: deque[Job] = deque()  # guarded-by: _lock
        self._busy = False  # guarded-by: _lock
        self._draining = False  # guarded-by: _lock
        self._stopped = False  # guarded-by: _lock
        self._thread: threading.Thread | None = None  # guarded-by: _lock

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ShardDispatcher":
        """Start the backend and dispatcher thread (idempotent)."""
        with self._lock:
            if self._stopped:
                raise RuntimeError("ShardDispatcher is closed")
            if self._thread is not None:
                return self
            thread = threading.Thread(
                target=self._dispatch_loop,
                name=f"repro-dispatcher-{self.index}",
                daemon=True,
            )
            self._thread = thread
        self.backend.start()  # fork (if any) before traffic
        thread.start()
        return self

    def drain(self, deadline: float | None) -> bool:
        """Stop this shard's work from growing and wait until its queue
        and in-flight job are empty.  True when drained by *deadline*."""
        with self._lock:
            self._draining = True
            self._wake.notify_all()
            while self._queue or self._busy:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(timeout=remaining)
        return True

    def close(self) -> None:
        """Stop the dispatcher thread and the backend.  Idempotent."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            self._wake.notify_all()
            thread = self._thread
        # Join outside the lock: the dispatcher needs it to observe
        # _stopped and exit.
        if thread is not None:
            thread.join(timeout=10)
        self.backend.stop()

    # -- admission (router-lock-serialised callers) ------------------------

    def admission_state(self, per_job_seconds: float) -> tuple[int, int]:
        """(queue depth, Retry-After hint) for an admission decision.

        Retry-After is this shard's backlog (queued + busy) × the
        observed mean map seconds, clamped to [1, 300] — the same ETA
        formula the pre-shard service used, scoped to one shard.
        """
        with self._lock:
            backlog = len(self._queue) + (1 if self._busy else 0)
            eta = backlog * per_job_seconds
            return len(self._queue), max(1, min(300, int(eta + 0.999)))

    def enqueue(self, job: Job) -> int:
        """Append an admitted job; returns the new queue depth.  Callers
        hold the router lock, so capacity checked there still holds."""
        with self._lock:
            self._queue.append(job)
            depth = len(self._queue)
            self._wake.notify_all()
            return depth

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    @property
    def busy(self) -> bool:
        with self._lock:
            return self._busy

    # -- dispatch ----------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._stopped:
                    if self._draining:
                        self._idle.notify_all()
                    self._wake.wait()
                if self._stopped and not self._queue:
                    self._idle.notify_all()
                    return
                job = self._queue.popleft()
                job.state = "running"
                job.started_at = time.monotonic()
                self._busy = True
            self._run_job(job)
            with self._lock:
                self._busy = False
                self._idle.notify_all()

    def _run_job(self, job: Job) -> None:
        _LOG.event(
            "job.dispatched",
            job=job.id,
            shard=self.index,
            scenario=job.scenario_id,
        )
        try:
            doc = self.router.registry.get_doc(job.scenario_id)
            outcome = self.backend.run_job(
                job.scenario_id, doc, job.heuristic, job.alpha, job.beta
            )
        except Exception as exc:  # backend/crash failure: fail the job
            self.router._record_finish(job, error=f"{type(exc).__name__}: {exc}")
            self._note_outcome(None)
            return
        self.router._record_finish(job, outcome=outcome)
        self._note_outcome(outcome)

    def _note_outcome(self, outcome: dict | None) -> None:
        """Per-shard instruments (``shard<k>.*``) for the roll-up."""
        prefix = f"shard{self.index}"
        with self._lock:
            if outcome is None:
                self.perf.inc(f"{prefix}.failed")
                return
            self.perf.inc(f"{prefix}.completed")
            self.perf.observe(
                f"{prefix}.map_seconds", outcome["heuristic_seconds"]
            )
            stats = outcome.get("perf") or {}
            for kind in ("hits", "misses", "evictions"):
                count = stats.get(f"worker.scenario_cache_{kind}", 0)
                if count:
                    self.perf.inc(f"{prefix}.cache_{kind}", count)

    def perf_registry(self) -> PerfCounters:
        """An independent copy of this shard's registry with the live
        queue-depth/busy/alive gauges stamped in (roll-up input)."""
        prefix = f"shard{self.index}"
        with self._lock:
            copied = PerfCounters().merge(self.perf)
            copied.set_gauge(f"{prefix}.queue_depth", float(len(self._queue)))
            copied.set_gauge(f"{prefix}.busy", 1.0 if self._busy else 0.0)
            copied.set_gauge(
                f"{prefix}.cache_hits", self.perf.get(f"{prefix}.cache_hits")
            )
        copied.set_gauge(
            f"{prefix}.alive", 1.0 if self.backend.alive() else 0.0
        )
        return copied


class ShardRouter:
    """Thin global front: validation, affine routing, admission, job table.

    The router never executes anything itself — it picks the target
    shard from the scenario digest, makes the global admission decision
    (draining → 503, target shard full → 429 + Retry-After), and keeps
    the bounded global job table that ``GET /v1/jobs/<id>`` reads.  All
    global perf accounting (``service.*`` counters and latency
    histograms) lives on :attr:`perf` and is mutated only under
    ``_lock`` — submitters take it on admission, dispatcher threads take
    it per finished job — so exact counts survive N concurrent shards.
    """

    def __init__(
        self,
        registry: ScenarioRegistry,
        shards: int | str | None = None,
        max_queue: int = 64,
        max_jobs_kept: int = 1024,
        scenario_cache: int | str | None = None,
    ) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.registry = registry
        self.n_shards = resolve_shards(shards)
        self.max_queue = max_queue
        self.max_jobs_kept = max_jobs_kept
        if scenario_cache is not None:
            # Validate (and apply to this process) up front, so a bad
            # value is a constructor ValueError, not a dead shard child.
            scenario_cache = configure_scenario_cache(scenario_cache)
        self.scenario_cache = scenario_cache
        self.perf = PerfCounters()
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}  # guarded-by: _lock
        self._job_order: deque[str] = deque()  # guarded-by: _lock
        self._ids = itertools.count(1)  # guarded-by: _lock
        self._draining = False  # guarded-by: _lock
        self._stopped = False  # guarded-by: _lock
        if self.n_shards == 1:
            backends = [InlineShard(0, scenario_cache=scenario_cache)]
        else:
            backends = [
                ProcessShard(k, scenario_cache=scenario_cache)
                for k in range(self.n_shards)
            ]
        self.shards = [
            ShardDispatcher(k, backends[k], self)
            for k in range(self.n_shards)
        ]

    # -- routing -----------------------------------------------------------

    def shard_of(self, scenario_id: str) -> int:
        """Affine shard index for a content-addressed scenario id: the
        SHA-256 digest modulo the shard count.  Deterministic across
        processes and restarts (unlike ``hash()``), so a scenario is
        pinned to one shard for the daemon's lifetime."""
        digest = scenario_id.split(":", 1)[-1]
        return int(digest, 16) % self.n_shards

    def shard_for(self, scenario_id: str) -> ShardDispatcher:
        return self.shards[self.shard_of(scenario_id)]

    def session_shard(self, affinity: int) -> ShardDispatcher:
        """Shard for a session affinity key (the numeric session id):
        sessions spread round-robin and each kernel lives in exactly one
        shard process."""
        return self.shards[affinity % self.n_shards]

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ShardRouter":
        """Start every shard (idempotent); returns self."""
        with self._lock:
            if self._stopped:
                raise RuntimeError("ShardRouter is closed")
        for shard in self.shards:
            shard.start()
        return self

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def drain(self, timeout: float | None = None) -> bool:
        """Stop admitting jobs and wait until every shard's queue and
        in-flight work are empty.  True when fully drained within
        *timeout* (None = forever)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            self._draining = True
            self.perf.set_gauge("service.draining", 1.0)
        drained = True
        for shard in self.shards:
            drained = shard.drain(deadline) and drained
        return drained

    def close(self, drain_timeout: float | None = None) -> None:
        """Drain (bounded by *drain_timeout*), then stop every dispatcher
        thread and shard process.  Idempotent."""
        self.drain(timeout=drain_timeout)
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
        for shard in self.shards:
            shard.close()

    # -- admission ---------------------------------------------------------

    # acquires: ShardDispatcher._lock
    def submit(
        self,
        scenario_id: str,
        heuristic: str,
        alpha: float | None = None,
        beta: float | None = None,
    ) -> Job:
        """Admit one mapping request; returns its :class:`Job`.

        Raises :class:`KeyError` for an unregistered scenario or unknown
        heuristic, :class:`ValueError` for weights on a weight-free
        baseline, :class:`DrainingError` during shutdown and
        :class:`QueueFullError` when the target shard's bounded queue is
        at capacity.
        """
        canonical = normalize_heuristic(heuristic)  # KeyError when unknown
        if canonical not in WEIGHTED_HEURISTICS and not (alpha is None and beta is None):
            raise ValueError(
                f"heuristic {canonical!r} does not take objective weights"
            )
        if scenario_id not in self.registry:
            raise KeyError(f"scenario {scenario_id!r} is not registered")
        shard = self.shard_for(scenario_id)
        with self._lock:
            if self._stopped or self._draining:
                self.perf.inc("service.rejected_draining")
                _LOG.event("job.rejected", reason="draining", scenario=scenario_id)
                raise DrainingError("service is draining; not accepting jobs")
            # Admission is serialised on this lock, so the depth read here
            # cannot be raced upward by another submitter; the dispatcher
            # only ever shrinks it.
            depth, retry_after = shard.admission_state(
                self._per_job_seconds_locked()
            )
            if depth >= self.max_queue:
                self.perf.inc("service.rejected")
                _LOG.event(
                    "job.rejected",
                    reason="queue_full",
                    scenario=scenario_id,
                    shard=shard.index,
                    queue_depth=depth,
                )
                raise QueueFullError(depth, retry_after)
            job = Job(
                id=f"job-{next(self._ids):08d}",
                scenario_id=scenario_id,
                heuristic=canonical,
                alpha=alpha,
                beta=beta,
                shard=shard.index,
                submitted_at=time.monotonic(),
            )
            new_depth = shard.enqueue(job)
            self._remember_locked(job)
            self.perf.inc("service.submitted")
            _LOG.event(
                "job.submitted",
                job=job.id,
                scenario=scenario_id,
                heuristic=canonical,
                shard=shard.index,
                queue_depth=new_depth,
            )
        return job

    def _remember_locked(self, job: Job) -> None:
        self._jobs[job.id] = job
        self._job_order.append(job.id)
        while len(self._job_order) > self.max_jobs_kept:
            old = self._job_order.popleft()
            stale = self._jobs.get(old)
            # Never evict a job that hasn't finished: its submitter may
            # still be blocked on it.
            if stale is not None and stale.done.is_set():
                del self._jobs[old]
            else:
                self._job_order.append(old)
                break

    def _per_job_seconds_locked(self) -> float:
        hist = self.perf.histogram("service.map_seconds")
        if hist is not None and hist.count:
            return max(hist.mean, 1e-3)
        return _DEFAULT_JOB_SECONDS

    def get(self, job_id: str) -> Job:
        """The job registered under *job_id* (KeyError when unknown)."""
        with self._lock:
            return self._jobs[job_id]

    @property
    def queue_depth(self) -> int:
        """Total queued jobs across every shard."""
        return sum(shard.queue_depth for shard in self.shards)

    @property
    def inflight(self) -> int:
        """Shards currently running a job."""
        return sum(1 for shard in self.shards if shard.busy)

    # -- completion (dispatcher threads) -----------------------------------

    def _record_finish(
        self, job: Job, outcome: dict | None = None, error: str | None = None
    ) -> None:
        """Global accounting for one finished job (any dispatcher thread);
        the router lock makes concurrent shard completions exact."""
        job.finished_at = time.monotonic()
        with self._lock:
            if error is not None:
                job.state = "failed"
                job.error = error
                self.perf.inc("service.failed")
            else:
                job.state = "succeeded"
                job.outcome = outcome
                self.perf.inc("service.completed")
                self.perf.observe(
                    "service.map_seconds", outcome["heuristic_seconds"]
                )
                self.perf.merge(outcome["perf"])  # engine counters (plan.*, pool.* …)
            self.perf.observe(
                "service.request_seconds", job.finished_at - job.submitted_at
            )
        _LOG.event(
            "job.finished",
            job=job.id,
            state=job.state,
            shard=job.shard,
            latency_seconds=round(job.finished_at - job.submitted_at, 6),
            **({"error": job.error} if job.error else {}),
        )
        job.done.set()

    # -- health ------------------------------------------------------------

    def health_doc(self) -> dict:
        """Per-shard liveness for ``/healthz``: pid, queue depth, busy,
        seconds since the last heartbeat.  ``healthy`` goes False (503
        upstream) the moment any shard process is dead."""
        shards = []
        healthy = True
        for shard in self.shards:
            alive = shard.backend.alive()
            healthy = healthy and alive
            shards.append(
                {
                    "shard": shard.index,
                    "pid": shard.backend.pid,
                    "alive": alive,
                    "queue_depth": shard.queue_depth,
                    "busy": shard.busy,
                    "last_heartbeat_seconds": round(
                        shard.backend.heartbeat_age(), 3
                    ),
                }
            )
        return {"healthy": healthy, "shards": shards}

    # -- metrics -----------------------------------------------------------

    def metrics_document(self, **context: object) -> dict:
        """The live ``repro.perf/2`` document served by ``/metrics``: the
        global service registry, the scenario registry's and every
        shard's, rolled into one (counters add, per-shard gauges keep
        their ``shard<k>.`` names, histograms merge exactly)."""
        from repro.perf import perf_document

        shard_registries = [shard.perf_registry() for shard in self.shards]
        with self._lock:
            own = PerfCounters().merge(self.perf)
        merged = merge_registries(self.registry.perf, own, *shard_registries)
        merged.set_gauge("service.queue_depth", float(self.queue_depth))
        merged.set_gauge("service.inflight", float(self.inflight))
        merged.set_gauge("service.draining", 1.0 if self.draining else 0.0)
        merged.set_gauge("service.shards", float(self.n_shards))
        return perf_document(
            merged.snapshot(),
            gauges=merged.gauges_snapshot(),
            histograms=merged.histograms_summary(),
            **context,
        )


class JobManager(ShardRouter):
    """Single-dispatcher compatibility constructor over the shard layer.

    Pre-shard callers built ``JobManager(registry, n_jobs=…)`` around one
    dispatcher thread and a worker pool; ``n_jobs`` now sizes the shard
    layer directly (1 worker → 1 inline shard, N workers → N shard
    processes).  ``batch_max`` is accepted and validated for
    compatibility but inert: shards dispatch one job at a time, and
    per-scenario batching is subsumed by affine routing (every job for a
    scenario already lands on the shard holding it hot).
    """

    def __init__(
        self,
        registry: ScenarioRegistry,
        n_jobs: int | str | None = None,
        max_queue: int = 64,
        batch_max: int | None = None,
        max_jobs_kept: int = 1024,
    ) -> None:
        if batch_max is not None and batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        n_shards = resolve_jobs(n_jobs)
        super().__init__(
            registry,
            shards=n_shards,
            max_queue=max_queue,
            max_jobs_kept=max_jobs_kept,
        )
        self.batch_max = batch_max
