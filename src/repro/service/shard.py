"""Shard execution backends: in-process and child-process.

A *shard* is the unit the service scales over: one bounded queue + one
dispatcher thread (both in :mod:`repro.service.jobs`) in front of one
execution backend defined here.  Two backends share one duck-typed
contract:

* :class:`InlineShard` — runs everything in the calling process.  Used at
  ``--shards 1``, where it preserves the pre-shard service exactly: jobs
  execute on the single dispatcher thread (module-level scenario LRU,
  no locking needed), sessions on HTTP handler threads through a locked
  :class:`~repro.service.worker.SessionHost`.  Fully functional without
  ``start()`` — admission-control tests submit against an unstarted
  manager.
* :class:`ProcessShard` — ships every call to a long-lived
  :class:`~repro.util.parallel.ShardProcess` child running
  :func:`~repro.service.worker.shard_main`.  Scenario docs are shipped
  at most once per shard (``_shipped``); the child keeps the raw doc and
  its deserialised-LRU entry resident, which is what affine routing buys.
  Child-side exceptions come back as ``("error", type_name, message)``
  and are re-raised here as the matching builtin, so upstream HTTP status
  mapping cannot tell the backends apart.  A dead child surfaces as
  :class:`~repro.util.parallel.ShardCrashedError` — jobs *fail*, they
  never hang — and the shard stays dead (no auto-restart; ``/healthz``
  goes 503 so the operator sees it).  A child that stays alive but stops
  making progress on a call — does not read it, or stops beating its
  heartbeat — is killed at the deadline (``rpc_timeout``) and surfaces
  as :class:`~repro.util.parallel.ShardTimeoutError`, a
  ``ShardCrashedError``; a heartbeat older than the deadline marks the
  shard stalled on ``/healthz`` even with no call in flight.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Any

from repro.service import worker as _worker
from repro.service.worker import SessionHost, execute_mapping, shard_main
from repro.util.parallel import DEFAULT_RPC_TIMEOUT, ShardCrashedError, ShardProcess

#: Child exception names re-raised as their builtin counterparts; anything
#: unrecognised degrades to RuntimeError (a 500 upstream, never a hang).
_ERROR_TYPES: dict[str, type[Exception]] = {
    "KeyError": KeyError,
    "ValueError": ValueError,
    "TypeError": TypeError,
    "IndexError": IndexError,
    "RuntimeError": RuntimeError,
}


class InlineShard:
    """Single-process backend: the pre-shard code path, kept verbatim."""

    #: Calls run on the caller's own thread: there is no child to stall.
    rpc_timeout = math.inf

    def __init__(self, index: int = 0, scenario_cache: int | None = None) -> None:
        self.index = index
        if scenario_cache is not None:
            _worker.configure_scenario_cache(scenario_cache)
        self._sessions = SessionHost()  # internally locked

    def start(self) -> "InlineShard":
        return self

    def stop(self) -> None:
        pass

    def alive(self) -> bool:
        return True

    @property
    def pid(self) -> int:
        return os.getpid()

    def heartbeat_age(self) -> float:
        return 0.0

    def run_job(
        self,
        scenario_id: str,
        doc: dict,
        heuristic: str,
        alpha: float | None,
        beta: float | None,
    ) -> dict:
        return execute_mapping(scenario_id, doc, heuristic, alpha, beta)

    def session_open(
        self, session_id: str, scenario_id: str, doc: dict, body: dict
    ) -> dict:
        return self._sessions.open(session_id, scenario_id, doc, body)

    def session_events(self, session_id: str, event_docs: list[dict]) -> dict:
        return self._sessions.apply(session_id, event_docs)

    def session_status(self, session_id: str) -> dict:
        return self._sessions.status(session_id)

    def session_result(self, session_id: str) -> bytes | None:
        return self._sessions.result(session_id)

    def session_discard(self, session_id: str) -> bool:
        return self._sessions.discard(session_id)


class ProcessShard:
    """Child-process backend over the :class:`ShardProcess` RPC pipe."""

    def __init__(
        self,
        index: int,
        scenario_cache: int | None = None,
        rpc_timeout: float = DEFAULT_RPC_TIMEOUT,
    ) -> None:
        self.index = index
        self.rpc_timeout = rpc_timeout
        self._proc = ShardProcess(
            shard_main,
            index=index,
            args=(scenario_cache,),
            rpc_timeout=rpc_timeout,
        )
        self._lock = threading.Lock()
        self._shipped: set[str] = set()  # guarded-by: _lock

    def start(self) -> "ProcessShard":
        self._proc.start()
        return self

    def stop(self) -> None:
        self._proc.stop()

    def alive(self) -> bool:
        return self._proc.alive()

    @property
    def pid(self) -> int | None:
        return self._proc.pid

    def heartbeat_age(self) -> float:
        """Seconds since the child's heartbeat thread last beat — read
        from shared memory, so a health check never sends a command or
        queues behind a running job.  The age stays under one beat
        period while the child runs (busy or idle) and grows once it is
        stopped or dead."""
        return self._proc.beat_age()

    def _rpc(self, *command: Any) -> Any:
        reply = self._proc.call(*command)
        if reply[0] == "ok":
            return reply[1]
        _, name, message = reply
        raise _ERROR_TYPES.get(name, RuntimeError)(message)

    def _doc_to_ship(self, scenario_id: str, doc: dict) -> dict | None:
        # Optimistically marked before the send: if the call crashes the
        # shard is dead for good, so a wrong "shipped" entry is moot.
        with self._lock:
            if scenario_id in self._shipped:
                return None
            self._shipped.add(scenario_id)
            return doc

    def run_job(
        self,
        scenario_id: str,
        doc: dict,
        heuristic: str,
        alpha: float | None,
        beta: float | None,
    ) -> dict:
        return self._rpc(
            "job",
            scenario_id,
            self._doc_to_ship(scenario_id, doc),
            heuristic,
            alpha,
            beta,
        )

    def session_open(
        self, session_id: str, scenario_id: str, doc: dict, body: dict
    ) -> dict:
        return self._rpc(
            "session_open",
            session_id,
            scenario_id,
            self._doc_to_ship(scenario_id, doc),
            body,
        )

    def session_events(self, session_id: str, event_docs: list[dict]) -> dict:
        return self._rpc("session_events", session_id, event_docs)

    def session_status(self, session_id: str) -> dict:
        return self._rpc("session_status", session_id)

    def session_result(self, session_id: str) -> bytes | None:
        return self._rpc("session_result", session_id)

    def session_discard(self, session_id: str) -> bool:
        return self._rpc("session_discard", session_id)
