"""Process-pool fan-out shared by the experiment and tuning drivers.

Every study in :mod:`repro.experiments` and :mod:`repro.tuning` is an
embarrassingly parallel grid — independent (heuristic, scenario,
weight-point) cells, each reproducible from its own
``SeedSequence.spawn`` stream — so fanning them over a
:class:`~concurrent.futures.ProcessPoolExecutor` is safe by construction.
The worker count comes from an explicit ``n_jobs`` argument, else the
``REPRO_JOBS`` environment variable, else 1; ``n_jobs == 1`` runs serially in-process with no executor, so the
serial path stays exactly the pre-parallel code path.  ``auto`` (either
spelling) resolves to :func:`os.cpu_count`.

Two entry points:

* :func:`parallel_starmap` — one-shot fan-out; spins an executor up and
  down around a single batch.
* :class:`ShardProcess` — a single *long-lived*, *stateful* child process
  driven over a command pipe with a result queue coming back.  Unlike the
  executor above, the child keeps process-resident state between
  calls (the :mod:`repro.service` shard layer parks hot deserialised
  scenarios and live session kernels there).  Calls are synchronous RPCs
  serialised by a lock; a dead child is *detected* (liveness polled while
  waiting on the result queue) and surfaces as
  :class:`ShardCrashedError`, and a live child that stops making
  progress — does not read its command, or stops beating its heartbeat
  — is killed at the deadline (:class:`ShardTimeoutError`) — never a
  hang either way, while a long command that keeps beating runs to its
  end.
"""

from __future__ import annotations

import os
import queue as _queue
import select
import struct
import threading
import time
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Iterable, Sequence, TypeVar, Union

T = TypeVar("T")

JobsLike = Union[int, str, None]


def _coerce_count(value: int | str, what: str) -> int:
    """Parse a worker/shard count: an int, digits, or ``'auto'``."""
    if isinstance(value, str):
        text = value.strip()
        if text.lower() == "auto":
            value = os.cpu_count() or 1
        else:
            try:
                value = int(text)
            except ValueError:
                raise ValueError(
                    f"{what} must be an integer or 'auto', got {text!r}"
                ) from None
    if value < 1:
        raise ValueError(f"{what} must be >= 1, got {value}")
    return value


def resolve_jobs(n_jobs: JobsLike = None) -> int:
    """Effective worker count: *n_jobs*, else ``$REPRO_JOBS``, else 1.

    Either source accepts the literal string ``"auto"`` (case-insensitive),
    which resolves to :func:`os.cpu_count` (floored at 1 when the count is
    unknown).
    """
    if n_jobs is None:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        n_jobs = raw if raw else 1
    return _coerce_count(n_jobs, "jobs")


def resolve_shards(shards: JobsLike = None) -> int:
    """Effective shard count: *shards*, else ``$REPRO_SHARDS``, else 1.

    Same grammar as :func:`resolve_jobs` (``'auto'`` →
    :func:`os.cpu_count`); only the argument and environment sources
    differ, so a daemon's shard count and a study's worker count stay
    independently settable.
    """
    if shards is None:
        raw = os.environ.get("REPRO_SHARDS", "").strip()
        shards = raw if raw else 1
    return _coerce_count(shards, "shards")


class ShardCrashedError(RuntimeError):
    """The shard child process died before answering a call.

    The contract is *failure surfaced, never a hang*: callers waiting on
    a result observe this exception within one liveness-poll interval of
    the child's death, and every later call on the same process fails
    fast with it too (a dead shard stays dead; restarts are a deployment
    concern, not a library one).
    """


class ShardTimeoutError(ShardCrashedError):
    """The shard child stayed alive but showed no progress on a call:
    it did not read the command within the deadline, or stopped beating
    its heartbeat for that long while running it.  The caller has killed
    the child by the time this is raised, so — like any crash — the
    shard stays down."""


#: Default deadline of :class:`ShardProcess`, in seconds.  It bounds
#: silence, not work: the child must read each command within it and
#: never let its heartbeat go older than it, but a command it has read
#: may run for as long as it needs while the heartbeat keeps beating.
DEFAULT_RPC_TIMEOUT = 30.0


class _CountingConn:
    """The child's end of the command pipe, counting each command the
    child has fully read into *reads* (shared with the parent)."""

    def __init__(self, conn: Any, reads: Any) -> None:
        self._conn = conn
        self._reads = reads

    def recv(self) -> Any:
        command = self._conn.recv()
        self._reads.value += 1
        return command

    def __getattr__(self, name: str) -> Any:
        return getattr(self._conn, name)


def _shard_child(
    main: Callable[..., None],
    beat: Any,
    reads: Any,
    period: float,
    cmd_conn: Any,
    results: Any,
    index: int,
    *args: Any,
) -> None:
    """Child entry: beat *beat* every *period* seconds from a daemon
    thread, then run *main* on the counting command pipe."""

    def _beat() -> None:
        while True:
            beat.value = time.monotonic()
            time.sleep(period)

    threading.Thread(target=_beat, name="repro-shard-beat", daemon=True).start()
    main(_CountingConn(cmd_conn, reads), results, index, *args)


class ShardProcess:
    """One long-lived child process behind a command-pipe RPC.

    The parent sends picklable command tuples down a one-way pipe; the
    child's *main* function (``main(cmd_conn, result_queue, index,
    *args)``) answers every command with exactly one reply tuple on the
    result queue.  :meth:`call` pairs one send with one receive under a
    lock, so concurrent callers interleave at whole-call granularity —
    the child never sees interleaved commands and replies cannot be
    misattributed.

    Liveness: while waiting for a reply the parent wakes every
    ``poll_seconds`` to check the child is still alive; a dead child
    raises :class:`ShardCrashedError` (after one final drain of the
    result queue, closing the race where the reply was already in
    flight).  A child that is alive but not working — stopped, or
    blocked reading a corrupt frame — is bounded by ``rpc_timeout``
    through two signals in shared memory: the count of commands the
    child has read, and a heartbeat a thread in the child stamps every
    ``poll_seconds``.  A call whose command is not written and read
    within ``rpc_timeout``, or whose child's heartbeat goes older than
    ``rpc_timeout`` before the reply, kills the child and raises
    :class:`ShardTimeoutError`.  A child that has read its command and
    keeps beating is working and is waited for however long the command
    runs.  The command is written to a non-blocking pipe as the child
    reads it, so a child that stopped reading cannot hold the caller
    past the deadline either.  :meth:`beat_age` is the heartbeat's age,
    readable without a call (``/healthz`` reports it).
    """

    _POLL_SECONDS = 0.25

    def __init__(
        self,
        main: Callable[..., None],
        index: int = 0,
        args: Sequence[Any] = (),
        poll_seconds: float = _POLL_SECONDS,
        rpc_timeout: float = DEFAULT_RPC_TIMEOUT,
    ) -> None:
        import multiprocessing

        if not rpc_timeout > poll_seconds > 0:
            # The child beats every poll_seconds: a shorter deadline
            # would read a working child as stopped.
            raise ValueError(
                f"need rpc_timeout > poll_seconds > 0, got "
                f"{rpc_timeout!r} and {poll_seconds!r}"
            )
        ctx = multiprocessing.get_context()
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        self.index = index
        self._results = ctx.Queue()
        self._beat = ctx.RawValue("d", 0.0)  # child's last heartbeat
        self._reads = ctx.RawValue("Q", 0)  # commands the child has read
        self._sent = 0  # guarded-by: _lock
        self._proc = ctx.Process(
            target=_shard_child,
            args=(
                main, self._beat, self._reads, poll_seconds,
                recv_conn, self._results, index, *args,
            ),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        self._cmd = send_conn
        self._child_end = recv_conn
        self._poll = poll_seconds
        self.rpc_timeout = rpc_timeout
        self._lock = threading.Lock()
        self._started = False
        self._stopped = False

    def start(self) -> "ShardProcess":
        """Fork the child (idempotent); returns self."""
        with self._lock:
            if not self._started:
                self._beat.value = time.monotonic()  # until the child beats
                self._proc.start()
                self._child_end.close()  # the child's end lives in the child
                os.set_blocking(self._cmd.fileno(), False)  # see _send
                self._started = True
        return self

    @property
    def pid(self) -> int | None:
        return self._proc.pid if self._started else None

    def alive(self) -> bool:
        return self._started and not self._stopped and self._proc.is_alive()

    def beat_age(self) -> float:
        """Seconds since the child last stamped its heartbeat."""
        return max(0.0, time.monotonic() - self._beat.value)

    def call(self, *command: Any) -> Any:
        """Send *command* and block for its reply (lock-serialised RPC).

        Raises :class:`ShardCrashedError` when the child is (or dies)
        mid-call — detected by liveness polling, so a crash never leaves
        the caller blocked forever — and :class:`ShardTimeoutError` when
        the child shows no progress for ``rpc_timeout`` seconds.
        """
        with self._lock:
            if not self._started or self._stopped or not self._proc.is_alive():
                raise ShardCrashedError(
                    f"shard {self.index} is not running (pid={self.pid})"
                )
            deadline = time.monotonic() + self.rpc_timeout
            self._sent += 1
            try:
                self._send(command, deadline)
            except (BrokenPipeError, OSError) as exc:
                raise ShardCrashedError(
                    f"shard {self.index} (pid={self.pid}) pipe is closed: {exc}"
                ) from None
            deadline_drain = False
            while True:
                wait = self._poll
                if not deadline_drain and self._reads.value < self._sent:
                    # Wake at the deadline, not up to a poll slice past it.
                    wait = min(wait, max(0.0, deadline - time.monotonic()))
                try:
                    return self._results.get(timeout=wait)
                except _queue.Empty:
                    pass
                if deadline_drain:
                    raise ShardCrashedError(
                        f"shard {self.index} (pid={self.pid}) died while "
                        f"handling {command[0]!r}"
                    ) from None
                if not self._proc.is_alive():
                    # One final drain: the reply may already be in flight.
                    deadline_drain = True
                    continue
                stall = self._stall(deadline)
                if stall:
                    try:  # a reply that landed since the last wait wins
                        return self._results.get_nowait()
                    except _queue.Empty:
                        self._kill_stalled(command, stall)

    def _stall(self, deadline: float) -> str:
        # requires-lock: _lock
        """Why the child counts as stalled on the current call, or ``""``
        while it is still making progress."""
        if self._reads.value < self._sent:
            if time.monotonic() >= deadline:
                return "did not read"
            return ""
        if self.beat_age() > self.rpc_timeout:
            return "stopped beating while handling"
        return ""

    def _send(self, command: tuple, deadline: float) -> None:
        # requires-lock: _lock
        """Write one framed *command* onto the non-blocking command pipe,
        waiting for the child to make room until *deadline*.

        The frame is :class:`multiprocessing.connection.Connection`'s —
        a big-endian int32 length (``-1`` then a uint64 for payloads of
        2 GiB and more) followed by the pickle — so the child's
        ``recv()`` reads it unchanged.  Every call starts on an empty
        pipe (the child has read each earlier command before replying),
        so a command that fits the pipe is written at once."""
        payload = ForkingPickler.dumps(command)
        size = len(payload)
        if size <= 0x7FFFFFFF:
            header = struct.pack("!i", size)
        else:
            header = struct.pack("!iQ", -1, size)
        pending = memoryview(b"".join((header, payload)))
        fd = self._cmd.fileno()
        poller = None
        while True:
            try:
                pending = pending[os.write(fd, pending):]
            except BlockingIOError:
                pass
            if not pending:
                return
            if poller is None:
                poller = select.poll()
                poller.register(fd, select.POLLOUT)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._kill_stalled(command, "did not read")
            poller.poll(max(1, int(remaining * 1000)))

    def _kill_stalled(self, command: tuple, stall: str) -> None:
        # requires-lock: _lock
        """Kill a child that showed no progress on *command* for the
        deadline, then raise :class:`ShardTimeoutError`.  A stalled child
        cannot be trusted with the next command (a late reply would
        answer the wrong call), so it is killed rather than waited for,
        and stays down."""
        self._proc.kill()
        self._proc.join(timeout=5.0)
        raise ShardTimeoutError(
            f"shard {self.index} (pid={self.pid}) {stall} {command[0]!r} "
            f"for {self.rpc_timeout:g} s; killed"
        )

    def stop(self, timeout: float = 5.0) -> None:
        """Ask the child to exit, then make sure it did.  Idempotent."""
        with self._lock:
            if not self._started or self._stopped:
                self._stopped = True
                return
            self._stopped = True
            try:
                self._cmd.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            self._cmd.close()
        self._proc.join(timeout=timeout)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=timeout)
        self._results.close()
        self._results.cancel_join_thread()


def parallel_starmap(
    fn: Callable[..., T],
    argtuples: Iterable[Sequence],
    n_jobs: JobsLike = None,
    chunksize: int | None = None,
) -> list[T]:
    """Order-preserving ``[fn(*args) for args in argtuples]``, fanned over
    a process pool when the effective job count exceeds 1.

    *fn* and every argument must be picklable (module-level functions,
    plain dataclasses).  Results come back in input order, so callers can
    keep the deterministic merge logic of their serial loops.  An executor
    is spun up and torn down around this one call.
    """
    argtuples = [tuple(args) for args in argtuples]
    n_jobs = resolve_jobs(n_jobs)
    if n_jobs == 1 or len(argtuples) <= 1:
        return [fn(*args) for args in argtuples]
    from concurrent.futures import ProcessPoolExecutor

    if chunksize is None:
        chunksize = max(1, len(argtuples) // (4 * n_jobs))
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        return list(pool.map(fn, *zip(*argtuples), chunksize=chunksize))
