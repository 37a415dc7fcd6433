"""Plumbing shared by the workloads: the daemon process, a keep-alive
HTTP client, the output checker, the span recorder and small statistics.

Nothing here imports :mod:`repro`; the daemon runs in its own process
and is reached only over HTTP.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import itertools
import json
import math
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterator

#: Flags the daemon is started with; every other flag keeps its default.
DAEMON_FLAGS = ("--port", "0", "--shards", "2")

#: 429 replies retried before the operation counts as failed.
RETRY_BUDGET_429 = 3
_RETRY_SLEEP_S = 0.1

_LISTENING = re.compile(r"listening on http://([^\s:]+):(\d+)")


def nproc() -> int:
    """CPUs this process may run on (the load generator's thread cap)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of *values*."""
    if not values:
        raise ValueError("quantile of no samples")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return quantile(values, 0.5)


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# -- the daemon ---------------------------------------------------------------


class Daemon:
    """``python -m repro.service`` in a child process of its own.

    ``REPRO_*`` variables are dropped from the child's environment so
    that every flag other than :data:`DAEMON_FLAGS` is at its built-in
    default whatever the caller's shell exports.
    """

    def __init__(self, root: Path, log_path: Path) -> None:
        self.root = root
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self._log = None

    def start(self, timeout: float = 60.0) -> int:
        """Spawn the daemon and block until it is listening; its port."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(self.root / "src")
        self._log = open(self.log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", *DAEMON_FLAGS],
            cwd=self.root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        deadline = time.monotonic() + timeout
        line = b""
        while b"\n" not in line:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                self.stop()
                raise RuntimeError(
                    f"daemon did not start listening (output {line!r})"
                )
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    continue
                line += chunk
        match = _LISTENING.search(line.decode("utf-8", "replace"))
        if match is None:
            self.stop()
            raise RuntimeError(f"unexpected daemon banner {line!r}")
        self.port = int(match.group(2))
        return self.port

    def pids(self) -> list[int]:
        """The daemon and its direct children (the shard processes)."""
        if self.proc is None:
            return []
        pid = self.proc.pid
        children: list[int] = []
        try:
            for task in Path(f"/proc/{pid}/task").iterdir():
                text = (task / "children").read_text()
                children.extend(int(p) for p in text.split())
        except OSError:
            pass
        return [pid, *children]

    def rss_mb(self) -> float:
        """Sum of ``VmHWM`` (peak resident set) over :meth:`pids`, in MB."""
        total_kb = 0
        for pid in self.pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for row in status.splitlines():
                if row.startswith("VmHWM:"):
                    total_kb += int(row.split()[1])
        return total_kb / 1024.0

    def stop(self, timeout: float = 60.0) -> bool:
        """SIGTERM (graceful drain), then wait; SIGKILL if it overruns.
        True when the daemon reported a clean drain."""
        children = self.pids()[1:]
        proc, self.proc = self.proc, None
        if proc is None:
            return True
        drained = False
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                out, _ = proc.communicate(timeout=timeout)
                drained = b"stopped (drained" in (out or b"")
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
        finally:
            if self._log is not None:
                self._log.close()
                self._log = None
            _reap(children)
        return drained


def _reap(pids: list[int], timeout: float = 10.0) -> None:
    """Make sure shard processes left behind by a killed daemon end."""
    deadline = time.monotonic() + timeout
    for pid in pids:
        while Path(f"/proc/{pid}").exists() and time.monotonic() < deadline:
            try:
                state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
            except (OSError, IndexError):
                break
            if state == "Z":  # exited, waiting for its (re)parent to reap it
                break
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.05)


# -- the client ---------------------------------------------------------------


class Reply:
    __slots__ = ("status", "headers", "body", "seconds")

    def __init__(self, status: int, headers: dict, body: bytes,
                 seconds: float) -> None:
        self.status = status
        self.headers = headers
        self.body = body
        self.seconds = seconds

    def json(self) -> dict:
        return json.loads(self.body)


class Client:
    """One persistent HTTP/1.1 connection (``http.client``).

    The connection is reopened only when the server closes it (a
    ``Connection: close`` reply) or after an error; :attr:`connects`
    counts every TCP connect.  A connection error is raised to the
    caller, which counts it as a failed operation: nothing is retried
    except a 429, up to :data:`RETRY_BUDGET_429` times.
    """

    def __init__(self, port: int, host: str = "127.0.0.1",
                 timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connects = 0
        self.rejected = 0  # 429 replies seen, retried or not
        self._conn: http.client.HTTPConnection | None = None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _once(self, method: str, path: str, body: bytes | None,
              content_type: str) -> tuple[int, dict, bytes]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self.connects += 1
        headers = {"Content-Type": content_type} if body is not None else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            resp = self._conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        if resp.will_close:
            self.close()
        return resp.status, {k.lower(): v for k, v in resp.getheaders()}, data

    def request(self, method: str, path: str, body: bytes | None = None,
                content_type: str = "application/json",
                retry_429: bool = True) -> Reply:
        """Send one request; the reply and its client-side latency.

        With *retry_429* a 429 is retried after a short pause; the
        latency then spans the first send to the final reply, because
        that is what the caller waited.
        """
        started = time.perf_counter()
        retries = 0
        while True:
            status, headers, data = self._once(method, path, body, content_type)
            if status != 429:
                break
            self.rejected += 1
            if not retry_429 or retries >= RETRY_BUDGET_429:
                break
            retries += 1
            time.sleep(_RETRY_SLEEP_S)
        return Reply(status, headers, data, time.perf_counter() - started)

    def post_json(self, path: str, doc: dict, **kwargs) -> Reply:
        body = json.dumps(doc, separators=(",", ":")).encode("ascii")
        return self.request("POST", path, body, **kwargs)

    def get(self, path: str) -> Reply:
        return self.request("GET", path)


# -- correctness --------------------------------------------------------------


class Checker:
    """Counts operations and compares replies with in-process references.

    A failure is a non-2xx reply, a 429 after the retry budget, a
    connection error or a mismatch; a mismatch also makes the run
    incorrect.  Replies whose reference is computed after the timed
    phase are held by key and settled by :meth:`resolve`.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self._deferred: list[tuple[object, str]] = []

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self) -> None:
        self.failed += 1

    def compare(self, body: bytes, expected_sha: str) -> bool:
        if sha256(body) == expected_sha:
            return True
        self.mismatches += 1
        self.failed += 1
        return False

    def defer(self, key: object, body: bytes) -> None:
        self._deferred.append((key, sha256(body)))

    def deferred_keys(self) -> list:
        return [key for key, _ in self._deferred]

    def resolve(self, expected: dict) -> None:
        for key, got in self._deferred:
            if expected.get(key) != got:
                self.mismatches += 1
                self.failed += 1
        self._deferred.clear()

    @property
    def correct(self) -> bool:
        return self.mismatches == 0 and not self._deferred


# -- spans --------------------------------------------------------------------


class Spans:
    """In-memory span recorder for the traced run.

    A span is ``(id, name, start, end, parent, request)`` on the
    ``perf_counter`` clock.  Spans of one operation share its request
    id; server-side splits, which the benchmark derives from the
    daemon's own outputs, are added as child spans with :meth:`add`.
    When disabled every call is a no-op.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: list[tuple[int, str, float, float, int | None, object]] = []
        self._ids = itertools.count(1)  # next() is atomic under the GIL

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, request: object = None) -> int:
        if not self.enabled:
            return 0
        sid = next(self._ids)
        self.records.append((sid, name, start, end, parent, request))
        return sid

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None,
             request: object = None) -> Iterator[int]:
        if not self.enabled:
            yield 0
            return
        sid = next(self._ids)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            self.records.append(
                (sid, name, start, time.perf_counter(), parent, request)
            )

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name: each span's duration minus the
        part its direct children cover."""
        covered: dict[int, float] = {}
        for _, _, start, end, parent, _ in self.records:
            if parent:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        totals: dict[str, float] = {}
        for sid, name, start, end, _, _ in self.records:
            own = max(0.0, (end - start) - covered.get(sid, 0.0))
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def write(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "request")
        with open(path, "w") as fh:
            for record in self.records:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")
