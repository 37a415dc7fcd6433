"""The three workloads: inputs, set-up, timed closed loop and checks.

Every workload is a closed loop (each connection waits for its reply
before sending the next request) against a daemon in its own process.
``repro`` is imported here only to generate inputs and to compute the
in-process reference outputs that every reply is compared with.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field

from harness import Checker, Client, Spans, mean, median, nproc, quantile, sha256

from repro.heuristics import generate_named_scenario, make_scheduler, run_heuristic
from repro.io.serialization import canonical_json_bytes, mapping_to_dict, scenario_to_dict
from repro.session import SessionEvent, run_with_events, synthesize_events
from repro.util.units import CYCLE_SECONDS

#: Heuristics of the paper's comparison, in the order paper-1024 cycles them.
PAPER_HEURISTICS = ("slrh1", "slrh2", "slrh3", "maxmax")
SLRH = ("slrh1", "slrh2", "slrh3")


def ndjson(events) -> bytes:
    """An event batch as the NDJSON request body of the events endpoint."""
    return b"".join(
        json.dumps(ev.to_dict(), separators=(",", ":")).encode("ascii") + b"\n"
        for ev in events
    )


def mapping_sha(result) -> str:
    """SHA-256 of the canonical mapping JSON the daemon must return."""
    return sha256(canonical_json_bytes(mapping_to_dict(result.schedule)))


@dataclass
class MapRecord:
    """One timed ``POST /v1/map`` as the client saw it."""

    kind: str  # paper-1024: the heuristic; service-16: "hot" or "cold"
    scenario: str
    heuristic: str
    seconds: float
    kernel_seconds: float
    job: str
    response_bytes: int
    server: dict = field(default_factory=dict)  # traced run: job status doc


@dataclass
class Connection:
    """Per-connection state of the timed phase (one thread each)."""

    index: int
    client: Client
    checker: Checker = field(default_factory=Checker)
    maps: list[MapRecord] = field(default_factory=list)
    registers: list[float] = field(default_factory=list)
    batches: list[tuple[float, int, int]] = field(default_factory=list)
    sessions: list[tuple[int, list[float]]] = field(default_factory=list)
    last_done: float = 0.0
    timed_done: float = 0.0  # live-grid: end of the last timed batch
    error: str | None = None


class Workload:
    """Shared machinery; subclasses define the inputs and the loop."""

    name = ""
    connections = 1

    def __init__(self, seed: int, trace: bool, tiny: bool = False) -> None:
        self.seed = seed
        self.trace = trace
        self.tiny = tiny
        self.rng = random.Random(f"perfbench/{self.name}/{seed}")
        self.spans = Spans(trace)
        self.setup_checker = Checker()
        self.conns: list[Connection] = []
        self.started = 0.0
        self.n_connections = min(self.connections, nproc())

    def draw_seed(self) -> int:
        return self.rng.randrange(2**31)

    # -- shared requests ---------------------------------------------------

    def register(self, client: Client, doc: dict, checker: Checker) -> tuple[str, float]:
        checker.attempt()
        reply = client.post_json("/v1/scenarios", doc)
        if reply.status not in (200, 201):
            checker.fail()
            raise RuntimeError(f"scenario registration answered {reply.status}")
        return reply.json()["id"], reply.seconds

    def map_once(self, conn: Connection, scenario_id: str, heuristic: str,
                 kind: str, expected: str | None, defer_key: object = None,
                 ) -> MapRecord | None:
        """One synchronous map, checked against *expected* (or held under
        *defer_key* until its reference exists).  None when it failed."""
        checker = conn.checker
        checker.attempt()
        started = time.perf_counter()
        with self.spans.span("client.map", request=(conn.index, len(conn.maps))) as sid:
            try:
                reply = conn.client.post_json(
                    "/v1/map",
                    {"scenario": scenario_id, "heuristic": heuristic, "wait": True},
                )
            except OSError:
                checker.fail()
                return None
        if reply.status != 200:
            checker.fail()
            return None
        if expected is not None:
            if not checker.compare(reply.body, expected):
                return None
        else:
            checker.defer(defer_key, reply.body)
        record = MapRecord(
            kind=kind,
            scenario=scenario_id,
            heuristic=heuristic,
            seconds=reply.seconds,
            kernel_seconds=float(reply.headers.get("x-heuristic-seconds", "nan")),
            job=reply.headers.get("x-job-id", ""),
            response_bytes=len(reply.body),
        )
        if self.trace:
            self.trace_map(conn, record, sid, started)
        return record

    def trace_map(self, conn: Connection, record: MapRecord, sid: int,
                  start: float) -> None:
        """Split one map's latency from the daemon's own outputs and
        record the parts as child spans of the client span."""
        status = conn.client.get(f"/v1/jobs/{record.job}")
        if status.status != 200:
            return
        doc = status.json()
        record.server = doc
        request = (conn.index, len(conn.maps))
        total = doc["total_seconds"]
        wait = doc["wait_seconds"]
        kernel = record.kernel_seconds
        parts = (
            ("app.transport", record.seconds - total),
            ("jobs.queue_wait", wait),
            ("shard.rpc", total - wait - kernel),
            ("kernel.map", kernel),
        )
        for name, seconds in parts:
            self.spans.add(name, start, start + max(0.0, seconds), sid, request)
            start += max(0.0, seconds)

    # -- the timed phase ---------------------------------------------------

    def drive(self, port: int, seconds: float) -> None:
        """Run :meth:`loop` on each connection until *seconds* pass."""
        self.conns = [Connection(i, Client(port)) for i in range(self.n_connections)]
        self.started = time.perf_counter()
        deadline = self.started + seconds

        def body(conn: Connection) -> None:
            try:
                self.loop(conn, deadline)
            except Exception as exc:  # reported as a failed run, never hidden
                conn.error = f"{type(exc).__name__}: {exc}"
                conn.checker.fail()
            finally:
                conn.last_done = time.perf_counter()
                conn.client.close()

        threads = [
            threading.Thread(target=body, args=(c,), name=f"perfbench-{c.index}")
            for c in self.conns
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def loop(self, conn: Connection, deadline: float) -> None:
        raise NotImplementedError

    def settle(self) -> None:
        """Compute references that depend on what the timed phase used."""

    # -- results -------------------------------------------------------------

    def checkers(self) -> list[Checker]:
        return [self.setup_checker, *(c.checker for c in self.conns)]

    @property
    def wall(self) -> float:
        return max(c.last_done for c in self.conns) - self.started

    def all_maps(self) -> list[MapRecord]:
        return [m for c in self.conns for m in c.maps]

    def connects_per_op(self) -> float:
        ops = sum(
            len(c.maps) + len(c.registers) + len(c.batches) for c in self.conns
        )
        return sum(c.client.connects for c in self.conns) / max(ops, 1)

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        raise NotImplementedError

    def detail(self) -> dict[str, tuple[float, str]]:
        raise NotImplementedError


class PaperWorkload(Workload):
    """paper-1024: the paper's scale and heuristic set, one connection.

    The two scenarios are the same on every run: across generator seeds
    the time of one 1024-task map varies by up to 2x (Max-Max 0.9-1.7 s
    on one host), which would swamp the change a run is meant to show.
    The workload seed decides the order of the maps instead: each cycle
    runs the 8 (scenario, heuristic) pairs once, in a seeded shuffle.
    """

    name = "paper-1024"
    connections = 1
    SCENARIO_SEEDS = (1, 2)

    def prepare(self, seconds: float) -> None:
        n_tasks = 48 if self.tiny else 1024
        self.scenarios = [
            generate_named_scenario(n_tasks, s) for s in self.SCENARIO_SEEDS
        ]
        self.docs = [scenario_to_dict(s) for s in self.scenarios]
        self.results = {
            (i, h): run_heuristic(h, s)
            for i, s in enumerate(self.scenarios)
            for h in PAPER_HEURISTICS
        }
        self.expected = {key: mapping_sha(r) for key, r in self.results.items()}

    def setup(self, client: Client) -> None:
        self.ids = [self.register(client, d, self.setup_checker)[0] for d in self.docs]
        conn = Connection(-1, client, self.setup_checker)
        for i, sid in enumerate(self.ids):
            if self.map_once(conn, sid, "slrh1", "warm", self.expected[(i, "slrh1")]) is None:
                raise RuntimeError("warm-up map failed")

    def order(self):
        """The seeded map sequence: endless cycles of the 8 pairs."""
        pairs = sorted(self.expected)
        while True:
            self.rng.shuffle(pairs)
            yield from pairs

    def loop(self, conn: Connection, deadline: float) -> None:
        sequence = self.order()
        while time.perf_counter() < deadline:
            scenario, heuristic = next(sequence)
            record = self.map_once(
                conn, self.ids[scenario], heuristic, heuristic,
                self.expected[(scenario, heuristic)],
            )
            if record is not None:
                conn.maps.append(record)

    def layer_inputs(self) -> tuple[list[dict], list[tuple]]:
        return self.docs, [(h, r) for (_, h), r in self.results.items()]

    def kernel_replays(self) -> list[tuple]:
        return [(s, h) for s in self.scenarios for h in SLRH]

    def _p50(self, heuristics: tuple[str, ...]) -> float:
        """Mean over the (scenario, heuristic) pairs of each pair's median
        latency.  The pairs differ in cost, so one median pooled over
        them would fall between two clusters and jump with their noise."""
        return mean([
            median([
                m.seconds for m in self.all_maps()
                if m.heuristic == h and m.scenario == sid
            ])
            for h in heuristics
            for sid in self.ids
        ])

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        return {
            "ops_per_s": (len(self.all_maps()) / self.wall, "1/s"),
            "p50_s": (self._p50(SLRH), "s"),
            "tail_s": (self._p50(("maxmax",)), "s"),
        }

    def detail(self) -> dict[str, tuple[float, str]]:
        out = {
            f"{h}_map_p50_s": (self._p50((h,)), "s") for h in PAPER_HEURISTICS
        }
        out["maps_per_s"] = (len(self.all_maps()) / self.wall, "1/s")
        for h in PAPER_HEURISTICS:
            out[f"{h}_maps"] = (
                float(sum(1 for m in self.all_maps() if m.heuristic == h)), "count"
            )
        return out


class ServiceWorkload(Workload):
    """service-16: many small maps over a working set of 8 scenarios,
    with a never-seen upload every 8th operation of each connection."""

    name = "service-16"
    connections = 2
    HOT = 8
    UPLOAD_EVERY = 8
    #: Cold documents generated per connection before the timed phase,
    #: sized for maps several times faster than today; a connection that
    #: runs out generates more between operations (outside any latency).
    COLD_PER_S = 12

    def prepare(self, seconds: float) -> None:
        self.hot = [generate_named_scenario(16, self.draw_seed()) for _ in range(self.HOT)]
        self.hot_docs = [scenario_to_dict(s) for s in self.hot]
        self.hot_results = [run_heuristic("slrh1", s) for s in self.hot]
        self.hot_expected = [mapping_sha(r) for r in self.hot_results]
        per_conn = max(2, int(seconds * self.COLD_PER_S))
        self.cold = [
            [self._cold_scenario() for _ in range(per_conn)]
            for _ in range(self.n_connections)
        ]
        self.cold_used = [0] * self.n_connections

    def _cold_scenario(self) -> tuple:
        scenario = generate_named_scenario(16, self.draw_seed())
        return scenario, scenario_to_dict(scenario)

    def setup(self, client: Client) -> None:
        self.hot_ids = [
            self.register(client, d, self.setup_checker)[0] for d in self.hot_docs
        ]
        conn = Connection(-1, client, self.setup_checker)
        for sid, expected in zip(self.hot_ids, self.hot_expected):
            if self.map_once(conn, sid, "slrh1", "warm", expected) is None:
                raise RuntimeError("warm-up map failed")

    def loop(self, conn: Connection, deadline: float) -> None:
        op = 0
        hot_index = conn.index * (self.HOT // max(self.n_connections, 1))
        pool = self.cold[conn.index]
        while time.perf_counter() < deadline:
            op += 1
            if op % self.UPLOAD_EVERY == 0:
                used = self.cold_used[conn.index]
                if used == len(pool):
                    pool.append(self._cold_scenario())
                _, doc = pool[used]
                self.cold_used[conn.index] = used + 1
                try:
                    sid, seconds = self.register(conn.client, doc, conn.checker)
                except (OSError, RuntimeError):
                    continue
                conn.registers.append(seconds)
                record = self.map_once(
                    conn, sid, "slrh1", "cold", None, defer_key=(conn.index, used)
                )
            else:
                slot = hot_index % self.HOT
                hot_index += 1
                record = self.map_once(
                    conn, self.hot_ids[slot], "slrh1", "hot", self.hot_expected[slot]
                )
            if record is not None:
                conn.maps.append(record)

    def settle(self) -> None:
        expected = {}
        for conn in self.conns:
            for key in conn.checker.deferred_keys():
                scenario, _ = self.cold[key[0]][key[1]]
                expected[key] = mapping_sha(run_heuristic("slrh1", scenario))
            conn.checker.resolve(expected)

    def layer_inputs(self) -> tuple[list[dict], list[tuple]]:
        cold = [doc for pool in self.cold for _, doc in pool[:4]]
        return self.hot_docs + cold, [("slrh1", r) for r in self.hot_results]

    def kernel_replays(self) -> list[tuple]:
        return [(s, "slrh1") for s in self.hot]

    def _lat(self, kind: str) -> list[float]:
        return [m.seconds for m in self.all_maps() if m.kind == kind]

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        hot = self._lat("hot")
        return {
            "ops_per_s": (len(self.all_maps()) / self.wall, "1/s"),
            "p50_s": (median(hot), "s"),
            "tail_s": (quantile(hot, 0.99), "s"),
        }

    def detail(self) -> dict[str, tuple[float, str]]:
        hot, cold = self._lat("hot"), self._lat("cold")
        registers = [s for c in self.conns for s in c.registers]
        return {
            "maps_per_s": (len(self.all_maps()) / self.wall, "1/s"),
            "map_p50_s": (median(hot), "s"),
            "map_p99_s": (quantile(hot, 0.99), "s"),
            "map_samples": (float(len(hot)), "count"),
            "register_p50_s": (median(registers), "s"),
            "register_samples": (float(len(registers)), "count"),
            "cold_map_p50_s": (median(cold), "s"),
            "cold_map_samples": (float(len(cold)), "count"),
        }


class LiveGridWorkload(Workload):
    """live-grid: long streaming sessions on the 1024-task scenario.

    The scenario is the same on every run (for the reason given on
    :class:`PaperWorkload`); the workload seed generates the event
    streams, one per session.
    """

    name = "live-grid"
    connections = 2
    SCENARIO_SEED = 1
    BATCH = 4
    EVENTS = 20_000
    #: Events per request once the timed phase is over and an open
    #: session is streamed to its close so that its result can be checked.
    FINISH_BATCH = 512

    def prepare(self, seconds: float) -> None:
        n_tasks = 48 if self.tiny else 1024
        self.n_events = 200 if self.tiny else self.EVENTS
        self.scenario = generate_named_scenario(n_tasks, self.SCENARIO_SEED)
        self.doc = scenario_to_dict(self.scenario)
        self.max_cycle = int(round(self.scenario.tau / CYCLE_SECONDS))
        self.streams = [self._stream() for _ in range(self.n_connections * 2)]
        self.stream_lock = threading.Lock()
        self.taken = 0

    def _stream(self) -> tuple:
        held, events = synthesize_events(
            self.scenario, seed=self.draw_seed(), n_events=self.n_events,
            max_cycle=self.max_cycle,
        )
        return held, events, [
            ndjson(events[i:i + self.BATCH])
            for i in range(0, len(events), self.BATCH)
        ]

    def next_stream(self) -> int:
        with self.stream_lock:
            taken = self.taken
            self.taken += 1
            if taken == len(self.streams):
                self.streams.append(self._stream())
            return taken

    def setup(self, client: Client) -> None:
        self.scenario_id = self.register(client, self.doc, self.setup_checker)[0]
        # One open session per shard (sessions are placed round-robin),
        # advanced a single cycle: loads the scenario and the session code
        # on both shard processes without running a whole mapping.
        for _ in range(2):
            self.setup_checker.attempt()
            opened = client.post_json(
                "/v1/session",
                {"scenario": self.scenario_id, "heuristic": "slrh1"},
                retry_429=False,
            )
            if opened.status != 201:
                self.setup_checker.fail()
                raise RuntimeError(f"warm-up session open answered {opened.status}")
            self.setup_checker.attempt()
            reply = client.request(
                "POST", opened.json()["events_url"],
                json.dumps(SessionEvent(kind="advance", cycle=1).to_dict()).encode(),
                content_type="application/x-ndjson",
            )
            if reply.status != 200 or b'"record":"error"' in reply.body:
                self.setup_checker.fail()
                raise RuntimeError("warm-up session batch failed")

    def _post_batch(self, conn: Connection, url: str, payload: bytes) -> bytes | None:
        conn.checker.attempt()
        try:
            reply = conn.client.request(
                "POST", url, payload, content_type="application/x-ndjson"
            )
        except OSError:
            conn.checker.fail()
            return None
        if reply.status != 200 or b'"record":"error"' in reply.body:
            conn.checker.fail()
            return None
        return reply.body

    def loop(self, conn: Connection, deadline: float) -> None:
        while time.perf_counter() < deadline:
            index = self.next_stream()
            held, events, payloads = self.streams[index]
            conn.checker.attempt()
            opened = conn.client.post_json(
                "/v1/session",
                {"scenario": self.scenario_id, "heuristic": "slrh1",
                 "pending": list(held)},
                retry_429=False,
            )
            if opened.status != 201:
                conn.checker.fail()
                return
            session = opened.json()
            url = session["events_url"]
            timed: list[float] = []
            sent = 0
            body = b""
            while sent < len(payloads) and time.perf_counter() < deadline:
                with self.spans.span("client.batch", request=(conn.index, index, sent)):
                    started = time.perf_counter()
                    reply_body = self._post_batch(conn, url, payloads[sent])
                    elapsed = time.perf_counter() - started
                if reply_body is None:
                    return
                body = reply_body
                timed.append(elapsed)
                conn.batches.append((elapsed, len(body), body.count(b"\n")))
                sent += 1
            conn.timed_done = time.perf_counter()
            if sent < len(payloads):
                # Past the deadline: stream the rest of this session in
                # large untimed batches so that its result is still checked.
                rest = events[sent * self.BATCH:]
                for i in range(0, len(rest), self.FINISH_BATCH):
                    reply_body = self._post_batch(
                        conn, url, ndjson(rest[i:i + self.FINISH_BATCH])
                    )
                    if reply_body is None:
                        return
                    body = reply_body
            if b'"record":"footer"' not in body:
                conn.checker.fail()
                return
            conn.checker.attempt()
            result = conn.client.get(session["result_url"])
            if result.status != 200:
                conn.checker.fail()
                return
            conn.checker.defer(index, result.body)
            conn.sessions.append((index, timed))

    def settle(self) -> None:
        self.outcomes = []
        for conn in self.conns:
            expected = {}
            for index in conn.checker.deferred_keys():
                held, events, _ = self.streams[index]
                outcome = run_with_events(
                    self.scenario, make_scheduler("slrh1"), events, pending=held
                )
                expected[index] = mapping_sha(outcome.final)
                self.outcomes.append(outcome.final)
            conn.checker.resolve(expected)

    def layer_inputs(self) -> tuple[list[dict], list[tuple]]:
        return [self.doc], [("slrh1", r) for r in self.outcomes]

    def kernel_replays(self) -> list[tuple]:
        # A session's kernel time is measured per batch by session.apply_s.
        return []

    def _batch_lat(self) -> list[float]:
        return [b[0] for c in self.conns for b in c.batches]

    def timed_wall(self) -> float:
        return max(c.timed_done for c in self.conns) - self.started

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        lat = self._batch_lat()
        return {
            "ops_per_s": (len(lat) * self.BATCH / self.timed_wall(), "1/s"),
            "p50_s": (median(lat), "s"),
            # p95, not p99: with both CPUs saturated, the p99 of a run moved
            # by up to 1.5x from run to run on a 2-CPU host.
            "tail_s": (quantile(lat, 0.95), "s"),
        }

    def detail(self) -> dict[str, tuple[float, str]]:
        lat = self._batch_lat()
        return {
            "batch_p50_s": (median(lat), "s"),
            "batch_p95_s": (quantile(lat, 0.95), "s"),
            "batch_p99_s": (quantile(lat, 0.99), "s"),
            "batch_samples": (float(len(lat)), "count"),
            "events_per_s": (len(lat) * self.BATCH / self.timed_wall(), "1/s"),
            "sessions": (float(sum(len(c.sessions) for c in self.conns)), "count"),
        }


WORKLOADS = {
    w.name: w for w in (PaperWorkload, ServiceWorkload, LiveGridWorkload)
}
