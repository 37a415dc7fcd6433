"""The scheduling service (:mod:`repro.service`): registry, job manager,
HTTP surface, backpressure, drain — and the differential determinism
contract against the batch CLI."""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.heuristics import HEURISTIC_NAMES, generate_named_scenario, run_heuristic
from repro.io.serialization import (
    canonical_json_bytes,
    scenario_digest,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.service.app import ServiceServer, make_server
from repro.service.jobs import (
    DrainingError,
    JobManager,
    QueueFullError,
    ShardRouter,
)
from repro.service.worker import trace_events
from repro.service.registry import ScenarioRegistry


def _scenario_doc(n_tasks=16, seed=3) -> dict:
    return scenario_to_dict(generate_named_scenario(n_tasks, seed))


# ---------------------------------------------------------------------------
# registry


class TestScenarioRegistry:
    def test_put_is_content_addressed(self):
        reg = ScenarioRegistry()
        doc = _scenario_doc()
        sid, created = reg.put(doc)
        assert created and sid.startswith("sha256:")
        assert sid == scenario_digest(doc)
        sid2, created2 = reg.put(json.loads(json.dumps(doc)))  # fresh dict, same content
        assert sid2 == sid and not created2
        assert len(reg) == 1 and sid in reg

    def test_get_scenario_uses_lru(self):
        reg = ScenarioRegistry(max_cached=1)
        a, _ = reg.put(_scenario_doc(12, 1))
        b, _ = reg.put(_scenario_doc(12, 2))
        assert reg.get_scenario(a).name == "gen12-seed1"  # evicted -> rebuild
        assert reg.perf.get("registry.cache_miss") >= 1
        assert reg.get_scenario(a).name == "gen12-seed1"  # now cached
        assert reg.perf.get("registry.cache_hit") >= 1
        assert reg.get_scenario(b).name == "gen12-seed2"
        assert reg.perf.gauge("registry.cached") == 1.0

    def test_rejects_malformed_documents(self):
        reg = ScenarioRegistry()
        with pytest.raises(ValueError):
            reg.put({"kind": "mapping"})
        doc = _scenario_doc()
        doc["etc"] = [[1.0]]  # shape mismatch vs dag/grid
        with pytest.raises(ValueError):
            reg.put(doc)
        assert len(reg) == 0

    def test_unknown_id_raises(self):
        reg = ScenarioRegistry()
        with pytest.raises(KeyError):
            reg.get_doc("sha256:missing")
        with pytest.raises(KeyError):
            reg.get_scenario("sha256:missing")


# ---------------------------------------------------------------------------
# job manager (no HTTP)


class TestJobManager:
    def test_submit_and_run(self):
        reg = ScenarioRegistry()
        sid, _ = reg.put(_scenario_doc())
        manager = JobManager(reg, n_jobs=1, max_queue=4).start()
        try:
            job = manager.submit(sid, "slrh1", alpha=0.5, beta=0.2)
            assert job.done.wait(timeout=120)
            assert job.state == "succeeded"
            assert job.outcome["summary"]["n_mapped"] > 0
            assert job.mapping_bytes.endswith(b"\n")
            assert manager.perf.get("service.completed") == 1.0
            assert manager.perf.histogram("service.request_seconds").count == 1
        finally:
            manager.close(drain_timeout=10)

    def test_validation_happens_at_admission(self):
        reg = ScenarioRegistry()
        sid, _ = reg.put(_scenario_doc())
        manager = JobManager(reg, n_jobs=1, max_queue=4)  # never started
        with pytest.raises(KeyError):
            manager.submit("sha256:unregistered", "slrh1")
        with pytest.raises(KeyError):
            manager.submit(sid, "frobnicate")
        with pytest.raises(ValueError):
            manager.submit(sid, "greedy", alpha=0.5)
        assert manager.queue_depth == 0

    def test_bounded_queue_rejects_with_retry_after(self):
        reg = ScenarioRegistry()
        sid, _ = reg.put(_scenario_doc())
        # Dispatcher intentionally NOT started: the queue cannot drain, so
        # saturation is deterministic.
        manager = JobManager(reg, n_jobs=1, max_queue=2)
        manager.submit(sid, "slrh1")
        manager.submit(sid, "slrh2")
        with pytest.raises(QueueFullError) as exc_info:
            manager.submit(sid, "slrh3")
        assert exc_info.value.retry_after >= 1
        assert exc_info.value.depth == 2
        assert manager.perf.get("service.rejected") == 1.0
        # The backlog never grew past the bound.
        assert manager.queue_depth == 2
        # Start the dispatcher: the queued jobs drain and complete.
        manager.start()
        assert manager.drain(timeout=120)
        assert all(
            manager.get(f"job-{i:08d}").state == "succeeded" for i in (1, 2)
        )
        manager.close(drain_timeout=10)

    def test_drain_blocks_until_idle_then_rejects(self):
        reg = ScenarioRegistry()
        sid, _ = reg.put(_scenario_doc())
        manager = JobManager(reg, n_jobs=1, max_queue=8).start()
        jobs = [manager.submit(sid, "greedy") for _ in range(3)]
        assert manager.drain(timeout=120)
        assert all(j.state == "succeeded" for j in jobs)
        assert manager.queue_depth == 0 and manager.inflight == 0
        with pytest.raises(DrainingError):
            manager.submit(sid, "greedy")
        assert manager.perf.get("service.rejected_draining") == 1.0
        manager.close(drain_timeout=10)

    def test_metrics_document_schema(self):
        reg = ScenarioRegistry()
        sid, _ = reg.put(_scenario_doc())
        manager = JobManager(reg, n_jobs=1, max_queue=4).start()
        try:
            manager.submit(sid, "slrh1").done.wait(timeout=120)
            doc = manager.metrics_document()
            assert doc["schema"] == "repro.perf/2"
            assert doc["gauges"]["service.queue_depth"] == 0.0
            assert doc["gauges"]["registry.scenarios"] == 1.0
            hist = doc["histograms"]["service.request_seconds"]
            assert hist["count"] == 1 and hist["p50"] > 0.0
            # Engine counters from the job's run were merged in.
            assert doc["counters"]["map.runs"] == 1.0
            assert doc["counters"]["plan.pairs"] > 0
        finally:
            manager.close(drain_timeout=10)


# ---------------------------------------------------------------------------
# HTTP surface


def _post(base, path, doc, timeout=120):
    req = urllib.request.Request(
        base + path,
        data=json.dumps(doc).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def _get(base, path, timeout=120):
    try:
        with urllib.request.urlopen(base + path, timeout=timeout) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


@pytest.fixture()
def service():
    """A live service on an ephemeral port (serial worker, small queue)."""
    manager = JobManager(ScenarioRegistry(), n_jobs=1, max_queue=16)
    server = make_server("127.0.0.1", 0, manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", manager
    manager.drain(timeout=60)
    server.shutdown()
    thread.join(timeout=10)
    server.server_close()
    manager.close(drain_timeout=0)


class TestHTTPSurface:
    def test_register_map_and_jobs(self, service):
        base, _ = service
        status, _, body = _post(base, "/v1/scenarios", _scenario_doc())
        assert status == 201
        reg_doc = json.loads(body)
        assert reg_doc["created"] and reg_doc["n_tasks"] == 16
        sid = reg_doc["id"]
        # duplicate registration: 200, same id
        status, _, body = _post(base, "/v1/scenarios", _scenario_doc())
        assert status == 200 and json.loads(body)["id"] == sid
        # server-side generation converges on the same content address
        status, _, body = _post(
            base, "/v1/scenarios", {"generate": {"n_tasks": 16, "seed": 3}}
        )
        assert status == 200 and json.loads(body)["id"] == sid

        # synchronous map returns the mapping document directly
        status, headers, mapping = _post(
            base, "/v1/map", {"scenario": sid, "heuristic": "SLRH-3"}
        )
        assert status == 200
        doc = json.loads(mapping)
        assert doc["kind"] == "mapping" and doc["assignments"]
        job_id = headers["X-Job-Id"]

        # job endpoints agree
        status, _, body = _get(base, f"/v1/jobs/{job_id}")
        assert status == 200
        job_doc = json.loads(body)
        assert job_doc["state"] == "succeeded"
        assert job_doc["heuristic"] == "slrh3"
        assert job_doc["summary"]["n_tasks"] == 16
        status, _, result = _get(base, f"/v1/jobs/{job_id}/result")
        assert status == 200 and result == mapping

        status, _, body = _get(base, "/v1/scenarios")
        assert status == 200 and json.loads(body)["scenarios"] == [sid]

    def test_async_map_with_ndjson_events(self, service):
        base, _ = service
        _, _, body = _post(base, "/v1/scenarios", _scenario_doc())
        sid = json.loads(body)["id"]
        status, _, body = _post(
            base, "/v1/map", {"scenario": sid, "heuristic": "slrh1", "wait": False}
        )
        assert status == 202
        pending = json.loads(body)
        assert pending["job"].startswith("job-")
        status, headers, stream = _get(base, pending["events_url"])
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        events = [json.loads(line) for line in stream.splitlines() if line]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "status"
        assert kinds[-1] == "done" and events[-1]["state"] == "succeeded"
        commits = [e for e in events if e["event"] == "commit"]
        assert commits and {"clock", "task", "machine", "t100"} <= set(commits[0])
        (trace,) = [e for e in events if e["event"] == "trace"]
        assert trace["commits"] == len(commits)

    def test_error_statuses(self, service):
        base, _ = service
        status, _, _ = _post(base, "/v1/map", {"scenario": "sha256:nope"})
        assert status == 404
        _, _, body = _post(base, "/v1/scenarios", _scenario_doc())
        sid = json.loads(body)["id"]
        status, _, _ = _post(base, "/v1/map", {"scenario": sid, "heuristic": "bogus"})
        assert status == 404
        status, _, _ = _post(
            base, "/v1/map", {"scenario": sid, "heuristic": "greedy", "alpha": 0.5}
        )
        assert status == 400
        status, _, _ = _post(base, "/v1/map", {})
        assert status == 400
        status, _, _ = _post(base, "/v1/scenarios", {"kind": "other"})
        assert status == 400
        status, _, _ = _get(base, "/v1/jobs/job-99999999")
        assert status == 404
        status, _, _ = _get(base, "/nope")
        assert status == 404

    def test_healthz_and_metrics_under_traffic(self, service):
        base, _ = service
        _, _, body = _post(base, "/v1/scenarios", _scenario_doc())
        sid = json.loads(body)["id"]
        for heuristic in ("slrh1", "minmin"):
            status, _, _ = _post(base, "/v1/map", {"scenario": sid, "heuristic": heuristic})
            assert status == 200
        status, _, body = _get(base, "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok" and health["scenarios"] == 1
        status, _, body = _get(base, "/metrics")
        assert status == 200
        metrics = json.loads(body)
        assert metrics["schema"] == "repro.perf/2"
        assert metrics["counters"]["service.completed"] == 2.0
        assert metrics["gauges"]["service.queue_depth"] == 0.0
        assert 0.0 <= metrics["derived"]["pool_reuse_rate"] <= 1.0
        lat = metrics["histograms"]["service.request_seconds"]
        assert lat["count"] == 2
        assert lat["p50"] <= lat["p95"] <= lat["p99"]

    def test_queue_saturation_returns_429_over_http(self):
        manager = JobManager(ScenarioRegistry(), n_jobs=1, max_queue=1)
        # Dispatcher NOT started: saturation is deterministic.
        server = ServiceServer(("127.0.0.1", 0), manager)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            _, _, body = _post(base, "/v1/scenarios", _scenario_doc())
            sid = json.loads(body)["id"]
            payload = {"scenario": sid, "heuristic": "slrh1", "wait": False}
            status, _, _ = _post(base, "/v1/map", payload)
            assert status == 202
            status, headers, body = _post(base, "/v1/map", payload)
            assert status == 429
            # RFC 9110 delta-seconds: a plain decimal string, no float repr.
            assert headers["Retry-After"].isdigit()
            assert int(headers["Retry-After"]) >= 1
            doc = json.loads(body)
            assert doc["queue_depth"] == 1
            # Body keeps the integer too — loadgen backs off on this field.
            assert doc["retry_after"] == int(headers["Retry-After"])
            # Draining rejects with 503, not 429.
            manager.start()
            assert manager.drain(timeout=120)
            status, _, _ = _post(base, "/v1/map", payload)
            assert status == 503
        finally:
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()
            manager.close(drain_timeout=0)


class TestRetryAfterHeaderType:
    """The 429 Retry-After header must hit the wire as RFC 9110
    delta-seconds — a decimal string — regardless of how the queue's
    integer estimate reaches the handler, and the same integer must stay
    in the JSON body for clients that back off on ``retry_after``."""

    @pytest.mark.parametrize("estimate,expected", [(7, "7"), (12.0, "12")])
    def test_error_serialises_retry_after_at_the_boundary(
        self, estimate, expected
    ):
        import io

        from repro.service.app import ServiceHandler

        handler = object.__new__(ServiceHandler)
        sent: dict[str, object] = {}
        handler.send_response = lambda status: None  # type: ignore[method-assign]
        handler.send_header = (  # type: ignore[method-assign]
            lambda name, value: sent.__setitem__(name, value)
        )
        handler.end_headers = lambda: None  # type: ignore[method-assign]
        handler.wfile = io.BytesIO()  # type: ignore[assignment]
        handler._error(429, "job queue full", retry_after=estimate, queue_depth=3)
        assert sent["Retry-After"] == expected
        assert isinstance(sent["Retry-After"], str)
        body = json.loads(handler.wfile.getvalue())
        assert body["retry_after"] == estimate
        assert body["queue_depth"] == 3


# ---------------------------------------------------------------------------
# reply path: one write per reply, TCP_NODELAY, shard-encoded bytes


@pytest.fixture(params=[1, 2], ids=["shards1", "shards2"])
def sharded_service(request):
    """A live service on an ephemeral port at 1 (inline) and 2 (process)
    shards."""
    manager = ShardRouter(ScenarioRegistry(), shards=request.param, max_queue=16)
    server = make_server("127.0.0.1", 0, manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield host, port, manager
    manager.drain(timeout=60)
    server.shutdown()
    thread.join(timeout=10)
    server.server_close()
    manager.close(drain_timeout=0)


class TestReplyPath:
    def test_keep_alive_requests_do_not_stall(self, sharded_service):
        """Sequential requests on one persistent connection answer fast.

        A reply sent as two send()s (headers, then body) on a socket
        without TCP_NODELAY has its body held by Nagle until the client
        ACKs the headers, and once a keep-alive connection has left
        Linux's quick-ACK start-up phase the client delays that ACK by
        ~40 ms.  Every other HTTP test here goes through urllib, which
        opens a fresh connection per request, so each exchange is the
        first on its connection and the stall never shows; only a client
        that reuses its connection, as this one does, can see it.
        """
        host, port, manager = sharded_service
        sid, _ = manager.registry.put(_scenario_doc())
        body = json.dumps({"scenario": sid, "heuristic": "slrh1"}).encode()
        conn = http.client.HTTPConnection(host, port, timeout=60)

        def timed(method, path, payload=None):
            started = time.perf_counter()
            conn.request(method, path, body=payload)
            resp = conn.getresponse()
            data = resp.read()
            elapsed = time.perf_counter() - started
            assert resp.status == 200, data
            return elapsed

        try:
            timed("POST", "/v1/map", body)  # warm the shard's scenario LRU
            sock = conn.sock
            health = [timed("GET", "/healthz") for _ in range(30)]
            maps = [timed("POST", "/v1/map", body) for _ in range(30)]
            assert conn.sock is sock  # every request reused one connection
        finally:
            conn.close()
        # The stall is >= 40 ms per reply; 20 ms leaves a wide margin for
        # a slow host while still failing on it.
        assert statistics.median(health) < 0.020, health
        assert statistics.median(maps) < 0.020, maps

    def test_events_body_is_byte_identical(self, sharded_service):
        host, port, manager = sharded_service
        doc = _scenario_doc()
        sid, _ = manager.registry.put(doc)
        base = f"http://{host}:{port}"
        status, _, body = _post(
            base, "/v1/map", {"scenario": sid, "heuristic": "slrh2", "wait": False}
        )
        assert status == 202
        job_id = json.loads(body)["job"]
        assert manager.get(job_id).done.wait(timeout=60)
        status, _, stream = _get(base, f"/v1/jobs/{job_id}/events")
        assert status == 200
        reference = run_heuristic("slrh2", scenario_from_dict(doc))
        expected = b"".join(
            [
                canonical_json_bytes(
                    {"event": "status", "job": job_id, "state": "succeeded"}
                ),
                *(canonical_json_bytes(e) for e in trace_events(reference.trace)),
                canonical_json_bytes(
                    {"event": "done", "job": job_id, "state": "succeeded"}
                ),
            ]
        )
        assert stream == expected

    def test_malformed_request_line_still_gets_400(self, service):
        base, _ = service
        host, port = base[len("http://"):].split(":")
        with socket.create_connection((host, int(port)), timeout=30) as sock:
            sock.sendall(b"GET /a b HTTP/1.1\r\n\r\n")
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 "), reply
        assert b"Bad request syntax" in reply
        status, _, _ = _get(base, "/healthz")  # the daemon keeps serving
        assert status == 200

    def test_client_gone_before_flush_leaves_no_traceback(self, capsys):
        manager = JobManager(ScenarioRegistry(), n_jobs=1, max_queue=4)
        sid, _ = manager.registry.put(_scenario_doc())
        # Dispatcher NOT started: the handler blocks on the job until the
        # client is gone, so its reply always meets a reset connection.
        server = ServiceServer(("127.0.0.1", 0), manager)
        handled = threading.Event()
        shutdown_request = server.shutdown_request

        def shutdown_and_signal(request):
            shutdown_request(request)
            handled.set()

        server.shutdown_request = shutdown_and_signal  # type: ignore[method-assign]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            body = json.dumps({"scenario": sid}).encode()
            sock = socket.create_connection(server.server_address[:2], timeout=30)
            sock.sendall(
                b"POST /v1/map HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            deadline = time.monotonic() + 30
            while manager.queue_depth == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert manager.queue_depth == 1
            # Close with RST (zero linger) rather than FIN.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.close()
            manager.start()
            assert handled.wait(timeout=60)
        finally:
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()
            manager.close(drain_timeout=0)
        err = capsys.readouterr().err
        assert "Traceback" not in err, err
        assert manager.perf.get("service.completed") == 1


# ---------------------------------------------------------------------------
# differential determinism: service bytes == batch CLI bytes


class TestDifferentialDeterminism:
    @pytest.fixture(scope="class")
    def served_mappings(self):
        """Every registry heuristic served once for one fixed scenario+seed."""
        manager = JobManager(ScenarioRegistry(), n_jobs=1, max_queue=32)
        server = make_server("127.0.0.1", 0, manager)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        served = {}
        try:
            _, _, body = _post(
                base, "/v1/scenarios", {"generate": {"n_tasks": 16, "seed": 3}}
            )
            sid = json.loads(body)["id"]
            for heuristic in HEURISTIC_NAMES:
                status, _, mapping = _post(
                    base, "/v1/map", {"scenario": sid, "heuristic": heuristic}
                )
                assert status == 200, mapping
                served[heuristic] = mapping
        finally:
            manager.drain(timeout=120)
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()
            manager.close(drain_timeout=0)
        return served

    @pytest.mark.parametrize("heuristic", HEURISTIC_NAMES)
    def test_service_matches_batch_cli_byte_for_byte(
        self, served_mappings, heuristic, tmp_path
    ):
        from repro.experiments.__main__ import main as cli_main

        out = tmp_path / f"{heuristic}.json"
        rc = cli_main(
            ["map", "--generate", "16", "--seed", "3",
             "--heuristic", heuristic, "--out", str(out)]
        )
        assert rc == 0
        assert out.read_bytes() == served_mappings[heuristic]

    def test_mapping_bytes_are_canonical(self, served_mappings):
        for payload in served_mappings.values():
            assert payload == canonical_json_bytes(json.loads(payload))


# ---------------------------------------------------------------------------
# the daemon process: boot, serve, SIGTERM drain


class TestDaemonProcess:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0", "--jobs", "1"],
            cwd="/root/repo",
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, line
            base = line.split("listening on ", 1)[1].split()[0].rstrip("/")
            status, _, body = _post(
                base, "/v1/scenarios", {"generate": {"n_tasks": 12, "seed": 1}}
            )
            assert status == 201
            sid = json.loads(body)["id"]
            status, _, mapping = _post(base, "/v1/map", {"scenario": sid})
            assert status == 200 and json.loads(mapping)["kind"] == "mapping"
            status, _, body = _get(base, "/metrics")
            assert status == 200 and json.loads(body)["counters"]
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        except BaseException:
            proc.kill()
            raise
        assert proc.returncode == 0, out
        assert "drained" in out and "1 jobs completed" in out


# ---------------------------------------------------------------------------
# load generator


class TestLoadgen:
    def test_run_loadgen_self_hosted(self, tmp_path):
        from repro.service.loadgen import main as loadgen_main

        out = tmp_path / "bench" / "BENCH_service.json"
        rc = loadgen_main(
            ["--clients", "1,2", "--requests", "2", "--n-tasks", "12",
             "--seed", "1", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.bench.service/1"
        assert [lvl["clients"] for lvl in doc["levels"]] == [1, 2]
        for lvl in doc["levels"]:
            assert lvl["errors"] == 0
            assert lvl["requests"] == lvl["clients"] * 2
            assert lvl["throughput_rps"] > 0
            lat = lvl["latency_seconds"]
            assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"]
        after = doc["metrics_after"]
        assert after["counters"]["service.completed"] == 6.0
        assert "service.request_seconds" in after["histograms"]
