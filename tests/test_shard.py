"""The shard layer (:mod:`repro.service.shard`, the sharded
:class:`~repro.service.jobs.ShardRouter`): process-resident shard RPC,
affine routing, crash semantics, global admission under concurrency, the
per-shard scenario LRU, and the byte-identity contract across shard
counts, heuristics and kernel modes."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.heuristics import HEURISTIC_NAMES, generate_named_scenario
from repro.io.serialization import (
    canonical_json_bytes,
    mapping_to_dict,
    scenario_to_dict,
)
from repro.service.jobs import QueueFullError, ShardRouter
from repro.service.registry import ScenarioRegistry
from repro.service.shard import InlineShard, ProcessShard
from repro.service.worker import (
    DEFAULT_SCENARIO_CACHE,
    _ScenarioCache,
    configure_scenario_cache,
    scenario_cache_limit,
    shard_main,
)
from repro.util.parallel import ShardCrashedError, ShardProcess, resolve_shards


def _scenario_doc(n_tasks=12, seed=3) -> dict:
    return scenario_to_dict(generate_named_scenario(n_tasks, seed))


@pytest.fixture
def fresh_cache_config():
    """Reset the process-wide scenario-cache override around a test."""
    yield
    configure_scenario_cache(None)


# ---------------------------------------------------------------------------
# shard-count resolution


class TestResolveShards:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert resolve_shards(None) == 1

    def test_env_and_explicit(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "3")
        assert resolve_shards(None) == 3
        assert resolve_shards(2) == 2  # explicit beats the environment
        assert resolve_shards("4") == 4

    def test_auto_uses_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        import os

        assert resolve_shards("auto") == (os.cpu_count() or 1)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            resolve_shards("many")
        with pytest.raises(ValueError):
            resolve_shards(0)


# ---------------------------------------------------------------------------
# the shard process RPC primitive


class TestShardProcess:
    def test_ping_roundtrip_and_stop(self):
        proc = ShardProcess(shard_main, index=5)
        proc.start()
        try:
            assert proc.alive() and proc.pid is not None
            status, reply = proc.call("ping")
            assert status == "ok"
            assert reply["pid"] == proc.pid
            assert reply["sessions"] == 0
        finally:
            proc.stop()
        assert not proc.alive()

    def test_crash_raises_instead_of_hanging(self):
        proc = ShardProcess(shard_main, index=0)
        proc.start()
        try:
            with pytest.raises(ShardCrashedError):
                proc.call("exit", 3)  # os._exit in the child; no reply
            assert not proc.alive()
            # Every subsequent call fails fast too.
            with pytest.raises(ShardCrashedError):
                proc.call("ping")
        finally:
            proc.stop()

    def test_start_is_idempotent(self):
        proc = ShardProcess(shard_main, index=0)
        proc.start()
        try:
            pid = proc.pid
            proc.start()
            assert proc.pid == pid
        finally:
            proc.stop()


# ---------------------------------------------------------------------------
# affine routing


class TestAffineRouting:
    def test_shard_of_is_digest_modulo(self):
        reg = ScenarioRegistry()
        manager = ShardRouter(reg, shards=4)
        sid, _ = reg.put(_scenario_doc())
        digest = int(sid.split(":", 1)[1], 16)
        assert manager.shard_of(sid) == digest % 4
        assert manager.shard_for(sid) is manager.shards[digest % 4]
        manager.close(drain_timeout=0)

    def test_same_scenario_always_same_shard(self):
        reg = ScenarioRegistry()
        manager = ShardRouter(reg, shards=4, max_queue=64).start()
        try:
            sid, _ = reg.put(_scenario_doc())
            jobs = [manager.submit(sid, "greedy") for _ in range(6)]
            for job in jobs:
                assert job.done.wait(timeout=120)
            assert len({job.shard for job in jobs}) == 1
            assert {job.state for job in jobs} == {"succeeded"}
        finally:
            manager.close(drain_timeout=0)

    def test_sessions_round_robin_over_shards(self):
        manager = ShardRouter(ScenarioRegistry(), shards=3)
        try:
            assert manager.session_shard(1) is manager.shards[1]
            assert manager.session_shard(3) is manager.shards[0]
            assert manager.session_shard(5) is manager.shards[2]
        finally:
            manager.close(drain_timeout=0)


# ---------------------------------------------------------------------------
# the byte-identity contract: shard counts are invisible in the output


class TestShardCountInvariance:
    def _mappings(self, n_shards: int, heuristics) -> dict[str, bytes]:
        reg = ScenarioRegistry()
        sid, _ = reg.put(_scenario_doc(16, 7))
        manager = ShardRouter(reg, shards=n_shards, max_queue=64).start()
        try:
            jobs = {h: manager.submit(sid, h) for h in heuristics}
            out = {}
            for name, job in jobs.items():
                assert job.done.wait(timeout=120), name
                assert job.state == "succeeded", (name, job.error)
                out[name] = job.mapping_bytes
            return out
        finally:
            manager.close(drain_timeout=0)

    def test_all_heuristics_identical_at_1_2_4_shards(self):
        baseline = self._mappings(1, HEURISTIC_NAMES)
        for n_shards in (2, 4):
            sharded = self._mappings(n_shards, HEURISTIC_NAMES)
            for name in HEURISTIC_NAMES:
                assert sharded[name] == baseline[name], (n_shards, name)

    @pytest.mark.parametrize("kernel", ["columnar", "incremental", "rebuild"])
    def test_kernel_modes_identical_across_shard_counts(self, kernel, monkeypatch):
        # Shard children inherit the environment through fork, so the
        # kernel mode pins itself in every process the same way.
        monkeypatch.setenv("REPRO_KERNEL", kernel)
        heuristics = ("slrh1", "slrh3")
        baseline = self._mappings(1, heuristics)
        sharded = self._mappings(4, heuristics)
        assert sharded == baseline


# ---------------------------------------------------------------------------
# crash semantics: a dead shard fails fast and is visible


class TestCrashSemantics:
    def test_dead_shard_fails_jobs_and_healthz(self):
        reg = ScenarioRegistry()
        sid, _ = reg.put(_scenario_doc())
        manager = ShardRouter(reg, shards=2, max_queue=8).start()
        try:
            victim = manager.shard_for(sid)
            other = manager.shards[1 - victim.index]
            with pytest.raises(ShardCrashedError):
                victim.backend._proc.call("exit", 7)
            # The job routed at the dead shard fails — it does not hang.
            job = manager.submit(sid, "greedy")
            assert job.done.wait(timeout=120)
            assert job.state == "failed"
            assert "ShardCrashedError" in (job.error or "")
            # Liveness is per shard, and one dead shard degrades the lot.
            health = manager.health_doc()
            assert health["healthy"] is False
            by_index = {s["shard"]: s for s in health["shards"]}
            assert by_index[victim.index]["alive"] is False
            assert by_index[other.index]["alive"] is True
            assert manager.perf.get("service.failed") == 1
        finally:
            manager.close(drain_timeout=0)

    def test_healthz_503_over_http_when_a_shard_dies(self):
        from repro.service.app import make_server

        reg = ScenarioRegistry()
        manager = ShardRouter(reg, shards=2, max_queue=8)
        server = make_server("127.0.0.1", 0, manager)
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with urllib.request.urlopen(base + "/healthz", timeout=30) as resp:
                doc = json.loads(resp.read())
            assert resp.status == 200 and doc["status"] == "ok"
            assert len(doc["shards"]) == 2
            for entry in doc["shards"]:
                assert entry["alive"] is True
                assert isinstance(entry["pid"], int)
                assert entry["queue_depth"] == 0
            with pytest.raises(ShardCrashedError):
                manager.shards[0].backend._proc.call("exit", 1)
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(base + "/healthz", timeout=30)
            assert exc_info.value.code == 503
            doc = json.loads(exc_info.value.read())
            assert doc["status"] == "degraded"
            assert any(not s["alive"] for s in doc["shards"])
        finally:
            server.shutdown()
            thread.join(timeout=10)
            server.server_close()
            manager.close(drain_timeout=0)


# ---------------------------------------------------------------------------
# global admission under concurrency (the hammer)


class TestConcurrentAdmission:
    def test_full_queue_hammered_from_many_threads(self):
        """Hammer one shard's full queue from 12 threads: exactly
        ``max_queue`` jobs are admitted, every rejection carries a
        coherent Retry-After, and each admitted job executes exactly
        once."""
        reg = ScenarioRegistry()
        sid, _ = reg.put(_scenario_doc())
        max_queue = 4
        # Not started: nothing drains the queue while the hammer runs,
        # so the admission arithmetic is exact.
        manager = ShardRouter(reg, shards=1, max_queue=max_queue)
        admitted: list = []
        rejections: list[QueueFullError] = []
        lock = threading.Lock()
        barrier = threading.Barrier(12)

        def hammer() -> None:
            barrier.wait()
            for _ in range(3):
                try:
                    job = manager.submit(sid, "greedy")
                except QueueFullError as exc:
                    with lock:
                        rejections.append(exc)
                else:
                    with lock:
                        admitted.append(job)

        threads = [threading.Thread(target=hammer) for _ in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(admitted) == max_queue
        assert len(rejections) == 12 * 3 - max_queue
        assert len({job.id for job in admitted}) == max_queue  # no id reuse
        for exc in rejections:
            assert exc.retry_after >= 1  # coherent backoff hint
            assert exc.depth >= max_queue
        # Now let the shard run: every admitted job executes exactly once
        # and nothing that was rejected ever runs.
        manager.start()
        try:
            for job in admitted:
                assert job.done.wait(timeout=120)
                assert job.state == "succeeded"
            assert manager.perf.get("service.submitted") == max_queue
            assert manager.perf.get("service.completed") == max_queue
            assert manager.perf.get("service.rejected") == len(rejections)
        finally:
            manager.close(drain_timeout=0)


# ---------------------------------------------------------------------------
# the per-shard scenario LRU


class TestScenarioCache:
    def test_configure_parses_and_validates(self, fresh_cache_config):
        assert configure_scenario_cache("3") == 3
        assert scenario_cache_limit() == 3
        with pytest.raises(ValueError):
            configure_scenario_cache(0)
        with pytest.raises(ValueError):
            configure_scenario_cache("lots")
        assert configure_scenario_cache(None) is None

    def test_env_fallback(self, fresh_cache_config, monkeypatch):
        configure_scenario_cache(None)
        monkeypatch.setenv("REPRO_SCENARIO_CACHE", "5")
        assert scenario_cache_limit() == 5
        monkeypatch.setenv("REPRO_SCENARIO_CACHE", "0")
        with pytest.raises(ValueError):
            scenario_cache_limit()
        monkeypatch.delenv("REPRO_SCENARIO_CACHE")
        assert scenario_cache_limit() == DEFAULT_SCENARIO_CACHE

    def test_lru_evicts_and_reports(self, fresh_cache_config):
        configure_scenario_cache(1)
        cache = _ScenarioCache()
        doc_a, doc_b = _scenario_doc(12, 1), _scenario_doc(12, 2)
        _, stats = cache.get("sha256:a", doc_a)
        assert stats == {"worker.scenario_cache_misses": 1}
        _, stats = cache.get("sha256:a", doc_a)
        assert stats == {"worker.scenario_cache_hits": 1}
        _, stats = cache.get("sha256:b", doc_b)
        assert stats["worker.scenario_cache_evictions"] == 1
        assert len(cache) == 1

    def test_router_rejects_bad_cache_size_eagerly(self, fresh_cache_config):
        with pytest.raises(ValueError):
            ShardRouter(ScenarioRegistry(), shards=1, scenario_cache="0")

    def test_eviction_counter_reaches_metrics(self, fresh_cache_config):
        reg = ScenarioRegistry()
        a, _ = reg.put(_scenario_doc(12, 1))
        b, _ = reg.put(_scenario_doc(12, 2))
        manager = ShardRouter(reg, shards=1, scenario_cache=1, max_queue=16)
        manager.start()
        try:
            for sid in (a, b, a, b):
                job = manager.submit(sid, "greedy")
                assert job.done.wait(timeout=120)
                assert job.state == "succeeded"
            # Alternating two scenarios through a 1-deep LRU must evict.
            assert manager.perf.get("worker.scenario_cache_evictions") >= 2
            metrics = manager.metrics_document()
            assert metrics["counters"]["shard0.cache_evictions"] >= 2
            assert metrics["counters"]["worker.scenario_cache_misses"] >= 3
        finally:
            manager.close(drain_timeout=0)


# ---------------------------------------------------------------------------
# shard-hosted sessions


class TestShardedSessions:
    def test_session_on_process_shard_matches_offline_replay(self):
        from repro.core.objective import Weights
        from repro.heuristics import make_scheduler
        from repro.service.sessions import SessionManager
        from repro.session import run_with_events, synthesize_events

        reg = ScenarioRegistry()
        scenario = generate_named_scenario(24, 7)
        sid, _ = reg.put(scenario_to_dict(scenario))
        manager = ShardRouter(reg, shards=2, max_queue=8).start()
        sessions = SessionManager(reg, perf=manager.perf, router=manager)
        try:
            held, events = synthesize_events(
                scenario, seed=11, n_events=14, max_cycle=60
            )
            session = sessions.open(
                {"scenario": sid, "heuristic": "slrh1", "pending": list(held)}
            )
            # sess-00000001 -> shard 1 of 2: a real child process.
            assert session.backend is manager.shards[1].backend
            assert isinstance(session.backend, ProcessShard)
            lines: list[bytes] = []
            for start in range(0, len(events), 5):
                lines.extend(session.stream(events[start : start + 5]))
            assert session.is_closed()
            oracle = run_with_events(
                scenario,
                make_scheduler("slrh1", Weights.from_alpha_beta(0.5, 0.2)),
                events,
                pending=held,
            )
            want = canonical_json_bytes(mapping_to_dict(oracle.final.schedule))
            assert session.result_bytes() == want
            status = session.status_doc()
            assert status["state"] == "closed"
            assert status["n_events"] == len(events)
        finally:
            manager.close(drain_timeout=0)

    def test_crashed_shard_session_yields_error_record(self):
        from repro.service.sessions import SessionManager
        from repro.session import SessionEvent, synthesize_events

        reg = ScenarioRegistry()
        scenario = generate_named_scenario(16, 3)
        sid, _ = reg.put(scenario_to_dict(scenario))
        manager = ShardRouter(reg, shards=2, max_queue=8).start()
        sessions = SessionManager(reg, perf=manager.perf, router=manager)
        try:
            _, events = synthesize_events(
                scenario, seed=5, n_events=6, max_cycle=40
            )
            session = sessions.open({"scenario": sid, "heuristic": "greedy"})
            backend = session.backend
            assert isinstance(backend, ProcessShard)
            with pytest.raises(ShardCrashedError):
                backend._proc.call("exit", 2)
            lines = list(session.stream(events))
            assert len(lines) == 1
            record = json.loads(lines[0])
            assert record["record"] == "error"
            assert manager.perf.get("session.event_errors") == 1
        finally:
            manager.close(drain_timeout=0)


# ---------------------------------------------------------------------------
# shard backends directly


class TestShardBackends:
    def test_inline_shard_runs_jobs_in_process(self):
        import os

        reg = ScenarioRegistry()
        sid, _ = reg.put(_scenario_doc())
        shard = InlineShard(0)
        assert shard.alive() and shard.pid == os.getpid()
        outcome = shard.run_job(sid, reg.get_doc(sid), "greedy", None, None)
        assert outcome["summary"]["n_tasks"] == 12
        assert shard.heartbeat_age() == 0.0

    def test_process_shard_ships_each_doc_once(self):
        reg = ScenarioRegistry()
        sid, _ = reg.put(_scenario_doc())
        doc = reg.get_doc(sid)
        shard = ProcessShard(0).start()
        try:
            first = shard.run_job(sid, doc, "greedy", None, None)
            second = shard.run_job(sid, doc, "greedy", None, None)
            assert first["mapping_bytes"] == second["mapping_bytes"]
            # Second run hit the child's deserialised-scenario LRU.
            assert second["perf"].get("worker.scenario_cache_hits") == 1
            assert shard._doc_to_ship(sid, doc) is None  # already shipped
        finally:
            shard.stop()

    def test_process_shard_maps_child_errors_to_builtins(self):
        shard = ProcessShard(0).start()
        try:
            with pytest.raises(KeyError):
                shard.session_events("sess-nope", [])
        finally:
            shard.stop()
