"""Fast tests of the benchmark itself (tiny scenarios, short runs).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from harness import Checker, Client, Daemon, sha256
from workloads import WORKLOADS, LiveGridWorkload, PaperWorkload, ServiceWorkload

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT, seconds: float = 2.0):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", str(seconds), "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_reference_digest_counts_as_failure(tmp_path):
    w = PaperWorkload(seed=5, trace=False, tiny=True)
    w.prepare(1.0)
    daemon = Daemon(ROOT, tmp_path / "daemon.log")
    port = daemon.start()
    try:
        client = Client(port)
        w.setup(client)
        client.close()
        w.expected[(1, "slrh2")] = sha256(b"not the mapping")
        w.drive(port, 2.0)
    finally:
        daemon.stop()
    checker = w.conns[0].checker
    assert checker.mismatches >= 1
    assert checker.failed == checker.mismatches
    assert not checker.correct


def test_deferred_reply_with_wrong_reference_is_a_mismatch():
    checker = Checker()
    checker.defer("a", b"reply a")
    checker.defer("b", b"reply b")
    checker.resolve({"a": sha256(b"reply a"), "b": sha256(b"other")})
    assert (checker.mismatches, checker.failed, checker.correct) == (1, 1, False)


def test_unresolved_deferred_reply_is_not_correct():
    checker = Checker()
    checker.defer("a", b"reply a")
    assert not checker.correct


@pytest.mark.parametrize("cls", [PaperWorkload, ServiceWorkload, LiveGridWorkload])
def test_seed_decides_the_inputs(cls):
    def inputs(seed):
        w = cls(seed=seed, trace=False, tiny=True)
        w.prepare(1.0)
        if isinstance(w, PaperWorkload):
            sequence = w.order()
            return [next(sequence) for _ in range(16)]
        if isinstance(w, ServiceWorkload):
            return w.hot_docs, [doc for pool in w.cold for _, doc in pool]
        return [s[2] for s in w.streams]

    assert inputs(1) == inputs(1)
    assert inputs(1) != inputs(2)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("service-16", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
