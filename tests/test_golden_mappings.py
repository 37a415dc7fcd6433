"""Golden mapping digests: pin the exact mapping bytes of every registry
heuristic, and of streamed sessions, against recorded SHA-256 digests.

``tests/golden/mapping_digests.json`` was recorded before the plan cache
was removed; planning changes that are meant to be pure refactors (caches,
memos, kernel modes) must leave every digest untouched.  A digest that
moves means a mapping changed — regenerate the file only for an intended
algorithm change, and say so.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.heuristics import (
    HEURISTIC_NAMES,
    generate_named_scenario,
    make_scheduler,
    run_heuristic,
)
from repro.io.serialization import canonical_mapping_bytes
from repro.session import SessionEvent, run_with_events, synthesize_events

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "mapping_digests.json").read_text()
)
N_TASKS = 240


def _digest(schedule) -> str:
    return hashlib.sha256(canonical_mapping_bytes(schedule)).hexdigest()


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", HEURISTIC_NAMES)
def test_heuristic_digest(name, seed):
    scenario = generate_named_scenario(N_TASKS, seed)
    got = _digest(run_heuristic(name, scenario).schedule)
    assert got == GOLDEN["heuristics"][f"{name}/{N_TASKS}/{seed}"]


def test_slrh_session_digest():
    """A streamed SLRH-1 session: held arrivals, losses and rejoins."""
    scenario = generate_named_scenario(N_TASKS, 1)
    held, events = synthesize_events(scenario, seed=5, n_events=40, max_cycle=60)
    outcome = run_with_events(scenario, make_scheduler("slrh1"), events, pending=held)
    got = _digest(outcome.final.schedule)
    assert got == GOLDEN["sessions"][f"slrh1/{N_TASKS}/1/events5"]


@pytest.mark.parametrize("name", ["maxmax", "minmin"])
def test_static_session_digest(name):
    """A static session's final-state mapping with machine 1 offline."""
    scenario = generate_named_scenario(N_TASKS, 1)
    events = [
        SessionEvent(kind="machine_loss", cycle=5, machine=1),
        SessionEvent(kind="close", cycle=10),
    ]
    outcome = run_with_events(scenario, make_scheduler(name), events)
    got = _digest(outcome.final.schedule)
    assert got == GOLDEN["sessions"][f"{name}/{N_TASKS}/1/loss1"]
