"""Static-round plan memo: memoised and from-scratch planning must be
indistinguishable.

:class:`repro.sim.schedule.StaticPlanMemo` hands Max-Max and Min-Min a
stored (task, machine) plan pair only after re-checking every fact the
pair depends on.  The differential tests run each static heuristic twice —
once as shipped, once with the memo's validity check patched to always
miss, so every lookup re-plans — and require identical mappings.  The unit
tests break one invariant at a time and require the memo to re-plan.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.baselines.maxmax import MaxMaxConfig, MaxMaxScheduler
from repro.baselines.minmin import MinMinScheduler
from repro.heuristics import generate_named_scenario, run_heuristic
from repro.io.serialization import canonical_mapping_bytes
from repro.sim.schedule import Schedule, StaticPlanMemo
from repro.sim.validate import validate_schedule
from repro.workload.scenario import paper_scaled_suite
from repro.workload.versions import PRIMARY


def _maxmax(weights, **config):
    return MaxMaxScheduler(MaxMaxConfig(weights=weights, **config))


STATIC = [
    pytest.param(lambda w: _maxmax(w), id="Max-Max"),
    pytest.param(lambda w: _maxmax(w, insertion=False), id="Max-Max-append"),
    pytest.param(
        lambda w: _maxmax(w, machine_stage="objective"), id="Max-Max-objective"
    ),
    pytest.param(lambda w: MinMinScheduler(), id="Min-Min"),
    pytest.param(lambda w: MinMinScheduler(insertion=False), id="Min-Min-append"),
]


def _map_both(build, weights, scenario, monkeypatch, partial=None):
    """(memoised result, always-miss result) for one heuristic; *partial*
    builds the starting schedule (defaults to an empty one)."""
    make = partial or (lambda: Schedule(scenario))
    memo = build(weights).map(scenario, schedule=make())
    with monkeypatch.context() as m:
        m.setattr(StaticPlanMemo, "_valid", lambda self, *a: False)
        fresh = build(weights).map(scenario, schedule=make())
    return memo, fresh


def _assert_identical(res_memo, res_fresh):
    assert res_memo.schedule.assignments == res_fresh.schedule.assignments
    assert canonical_mapping_bytes(res_memo.schedule) == canonical_mapping_bytes(
        res_fresh.schedule
    )
    validate_schedule(res_memo.schedule)


class TestDifferential:
    @pytest.mark.parametrize("case", ["A", "C"])
    @pytest.mark.parametrize("build", STATIC)
    def test_memo_matches_always_miss(self, build, case, mid_weights, monkeypatch):
        suite = paper_scaled_suite(40, n_etc=2, n_dag=1, seed=99)
        for e in range(suite.n_etc):
            scenario = suite.scenario(e, 0, case)
            memo, fresh = _map_both(build, mid_weights, scenario, monkeypatch)
            _assert_identical(memo, fresh)
            # The always-miss arm plans every lookup afresh, re-place
            # verdicts included.
            assert fresh.perf.get("plan.replacements", 0.0) == 0.0

    @pytest.mark.parametrize("build", STATIC)
    def test_partial_session_schedule_with_machine_offline(
        self, build, small_scenario, mid_weights, monkeypatch
    ):
        """The session engine's final-state mapping: some tasks already
        committed, one machine gone from the grid."""

        def partial():
            schedule = Schedule(small_scenario)
            for task in schedule.ready_sorted()[:3]:
                schedule.commit(schedule.plan(task, PRIMARY, 0))
            schedule.set_offline(1)
            return schedule

        memo, fresh = _map_both(
            build, mid_weights, small_scenario, monkeypatch, partial
        )
        _assert_identical(memo, fresh)
        assert all(
            a.machine != 1
            for t, a in memo.schedule.assignments.items()
            if t not in partial().assignments
        )

    def test_memo_plans_fewer_pairs(self, small_scenario, mid_weights, monkeypatch):
        memo, fresh = _map_both(
            STATIC[0].values[0], mid_weights, small_scenario, monkeypatch
        )
        assert memo.perf["plan.pairs"] < fresh.perf["plan.pairs"]
        assert memo.perf["plan.replacements"] > 0


class TestRecordedScans:
    """Max-Max's hoisted rule-(b) gate must leave the scan count and every
    round's candidate count as the per-call feasibility check had them
    (recorded on ``maxmax/240/1`` before the gate was hoisted)."""

    MACHINE_SCANS = 10368
    POOL_SIZES = [
        120, 120, 112, 120, 112, 104, 96, 88, 80, 72, 64, 64, 64, 56, 48, 48,
        40, 40, 40, 32, 32, 32, 48, 48, 40, 32, 24, 24, 64, 80, 72, 64, 56, 72,
        64, 56, 72, 64, 72, 64, 56, 48, 56, 48, 40, 40, 32, 24, 32, 24, 16, 8,
        16, 8, 8, 8, 40, 32, 24, 32, 24, 40, 32, 24, 16, 32, 32, 24, 24, 16, 8,
        48, 56, 56, 48, 40, 32, 32, 24, 16, 32, 32, 40, 48, 40, 40, 40, 40, 32,
        56, 48, 48, 40, 48, 48, 40, 48, 56, 48, 40, 32, 24, 40, 40, 32, 24, 24,
        32, 48, 56, 48, 40, 32, 48, 48, 40, 48, 40, 40, 40, 32, 24, 32, 24, 16,
        8, 40, 40, 32, 24, 32, 24, 16, 16, 8, 8, 104, 96, 88, 80, 72, 96, 88,
        88, 80, 80, 72, 64, 72, 64, 56, 56, 48, 48, 40, 40, 32, 24, 16, 32, 24,
        40, 32, 48, 40, 32, 40, 32, 32, 32, 32, 40, 32, 24, 24, 16, 16, 24, 24,
        16, 16, 40, 48, 40, 48, 48, 48, 40, 32, 24, 32, 72, 80, 72, 64, 56, 48,
        56, 48, 48, 48, 48, 40, 32, 56, 48, 48, 56, 56, 56, 56, 48, 48, 40, 32,
        40, 32, 24, 24, 32, 32, 40, 32, 23, 15, 7, 24, 32, 53, 54, 45, 35, 27,
        28, 27, 21, 13, 7, 11, 5,
    ]

    def test_maxmax_240_seed1(self):
        result = run_heuristic("maxmax", generate_named_scenario(240, 1))
        assert result.trace.machine_scans == self.MACHINE_SCANS
        assert [r.pool_size for r in result.trace.records] == self.POOL_SIZES


@pytest.mark.parametrize(
    "seed, digest",
    [
        (1, "d6c1575373440455c6c44b16558a7c8b64d01bd360d151955fb010819ca874b8"),
        (2, "73feb6d825945d1f5bf114fad9c61e6be4ab5409d272c6bd0bf665f92a5729ab"),
    ],
    ids=["seed1", "seed2"],
)
def test_maxmax_paper_scale_digest(seed, digest):
    """Max-Max at |T| = 1024 on the perfbench scenarios, where the memo's
    re-place verdict does most of its work: the mapping bytes recorded
    before re-placement existed."""
    result = run_heuristic("maxmax", generate_named_scenario(1024, seed))
    assert hashlib.sha256(canonical_mapping_bytes(result.schedule)).hexdigest() == digest
    assert result.perf["plan.replacements"] > 0


class TestLookup:
    """Each invariant the memo relies on, broken on its own."""

    @pytest.fixture
    def setup(self, tiny_scenario):
        schedule = Schedule(tiny_scenario)
        root = tiny_scenario.dag.roots[0]
        return schedule, StaticPlanMemo(schedule, insertion=True), root

    def test_unchanged_state_hits(self, setup):
        schedule, memo, root = setup
        pair = memo.plan_versions(root, 0)
        assert memo.plan_versions(root, 0) is pair
        assert pair == schedule.plan_versions(root, 0, 0.0, insertion=True)

    def test_taken_exec_slot_replans(self, setup):
        """Only the exec slot moved: the stored comms, data-ready time and
        demands are kept and the slot is searched again — a re-place,
        not a fresh plan."""
        schedule, memo, root = setup
        pair = memo.plan_versions(root, 0)
        schedule.exec_timeline[0].reserve(pair[0].start, pair[0].finish)
        perf = schedule.perf
        pairs, replaced = perf.get("plan.pairs"), perf.get("plan.replacements")
        again = memo.plan_versions(root, 0)
        assert perf.get("plan.pairs") == pairs
        assert perf.get("plan.replacements") == replaced + 1
        assert again is not pair
        assert again[0].start >= pair[0].finish
        assert again == schedule.plan_versions(root, 0, 0.0, insertion=True)
        assert memo.plan_versions(root, 0) is again

    def test_taken_exec_and_channel_slots_replan(self, tiny_scenario):
        """A taken transfer slot moves the data-ready time, so it is a
        fresh plan even when the exec slot was taken as well."""
        schedule = Schedule(tiny_scenario)
        memo = StaticPlanMemo(schedule, insertion=True)
        root = tiny_scenario.dag.roots[0]
        child = next(
            c for c in tiny_scenario.dag.children[root]
            if tiny_scenario.dag.parents[c] == (root,)
        )
        schedule.commit(schedule.plan(root, PRIMARY, 0))
        pair = memo.plan_versions(child, 1)
        (comm,) = pair[0].comms
        schedule.in_channel[1].reserve(comm.start, comm.finish)
        schedule.exec_timeline[1].reserve(pair[0].start, pair[0].finish)
        perf = schedule.perf
        pairs, replaced = perf.get("plan.pairs"), perf.get("plan.replacements")
        again = memo.plan_versions(child, 1)
        assert perf.get("plan.pairs") == pairs + 1
        assert perf.get("plan.replacements") == replaced
        assert again[0].comms[0].start >= comm.finish
        assert again == schedule.plan_versions(child, 1, 0.0, insertion=True)

    def test_append_only_taken_slot_replans(self, tiny_scenario):
        schedule = Schedule(tiny_scenario)
        memo = StaticPlanMemo(schedule, insertion=False)
        root = tiny_scenario.dag.roots[0]
        pair = memo.plan_versions(root, 0)
        schedule.exec_timeline[0].reserve(pair[0].start, pair[0].finish)
        perf = schedule.perf
        pairs = perf.get("plan.pairs")
        again = memo.plan_versions(root, 0)
        assert perf.get("plan.pairs") == pairs + 1
        assert perf.get("plan.replacements") == 0.0
        assert again == schedule.plan_versions(root, 0, 0.0, insertion=False)

    def test_reservation_elsewhere_keeps_hit(self, setup):
        schedule, memo, root = setup
        pair = memo.plan_versions(root, 0)
        end = max(p.finish for p in pair)
        schedule.exec_timeline[0].reserve(end + 1.0, end + 2.0)
        assert memo.plan_versions(root, 0) is pair

    def test_append_only_needs_unchanged_calendar(self, tiny_scenario):
        schedule = Schedule(tiny_scenario)
        memo = StaticPlanMemo(schedule, insertion=False)
        root = tiny_scenario.dag.roots[0]
        pair = memo.plan_versions(root, 0)
        end = max(p.finish for p in pair)
        schedule.exec_timeline[0].reserve(end + 1.0, end + 2.0)
        again = memo.plan_versions(root, 0)
        assert again is not pair
        assert again == schedule.plan_versions(root, 0, 0.0, insertion=False)

    def test_release_replans(self, setup):
        schedule, memo, root = setup
        pair = memo.plan_versions(root, 0)
        end = max(p.finish for p in pair)
        schedule.exec_timeline[0].reserve(end + 1.0, end + 2.0)
        schedule.exec_timeline[0].release(end + 1.0, end + 2.0)
        assert memo.plan_versions(root, 0) is not pair

    def test_moved_release_replans(self, setup):
        schedule, memo, root = setup
        memo.plan_versions(root, 0)
        schedule.set_release(root, 50.0)
        again = memo.plan_versions(root, 0)
        assert again[0].data_ready == 50.0
        assert again == schedule.plan_versions(root, 0, 0.0, insertion=True)

    def test_offline_machine_replans(self, setup):
        schedule, memo, root = setup
        pair = memo.plan_versions(root, 0)
        schedule.set_offline(0)
        again = memo.plan_versions(root, 0)
        assert again is not pair and not again[0].feasible

    def test_drained_budget_replans(self, setup):
        schedule, memo, root = setup
        pair = memo.plan_versions(root, 0)
        schedule.debit_external(0, schedule.available_energy(0))
        again = memo.plan_versions(root, 0)
        assert again is not pair and not again[0].feasible

    def test_parent_commit_replans(self, tiny_scenario):
        schedule = Schedule(tiny_scenario)
        memo = StaticPlanMemo(schedule, insertion=True)
        root, other = tiny_scenario.dag.roots[:2]
        child = next(
            c for c in tiny_scenario.dag.children[root]
            if tiny_scenario.dag.parents[c] == (root,)
        )
        schedule.commit(schedule.plan(root, PRIMARY, 0))
        pair = memo.plan_versions(child, 1)
        # A commit that is not the child's parent leaves its pair valid...
        schedule.commit(schedule.plan(other, PRIMARY, 2))
        assert memo.plan_versions(child, 1) == schedule.plan_versions(
            child, 1, 0.0, insertion=True
        )
        # ...rolling its parent back and re-committing it elsewhere does not.
        schedule.unassign(root)
        schedule.commit(schedule.plan(root, PRIMARY, 2))
        again = memo.plan_versions(child, 1)
        assert again is not pair
        assert again == schedule.plan_versions(child, 1, 0.0, insertion=True)

    def test_freed_channel_slot_replans(self, tiny_scenario):
        """A released channel interval can open an earlier transfer slot."""
        schedule = Schedule(tiny_scenario)
        memo = StaticPlanMemo(schedule, insertion=True)
        root = tiny_scenario.dag.roots[0]
        child = next(
            c for c in tiny_scenario.dag.children[root]
            if tiny_scenario.dag.parents[c] == (root,)
        )
        done = schedule.commit(schedule.plan(root, PRIMARY, 0))
        blocker = (done.finish, done.finish + 1000.0)
        schedule.in_channel[1].reserve(*blocker)
        pair = memo.plan_versions(child, 1)
        assert pair[0].comms and pair[0].comms[0].start >= blocker[1]
        schedule.in_channel[1].release(*blocker)
        again = memo.plan_versions(child, 1)
        assert again == schedule.plan_versions(child, 1, 0.0, insertion=True)
        assert again[0].comms[0].start < blocker[1]

    def test_mapped_tasks_are_forgotten(self, tiny_scenario):
        schedule = Schedule(tiny_scenario)
        memo = StaticPlanMemo(schedule, insertion=True)
        root, other = tiny_scenario.dag.roots[:2]
        memo.plan_versions(root, 0)
        memo.plan_versions(other, 0)
        schedule.commit(schedule.plan(root, PRIMARY, 0))
        memo.plan_versions(other, 1)
        assert set(memo._entries) == {other}
