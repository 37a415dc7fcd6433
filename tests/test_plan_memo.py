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

import pytest

from repro.baselines.maxmax import MaxMaxConfig, MaxMaxScheduler
from repro.baselines.minmin import MinMinScheduler
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
            _assert_identical(*_map_both(build, mid_weights, scenario, monkeypatch))

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
        schedule, memo, root = setup
        pair = memo.plan_versions(root, 0)
        schedule.exec_timeline[0].reserve(pair[0].start, pair[0].finish)
        again = memo.plan_versions(root, 0)
        assert again is not pair
        assert again == schedule.plan_versions(root, 0, 0.0, insertion=True)

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
