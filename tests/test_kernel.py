"""The scheduling kernel: mode resolution, pool-delta equivalence, and the
byte-identity differential between the columnar and rebuild modes.

The maintained candidate pool is an optimisation with a proof obligation:
for every heuristic, under any event sequence, the mapping it produces
must be byte-identical to the from-scratch rebuild path (the differential
oracle, ``REPRO_KERNEL=rebuild``).  These tests pin that obligation three
ways — a Hypothesis property test equating :meth:`ColumnarPool.pool_for`
with :func:`build_candidate_pool` (and its wake-up hint and counters with
what the schedule implies) under random commit/advance/churn
interleavings, whole-mapping byte identity for all six registry
heuristics, and a churn replay driven through one persistent kernel.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import ColumnarPool
from repro.core.constants import EPSILON
from repro.core.feasibility import FeasibilityChecker
from repro.core.kernel import (
    KERNEL_MODES,
    SchedulingKernel,
    TickPolicy,
    resolve_kernel_mode,
)
from repro.core.objective import ObjectiveFunction, Weights
from repro.core.pool import build_candidate_pool
from repro.core.slrh import SLRH1, SLRH2, SLRH3, SlrhConfig
from repro.heuristics import HEURISTIC_NAMES, run_heuristic
from repro.io.serialization import canonical_mapping_bytes
from repro.sim.churn import ChurnEvent, run_with_churn
from repro.sim.clock import SimulationClock
from repro.sim.schedule import Schedule
from repro.workload.scenario import (
    generate_scenario,
    paper_scaled_grid,
    paper_scaled_spec,
)

_WEIGHTS = Weights.from_alpha_beta(0.5, 0.2)
_SCENARIOS = {}


def _scenario(n: int, seed: int):
    key = (n, seed)
    if key not in _SCENARIOS:
        _SCENARIOS[key] = generate_scenario(
            paper_scaled_spec(n), grid=paper_scaled_grid(n), seed=seed
        )
    return _SCENARIOS[key]


class TestModeResolution:
    def test_default_is_columnar(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert resolve_kernel_mode() == "columnar"

    def test_env_selects_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "rebuild")
        assert resolve_kernel_mode() == "rebuild"

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "rebuild")
        assert resolve_kernel_mode("columnar") == "columnar"

    @pytest.mark.parametrize(
        "alias,mode",
        [
            ("Rebuild", "rebuild"), (" rebuild ", "rebuild"),
            ("Columnar", "columnar"), (" columnar ", "columnar"),
        ],
    )
    def test_aliases(self, alias, mode):
        assert resolve_kernel_mode(alias) == mode

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown kernel mode"):
            resolve_kernel_mode("bogus")

    @pytest.mark.parametrize("retired", ["incremental", "1", "on", "inc"])
    def test_retired_incremental_spellings_raise(self, retired, monkeypatch):
        """The object-pool mode is gone: its name and old aliases are
        rejected, by argument and by environment, naming the two modes."""
        with pytest.raises(ValueError, match="columnar, rebuild"):
            resolve_kernel_mode(retired)
        monkeypatch.setenv("REPRO_KERNEL", retired)
        with pytest.raises(ValueError, match="unknown kernel mode"):
            resolve_kernel_mode()

    def test_ledger_forces_rebuild(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "columnar")
        assert resolve_kernel_mode("columnar", ledger=True) == "rebuild"

    def test_scheduler_with_ledger_builds_rebuild_kernel(self, tiny_scenario):
        scheduler = SLRH1(
            SlrhConfig(weights=_WEIGHTS, ledger=True, kernel="columnar")
        )
        kernel = scheduler.make_kernel(Schedule(tiny_scenario))
        assert kernel.mode == "rebuild"
        assert kernel.pool is None


class TestConstruction:
    def test_policy_rejects_unknown_refresh(self):
        with pytest.raises(ValueError, match="refresh"):
            TickPolicy(max_commits=1, refresh="sometimes")

    def test_policy_rejects_nonpositive_commits(self):
        with pytest.raises(ValueError, match="max_commits"):
            TickPolicy(max_commits=0, refresh="none")

    def test_kernel_rejects_unknown_mode(self, tiny_scenario):
        schedule = Schedule(tiny_scenario)
        with pytest.raises(ValueError, match="kernel mode"):
            SchedulingKernel(schedule, None, None, mode="bogus")

    def test_kernel_default_mode_is_columnar(self, tiny_scenario):
        scenario = tiny_scenario
        schedule = Schedule(scenario)
        kernel = SchedulingKernel(
            schedule,
            FeasibilityChecker(scenario),
            ObjectiveFunction.for_scenario(scenario, _WEIGHTS),
        )
        assert kernel.mode == "columnar"
        assert isinstance(kernel.pool, ColumnarPool)

    def test_kernel_rejects_unknown_machine_order(self, tiny_scenario):
        schedule = Schedule(tiny_scenario)
        with pytest.raises(ValueError, match="machine_order"):
            SchedulingKernel(schedule, None, None, machine_order="alphabetical")

    def test_modes_constant_covers_all_paths(self):
        assert KERNEL_MODES == ("columnar", "rebuild")

    def test_map_rejects_foreign_kernel(self, tiny_scenario):
        scheduler = SLRH1(SlrhConfig(weights=_WEIGHTS))
        foreign = scheduler.make_kernel(Schedule(tiny_scenario))
        with pytest.raises(ValueError, match="different schedule"):
            scheduler.map(
                tiny_scenario, schedule=Schedule(tiny_scenario), kernel=foreign
            )


def _pool_key(pool):
    """Comparable image of an ordered candidate pool — every field a fresh
    build determines, bit-for-bit."""
    return [
        (
            c.task,
            c.version,
            c.plan.machine,
            c.plan.start,
            c.plan.finish,
            c.plan.data_ready,
            c.plan.energy_delta,
            tuple((x.src, x.dst, x.start, x.finish) for x in c.plan.comms),
            c.score,
        )
        for c in pool
    ]


#: The pool counters a maintained build moves.
_POOL_COUNTERS = ("pool.builds", "pool.reuse_hits", "pool.invalidations", "pool.members")


def _pool_counter_snapshot(schedule):
    perf = schedule.perf.snapshot()
    return tuple(perf.get(key, 0) for key in _POOL_COUNTERS)


def _expected_wake_hint(schedule, nb):
    """The earliest release among ready tasks still outside the release
    gate at *nb* (``None`` when every ready task is released)."""
    held = [
        schedule.release(task)
        for task in schedule.ready_tasks()
        if schedule.release(task) > nb + EPSILON
    ]
    return min(held) if held else None


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5),
    n=st.sampled_from([8, 12, 16]),
    staggered=st.booleans(),
    data=st.data(),
)
def test_maintained_pools_match_rebuild_under_random_events(seed, n, staggered, data):
    """THE kernel property: after any interleaving of commits, clock
    advances, and churn-style invalidations, the maintained columnar pool
    is identical (members, plans, scores, order) to a from-scratch build;
    its wake-up hint is the earliest release among ready, unreleased
    tasks; and each build accounts for every released ready task as
    either a reuse or an invalidation, adding one build and one member per
    pool entry."""
    scenario = _scenario(n, seed)
    if staggered:
        scenario = scenario.with_release_times(
            [(task % 5) * 40.0 + (task % 3) * 0.5 for task in range(n)]
        )
    schedule = Schedule(scenario)
    checker = FeasibilityChecker(scenario)
    objective = ObjectiveFunction.for_scenario(scenario, _WEIGHTS)
    cpool = ColumnarPool(schedule, checker, objective)
    n_machines = scenario.n_machines
    offline: set[int] = set()
    nb = 0.0

    def check(machine: int) -> list:
        released = sum(
            1
            for task in schedule.ready_tasks()
            if schedule.release(task) <= nb + EPSILON
        )
        before = _pool_counter_snapshot(schedule)
        columnar, hint = cpool.pool_for(machine, nb)
        after = _pool_counter_snapshot(schedule)
        oracle = build_candidate_pool(
            schedule, checker, objective, machine, not_before=nb
        )
        assert _pool_key(columnar) == _pool_key(oracle)
        assert hint == _expected_wake_hint(schedule, nb)
        builds, reuse, invalidations, members = (
            a - b for a, b in zip(after, before)
        )
        assert builds == 1
        assert reuse + invalidations == released
        assert members == len(columnar)
        return columnar

    actions = data.draw(
        st.lists(
            st.sampled_from(["query", "commit", "advance", "churn"]),
            min_size=4,
            max_size=14,
        )
    )
    for action in actions:
        online = [j for j in range(n_machines) if j not in offline]
        if action in ("query", "commit") and online:
            machine = data.draw(st.sampled_from(online))
            members = check(machine)
            if action == "commit" and members and not schedule.is_complete:
                plan = members[data.draw(
                    st.integers(min_value=0, max_value=len(members) - 1)
                )].plan
                schedule.commit(plan)
                cpool.note_commit(plan)
        elif action == "advance":
            nb += data.draw(st.floats(min_value=0.5, max_value=400.0))
        elif action == "churn":
            machine = data.draw(st.integers(min_value=0, max_value=n_machines - 1))
            if machine in offline:
                offline.discard(machine)
                schedule.set_offline(machine, False)
            else:
                offline.add(machine)
                schedule.set_offline(machine, True)
            cpool.invalidate_all()
    # Final sweep: every online machine agrees with the oracle.
    for machine in range(n_machines):
        if machine not in offline:
            check(machine)


def _map_with_mode(name: str, scenario, mode: str, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", mode)
    if name in ("minmin", "greedy"):
        return run_heuristic(name, scenario)
    return run_heuristic(name, scenario, 0.5, 0.2)


class TestByteIdentity:
    """Mapping bytes must not depend on the kernel mode — for any registry
    heuristic (the static baselines are mode-blind by construction; the
    SLRH family is where the maintained pool earns its keep)."""

    @pytest.mark.parametrize("name", HEURISTIC_NAMES)
    def test_registry_heuristics_identical_across_modes(
        self, name, small_scenario, monkeypatch
    ):
        results = {
            mode: _map_with_mode(name, small_scenario, mode, monkeypatch)
            for mode in KERNEL_MODES
        }
        oracle = canonical_mapping_bytes(results["rebuild"].schedule)
        assert canonical_mapping_bytes(results["columnar"].schedule) == oracle

    @pytest.mark.parametrize("cls", [SLRH1, SLRH2, SLRH3])
    def test_slrh_trace_counters_identical_across_modes(self, cls, small_scenario):
        traces = {}
        for mode in KERNEL_MODES:
            cfg = SlrhConfig(weights=_WEIGHTS, kernel=mode)
            traces[mode] = cls(cfg).map(small_scenario).trace
        reb = traces["rebuild"]
        oracle = (reb.ticks, reb.machine_scans, reb.empty_pool_ticks)
        got = traces["columnar"]
        assert (got.ticks, got.machine_scans, got.empty_pool_ticks) == oracle
        assert got.records == reb.records

    @pytest.mark.parametrize("order", ["battery", "round_robin"])
    def test_machine_order_variants_identical_across_modes(
        self, order, small_scenario
    ):
        mappings = {}
        for mode in KERNEL_MODES:
            cfg = SlrhConfig(weights=_WEIGHTS, kernel=mode, machine_order=order)
            mappings[mode] = canonical_mapping_bytes(
                SLRH2(cfg).map(small_scenario).schedule
            )
        assert mappings["columnar"] == mappings["rebuild"]

    @pytest.mark.parametrize("mode", ["columnar"])
    def test_maintained_kernels_actually_reuse_entries(self, mode, small_scenario):
        result = SLRH1(SlrhConfig(weights=_WEIGHTS, kernel=mode)).map(
            small_scenario
        )
        perf = result.trace.perf
        assert perf.get("pool.reuse_hits", 0) > 0
        assert perf.get("pool.invalidations", 0) > 0

    def test_ledger_contents_match_rebuild(self, small_scenario):
        """A ledgered run (forced onto the rebuild path) must report the
        same rejection history as an explicitly rebuild-mode run."""
        via_default = SLRH1(SlrhConfig(weights=_WEIGHTS, ledger=True)).map(
            small_scenario
        )
        via_rebuild = SLRH1(
            SlrhConfig(weights=_WEIGHTS, ledger=True, kernel="rebuild")
        ).map(small_scenario)
        assert via_default.trace.ledger.records == via_rebuild.trace.ledger.records
        assert canonical_mapping_bytes(via_default.schedule) == (
            canonical_mapping_bytes(via_rebuild.schedule)
        )


class TestChurnDifferential:
    """One kernel persisted across churn segments re-bases cleanly: the
    whole timeline — mappings, rollbacks, traces — is byte-identical to
    the rebuild oracle."""

    _EVENTS = (
        ChurnEvent(cycle=2, machine=1, kind="loss"),
        ChurnEvent(cycle=5, machine=1, kind="join"),
        ChurnEvent(cycle=7, machine=3, kind="loss"),
    )

    @pytest.mark.parametrize("cls", [SLRH1, SLRH2, SLRH3])
    def test_churn_identical_across_modes(self, cls, small_scenario):
        outcomes = {}
        for mode in KERNEL_MODES:
            scheduler = cls(SlrhConfig(weights=_WEIGHTS, kernel=mode))
            outcomes[mode] = run_with_churn(
                small_scenario, scheduler, list(self._EVENTS)
            )
        reb = outcomes["rebuild"]
        oracle_bytes = canonical_mapping_bytes(reb.final.schedule)
        oracle_counters = (
            reb.final.trace.ticks,
            reb.final.trace.machine_scans,
            reb.final.trace.empty_pool_ticks,
        )
        got = outcomes["columnar"]
        assert canonical_mapping_bytes(got.final.schedule) == oracle_bytes
        assert got.records == reb.records
        assert got.final.trace.records == reb.final.trace.records
        assert (
            got.final.trace.ticks,
            got.final.trace.machine_scans,
            got.final.trace.empty_pool_ticks,
        ) == oracle_counters


class TestSleepGate:
    """Regression pin for the early-wake rounding bug: the legacy sleep
    computation stored ``min_release - latency - 1e-9`` as a wake *time*,
    and the two chained subtractions could round that threshold below the
    release gate's own arithmetic ``release > (now + latency) + EPSILON``.
    A machine then woke one tick early and burned a pool build on a gate
    that was still closed.  The constants below are a concrete float
    counterexample (cycle 22 at 0.1 s/cycle, latency of 3 cycles)."""

    _CS = 0.1
    _CYCLE = 22
    _LAT = 3 * 0.1  # 0.30000000000000004
    _RELEASE = 2.5000000010000005

    def test_counterexample_splits_the_two_formulas(self):
        """At the pinned instant the legacy wake formula says 'serve' while
        the release gate the serve would actually apply is still closed."""
        now = self._CYCLE * self._CS
        legacy_wake = self._RELEASE - self._LAT - 1e-9
        assert now >= legacy_wake  # legacy sleep state: machine wakes
        # ...but the pool's release gate rejects the task at this instant:
        assert self._RELEASE > (now + self._LAT) + EPSILON

    def test_kernel_asleep_uses_gate_arithmetic(self):
        """`_asleep` evaluates the raw release time with the gate's own
        arithmetic: still asleep at the counterexample instant, awake once
        the gate genuinely opens."""
        scenario = _scenario(8, 0)
        schedule = Schedule(scenario)
        checker = FeasibilityChecker(scenario)
        objective = ObjectiveFunction.for_scenario(scenario, _WEIGHTS)
        kernel = SchedulingKernel(
            schedule,
            checker,
            objective,
            mode="columnar",
            decision_latency_seconds=self._LAT,
        )
        kernel._wake_release[0] = self._RELEASE
        kernel._wake_ready[0] = math.inf
        asleep_clock = SimulationClock(
            delta_t_cycles=10, horizon_cycles=100,
            cycle_seconds=self._CS, cycle=self._CYCLE,
        )
        assert kernel._asleep(0, asleep_clock)
        awake_clock = SimulationClock(
            delta_t_cycles=10, horizon_cycles=100,
            cycle_seconds=self._CS, cycle=25,
        )
        assert not kernel._asleep(0, awake_clock)

    def test_wake_all_resets_both_event_times(self):
        scenario = _scenario(8, 0)
        schedule = Schedule(scenario)
        checker = FeasibilityChecker(scenario)
        objective = ObjectiveFunction.for_scenario(scenario, _WEIGHTS)
        kernel = SchedulingKernel(schedule, checker, objective)
        kernel._wake_release[1] = 99.0
        kernel._wake_ready[1] = 99.0
        kernel._wake_all()
        clock = SimulationClock()
        assert not kernel._asleep(1, clock)
        assert kernel._wake_release[1] == -math.inf
        assert kernel._wake_ready[1] == -math.inf


class TestReleaseTimesDifferential:
    """generate_scenario leaves arrivals at 0.0; attaching staggered release
    times exercises the sleep/wake path (machines provably idle until the
    next arrival) — both kernels must still agree byte for byte,
    including the tick counters the columnar fast-forward bulk-adds."""

    @pytest.mark.parametrize("cls", [SLRH1, SLRH2, SLRH3])
    def test_staggered_releases_identical_across_modes(self, cls, small_scenario):
        n = small_scenario.n_tasks
        releases = [(task % 7) * 1.5 + (task % 3) * 0.1 for task in range(n)]
        scenario = small_scenario.with_release_times(releases)
        results = {}
        for mode in KERNEL_MODES:
            results[mode] = cls(SlrhConfig(weights=_WEIGHTS, kernel=mode)).map(
                scenario
            )
        reb = results["rebuild"]
        oracle = canonical_mapping_bytes(reb.schedule)
        oracle_counters = (
            reb.trace.ticks, reb.trace.machine_scans, reb.trace.empty_pool_ticks
        )
        got = results["columnar"]
        assert canonical_mapping_bytes(got.schedule) == oracle
        assert got.trace.records == reb.trace.records
        assert (
            got.trace.ticks,
            got.trace.machine_scans,
            got.trace.empty_pool_ticks,
        ) == oracle_counters
