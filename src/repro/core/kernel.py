"""The scheduling kernel: one event-driven core under every heuristic.

Every mapper in this codebase used to carry its own copy of the outer
loop — the SLRH variants each re-implemented the per-tick machine scan,
the static baselines their round loop, and the churn engine drove the
whole thing segment-by-segment.  :class:`SchedulingKernel` now owns that
spine: the clock advance, the machine scan order, the per-machine serve
loop (:meth:`run`) for the clock-driven SLRH family, and the clockless
round loop (:meth:`run_static`) for the static baselines.  The SLRH
variants collapse into :class:`TickPolicy` values answering "how many
commits per machine per tick, and do we re-score between commits".

Incremental candidate pools
---------------------------
The paper's loop (§IV) rebuilds the candidate pool U from scratch for
every (tick, machine).  Profiling shows most ticks are stalls: nothing
became eligible, nothing changed, yet every ready task is re-planned and
re-scored.  :class:`CandidatePool` instead maintains one pool entry per
(machine, task) and re-plans only entries dirtied by an **event**:

* a commit — touches the target machine's execution/in-channel calendars
  and energy, every sending machine's out-channel and energy, and the
  parents' machines' reserves (tracked by per-machine touch counters);
* a parent assignment changing (the schedule's per-task parent epoch);
* the tick moving ``not_before`` — an entry survives the clock advance
  only when its certificates prove a fresh plan would be byte-identical
  (its data-ready floor dominates both clocks and every planned transfer
  starts at/after the new clock);
* churn (offline/online flips, rollbacks, external debits) — handled
  wholesale by :meth:`CandidatePool.invalidate_all`, which :meth:`run`
  performs on entry so a kernel persisted across churn segments re-bases
  against whatever happened in between.

Clean entries are *reused*: their plans verbatim, their scores too when
the global aggregates (T100, TEC, AET) are unchanged, or re-scored with
the exact arithmetic of a fresh evaluation when a commit moved them
(float ordering is preserved by recomputing, never by adjusting).  The
``pool.reuse_hits`` / ``pool.invalidations`` perf counters expose the
delta rate.

On top of per-entry reuse the kernel sleeps whole machines: when a serve
commits nothing, every pool member was outside the receding horizon, and
absent events (which wake all machines) the pool can only change when the
horizon reaches the earliest data-ready time or an unreleased task
arrives — both computable, so the machine sleeps until that tick and the
stall ticks in between cost an availability check instead of a pool
build.  Data-ready times are nondecreasing in the planning clock (gap
searches are monotone in their lower bound), so a sleep can only ever be
*conservative* — waking early is harmless, and the serve that follows
re-derives eligibility from scratch.

Columnar pools
--------------
The default ``columnar`` mode (``REPRO_KERNEL=columnar``) keeps exactly
the :class:`CandidatePool` maintenance discipline but stores the pool
state in flat parallel arrays (:class:`repro.core.columnar.ColumnarPool`)
— certificate checks and re-scoring become index arithmetic, candidate
ordering a single stable argsort over the score column — and lets
:meth:`SchedulingKernel.run` fast-forward runs of stall ticks (every
machine unavailable or asleep) in one tight loop.  Both replicate the
object path's float arithmetic operation-for-operation, so mappings,
trace counters and pool counters are byte-identical across all modes.

Differential oracles
--------------------
``REPRO_KERNEL=incremental`` keeps the delta-maintained object pools and
``REPRO_KERNEL=rebuild`` (or ``SlrhConfig(kernel=...)``) the original
from-scratch pool construction as reference implementations; mappings
are byte-identical across the three modes for every heuristic (pinned by
``tests/test_kernel.py`` and the ``kernel-differential`` CI job).  The
decision ledger records per-tick rejection history that only exists when
pools are actually rebuilt, so ledgered runs always use the rebuild path
— observability never changes the mapping, and the hot path never pays
for it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

from repro.core.columnar import ColumnarPool
from repro.core.constants import EPSILON
from repro.core.feasibility import FeasibilityChecker
from repro.core.objective import ObjectiveFunction
from repro.core.pool import Candidate, build_candidate_pool, select_candidate
from repro.obs.ledger import ENERGY_INFEASIBLE, LOST_ON_SCORE, OUTSIDE_HORIZON
from repro.obs.spans import NULL_SPAN, NULL_TRACER, NullTracer, Tracer
from repro.sim.clock import SimulationClock
from repro.sim.schedule import ExecutionPlan, Schedule
from repro.sim.trace import MappingTrace
from repro.workload.versions import SECONDARY

__all__ = [
    "CandidatePool",
    "ColumnarPool",
    "KERNEL_MODES",
    "SchedulingKernel",
    "TickPolicy",
    "resolve_kernel_mode",
]

#: The three kernel modes: ``columnar`` (flat-array pools, the default),
#: ``incremental`` (delta-maintained object pools) and ``rebuild``
#: (from-scratch pools — the differential oracle).
KERNEL_MODES = ("columnar", "incremental", "rebuild")


def resolve_kernel_mode(override: str | None = None, *, ledger: bool = False) -> str:
    """The kernel mode to run: *override* if given, else ``$REPRO_KERNEL``,
    else ``columnar``.  A decision ledger forces ``rebuild`` — its
    per-tick rejection records only exist when pools are actually rebuilt
    (recording never changes the mapping either way).
    """
    if ledger:
        return "rebuild"
    mode = override if override is not None else os.environ.get("REPRO_KERNEL", "")
    mode = str(mode).strip().lower()
    if mode in ("", "columnar", "col", "flat"):
        return "columnar"
    if mode in ("incremental", "inc", "delta", "1", "on"):
        return "incremental"
    if mode in ("rebuild", "full", "oracle", "0", "off"):
        return "rebuild"
    raise ValueError(
        f"unknown kernel mode {mode!r}; expected one of {', '.join(KERNEL_MODES)}"
    )


@dataclass(frozen=True)
class TickPolicy:
    """What an SLRH variant does within one (tick, machine) serve.

    ``max_commits`` caps assignments per machine per tick (``None`` =
    unlimited); ``refresh`` says what happens to the pool between commits:
    ``"none"`` stops after the cap, ``"replan"`` keeps draining the *same*
    stale pool (start times re-planned, scores and ordering not — SLRH-2),
    ``"rebuild"`` re-derives the pool after every commit (SLRH-3).
    """

    max_commits: int | None
    refresh: str  # "none" | "replan" | "rebuild"

    def __post_init__(self) -> None:
        if self.refresh not in ("none", "replan", "rebuild"):
            raise ValueError(f"unknown refresh policy {self.refresh!r}")
        if self.max_commits is not None and self.max_commits < 1:
            raise ValueError("max_commits must be >= 1 (or None)")


# Pool-entry states: a scored candidate, a task whose tentative plans are
# all energy-infeasible, and a rule-(b) reject (never planned at all).
_CANDIDATE, _NO_VERSION, _RULE_B = 0, 1, 2


class _PoolEntry:
    """One delta-maintained pool slot for a (machine, task) pair.

    Cleanliness certificates: the task's parent epoch, the touch-counter
    stamps of every machine the entry's plans read (target + parents'
    machines — exactly the set a commit can move), and — for entries that
    hold plans — the clock rule under which a later ``not_before`` provably
    yields byte-identical plans.  ``_RULE_B`` and ``_NO_VERSION`` verdicts
    are clock-independent (they hinge on energy state only), so they skip
    the clock rule.
    """

    __slots__ = (
        "kind", "parent_epoch", "dep_machines", "dep_stamps",
        "nb", "data_ready", "min_comm_start", "pair", "cand", "token",
    )


class CandidatePool:
    """Incrementally maintained candidate pools, one per machine.

    :meth:`pool_for` materialises the same ordered pool that
    :func:`repro.core.pool.build_candidate_pool` would build from scratch
    — pinned by the Hypothesis equivalence test in ``tests/test_kernel.py``
    — re-planning only dirtied entries.  The owner must report every
    commit via :meth:`note_commit` and call :meth:`invalidate_all` after
    any other mutation (rollbacks, offline flips, external debits).
    """

    def __init__(
        self,
        schedule: Schedule,
        checker: FeasibilityChecker,
        objective: ObjectiveFunction,
    ) -> None:
        self.schedule = schedule
        self.checker = checker
        self.objective = objective
        n_machines = schedule.scenario.n_machines
        self._entries: list[dict[int, _PoolEntry]] = [{} for _ in range(n_machines)]
        # Per-machine event counters: bumped for every machine a commit
        # touches (calendars, energy, reserves).  Entry stamps against
        # these prove "nothing my plans read has moved".
        self._touch = [0] * n_machines
        # Aggregate state (T100, TEC, AET) the current scores were computed
        # at; scores are recomputed — with fresh-path arithmetic — whenever
        # it moves, since every commit shifts every candidate's score.
        self._agg: tuple[int, float, float] | None = None
        self._token = 0

    def invalidate_all(self) -> None:
        """Drop every entry — the big hammer for events without a precise
        delta (churn offline/online, rollbacks, external debits)."""
        for per_machine in self._entries:
            per_machine.clear()
        self._agg = None

    def note_release(self, task: int) -> None:
        """A streamed arrival moved *task*'s release time: retire its
        entries.  (A held task is release-gated out of every pool, so none
        should exist — clearing is defensive symmetry with
        :meth:`note_commit`.)  Entries for other tasks never read a
        neighbour's release, so they survive untouched — this is the
        precise delta that lets a session keep its pool across arrivals."""
        for per_machine in self._entries:
            per_machine.pop(task, None)

    def note_machine_return(self, machine: int) -> None:
        """A lost machine rejoined the grid: give it a fresh touch epoch.

        Bumping the counter dirties every surviving entry whose plans read
        *machine* (their stamps no longer match), and clearing the
        machine's own entry table forces its pools to be re-derived from
        the post-rejoin grid instead of any pre-loss leftovers.  Without
        the bump a rejoin is invisible to the certificate scheme — touch
        counters only ever move on commits — so stale entries could
        survive the offline window (pinned against the rebuild oracle by
        ``tests/test_session.py``)."""
        self._touch[machine] += 1
        self._entries[machine].clear()
        self._agg = None

    def note_commit(self, plan: ExecutionPlan) -> None:
        """Record a commit's footprint: bump the touch counter of every
        machine it mutated and retire the committed task's entries."""
        schedule = self.schedule
        touched = {plan.machine}
        for p in schedule.scenario.dag.parents[plan.task]:
            touched.add(schedule.assignments[p].machine)
        touch = self._touch
        for j in touched:
            touch[j] += 1
        for per_machine in self._entries:
            per_machine.pop(plan.task, None)

    def _deps(self, task: int, machine: int) -> tuple[int, ...]:
        schedule = self.schedule
        return tuple(
            sorted(
                {machine}
                | {
                    schedule.assignments[p].machine
                    for p in schedule.scenario.dag.parents[task]
                }
            )
        )

    def pool_for(
        self, machine: int, not_before: float, tracer: Tracer | NullTracer = NULL_TRACER
    ) -> tuple[list[Candidate], float | None]:
        """The ordered pool U for *machine* at *not_before*, plus the
        earliest release time among ready-but-unreleased tasks (``None``
        when there is none) — the kernel's wake-up hint."""
        schedule = self.schedule
        perf = schedule.perf
        agg = schedule.aggregate_state()
        if agg != self._agg:
            self._agg = agg
            self._token += 1
        token = self._token
        entries = self._entries[machine]
        touch = self._touch
        epochs = schedule.parent_epochs()
        objective = self.objective
        checker = self.checker
        pool: list[Candidate] = []
        min_release: float | None = None
        reused = invalidated = 0
        span = (
            tracer.span("pool.delta", machine=machine, clock=not_before)
            if tracer.enabled
            else NULL_SPAN
        )
        release_times = schedule.release_times_view()
        with span, perf.timer("phase.pool_seconds"):
            for task in schedule.ready_tasks():
                release = release_times[task]
                if release > not_before + EPSILON:
                    if min_release is None or release < min_release:
                        min_release = release
                    continue
                entry = entries.get(task)
                if entry is not None and entry.parent_epoch == epochs[task]:
                    clean = True
                    stamps = entry.dep_stamps
                    for k, j in enumerate(entry.dep_machines):
                        if touch[j] != stamps[k]:
                            clean = False
                            break
                    if clean and entry.kind == _CANDIDATE and not_before != entry.nb:
                        # The clock moved.  The stored plans survive only if
                        # a fresh computation provably matches: the data-ready
                        # floor dominates both clocks (so data_ready — and the
                        # execution slot behind it — is unchanged) and every
                        # planned transfer starts at/after the new clock (gap
                        # searches are monotone in their lower bound, so a
                        # still-legal earliest train stays earliest).
                        if not (
                            not_before > entry.nb
                            and entry.data_ready > entry.nb
                            and entry.data_ready >= not_before
                            and entry.min_comm_start >= not_before
                        ):
                            clean = False
                else:
                    clean = False
                if clean:
                    reused += 1
                    if entry.kind == _CANDIDATE:
                        if entry.token != token:
                            # Aggregates moved: re-score both versions with
                            # the fresh path's exact arithmetic and re-run
                            # the selection — a changed makespan can flip
                            # the version choice, and float ordering must
                            # be recomputed, never patched.
                            entry.cand = select_candidate(
                                schedule, objective, task, entry.pair
                            )
                            entry.token = token
                        pool.append(entry.cand)
                    continue
                invalidated += 1
                if not checker.is_feasible(schedule, task, machine, SECONDARY):
                    entry = _PoolEntry()
                    entry.kind = _RULE_B
                    entry.parent_epoch = epochs[task]
                    entry.dep_machines = self._deps(task, machine)
                    entry.dep_stamps = tuple(touch[j] for j in entry.dep_machines)
                    entry.pair = None
                    entry.cand = None
                    entries[task] = entry
                    continue
                pair = schedule.plan_versions(task, machine, not_before=not_before)
                cand = select_candidate(schedule, objective, task, pair)
                entry = _PoolEntry()
                entry.kind = _CANDIDATE if cand is not None else _NO_VERSION
                entry.parent_epoch = epochs[task]
                entry.dep_machines = self._deps(task, machine)
                entry.dep_stamps = tuple(touch[j] for j in entry.dep_machines)
                entry.nb = not_before
                entry.data_ready = pair[0].data_ready
                entry.min_comm_start = min(
                    (c.start for c in pair[0].comms), default=math.inf
                )
                entry.pair = pair
                entry.cand = cand
                entry.token = token
                entries[task] = entry
                if cand is not None:
                    pool.append(cand)
            pool.sort(key=lambda c: (-c.score, c.task))
        perf.inc("pool.builds")
        perf.inc("pool.members", len(pool))
        if reused:
            perf.inc("pool.reuse_hits", reused)
        if invalidated:
            perf.inc("pool.invalidations", invalidated)
        return pool, min_release


class SchedulingKernel:
    """The shared scheduling core (see module docstring).

    One kernel serves one :class:`~repro.sim.schedule.Schedule`; the churn
    engine keeps a kernel alive across segments and every :meth:`run`
    re-bases the incremental pool against whatever happened in between.
    """

    def __init__(
        self,
        schedule: Schedule,
        checker: FeasibilityChecker | None,
        objective: ObjectiveFunction | None,
        *,
        mode: str = "incremental",
        machine_order: str = "index",
        decision_latency_seconds: float = 0.0,
    ) -> None:
        if mode not in KERNEL_MODES:
            raise ValueError(f"unknown kernel mode {mode!r}")
        if machine_order not in ("index", "battery", "round_robin"):
            raise ValueError(f"unknown machine_order {machine_order!r}")
        self.schedule = schedule
        self.checker = checker
        self.objective = objective
        self.mode = mode
        self.machine_order = machine_order
        self.latency = decision_latency_seconds
        n_machines = schedule.scenario.n_machines
        # The index-order scan list is immutable and shared across ticks
        # (round-robin rotates it, battery re-sorts it per tick).
        self._order = list(range(n_machines))
        if checker is not None and mode != "rebuild":
            pool_cls = ColumnarPool if mode == "columnar" else CandidatePool
            self.pool = pool_cls(schedule, checker, objective)
        else:
            self.pool = None
        # Per-machine sleep state, stored as the *raw* event times the last
        # serve observed (earliest unreleased-task release, earliest pool
        # data-ready) rather than a precomputed wake tick: the asleep test
        # then evaluates the release gate and the horizon rule with exactly
        # the arithmetic the serve itself would use, so a machine can never
        # wake an event early (or late) to float rounding.  -inf = must
        # serve (every event resets both to -inf); +inf = unconstrained.
        self._wake_release = [-math.inf] * n_machines
        self._wake_ready = [-math.inf] * n_machines

    # -- clock-driven mode (the SLRH family) --------------------------------

    def _scan_order(self, tick_index: int) -> list[int]:
        if self.machine_order == "battery":
            schedule = self.schedule
            return sorted(
                self._order, key=lambda j: (-schedule.available_energy(j), j)
            )
        if self.machine_order == "round_robin":
            offset = tick_index % len(self._order)
            return self._order[offset:] + self._order[:offset]
        return self._order

    def _wake_all(self) -> None:
        wake_release = self._wake_release
        wake_ready = self._wake_ready
        for j in range(len(wake_release)):
            wake_release[j] = -math.inf
            wake_ready[j] = -math.inf

    def _asleep(self, j: int, clock: SimulationClock) -> bool:
        """Whether machine *j* provably has nothing startable at *clock*:
        its earliest unreleased task still fails the pool's release gate
        AND its earliest data-ready time is still past the horizon — the
        same comparisons, with the same tolerance, the serve would make."""
        return (
            self._wake_release[j] > (clock.now + self.latency) + EPSILON
            and self._wake_ready[j] > clock.horizon_end + EPSILON
        )

    # -- precise event deltas (streaming sessions) --------------------------
    #
    # A caller that mutates the schedule between runs normally relies on
    # the unconditional re-base at run entry (invalidate_all + wake).  The
    # session engine instead reports each event through one of these hooks
    # and runs with ``rebase=False``, keeping every pool entry the event
    # provably did not touch — mappings stay byte-identical to the rebuild
    # oracle (pinned by tests/test_session.py), only the reuse rate moves.

    def note_arrival(self, task: int) -> None:
        """A streamed task arrival: its release moved, nothing else did.
        Existing entries never read another task's release, so the pool
        keeps them; sleeping machines must re-check their release gates."""
        if self.pool is not None:
            self.pool.note_release(task)
            self._wake_all()

    def note_rejoin(self, machine: int) -> None:
        """A lost machine rejoined: fresh touch epoch for it (see
        ``note_machine_return``), and everyone wakes to reconsider it."""
        if self.pool is not None:
            self.pool.note_machine_return(machine)
            self._wake_all()

    def note_disturbance(self) -> None:
        """An event with no precise delta (machine loss: rollbacks,
        offline flip, external debits) — the big hammer."""
        if self.pool is not None:
            self.pool.invalidate_all()
            self._wake_all()

    def run(
        self,
        policy: TickPolicy,
        clock: SimulationClock,
        trace: MappingTrace,
        *,
        max_ticks: int,
        rebase: bool = True,
        stop_cycle: int | None = None,
        tracer=NULL_TRACER,
    ) -> None:
        """Drive the clock loop until completion, τ, *stop_cycle* or the
        tick cap — mutating *clock*, the schedule and *trace* in place."""
        schedule = self.schedule
        scenario = schedule.scenario
        if rebase and self.pool is not None:
            # Re-base against anything that happened outside a run (churn
            # rollbacks, offline flips, external debits) — events inside a
            # run flow through note_commit.  Streaming sessions pass
            # ``rebase=False`` after reporting each event through the
            # note_* hooks above, keeping the pool warm across segments.
            self.pool.invalidate_all()
            self._wake_all()
        tracing = tracer.enabled
        # Stall ticks (every machine unavailable or asleep) mutate nothing
        # but the clock and three trace counters, so the columnar mode
        # consumes them in a tight arithmetic loop instead of the full
        # scan machinery.  Guarded to the untraced, unledgered hot path;
        # the loop evaluates the exact same availability/sleep predicates
        # per tick, so counters and mappings are byte-identical.
        fast = (
            self.mode == "columnar"
            and self.pool is not None
            and not tracing
            and trace.ledger is None
        )
        tick_index = 0
        while tick_index < max_ticks:
            if stop_cycle is not None and clock.cycle >= stop_cycle:
                break
            if fast:
                consumed, stop = self._fast_forward(
                    clock, trace, max_ticks - tick_index, stop_cycle, scenario.tau
                )
                tick_index += consumed
                if stop:
                    break
                if consumed:
                    continue
                if tick_index >= max_ticks:
                    break
            trace.note_tick()
            tick_span = (
                tracer.span("kernel.tick", tick=tick_index, clock=clock.now)
                if tracing
                else NULL_SPAN
            )
            with tick_span:
                for j in self._scan_order(tick_index):
                    trace.note_machine_scan()
                    if not schedule.machine_available(j, clock.now):
                        continue
                    if self.pool is not None and self._asleep(j, clock):
                        # Asleep: the last serve proved nothing can start
                        # before the stored event times absent events, and
                        # any event would have reset them.  A from-scratch
                        # serve here would commit nothing — count the stall
                        # exactly as the rebuild path does.
                        trace.note_empty_pool()
                        continue
                    made = self._serve_machine(j, policy, clock, trace, tracer)
                    if made == 0:
                        trace.note_empty_pool()
                    if schedule.is_complete:
                        break
            if schedule.is_complete:
                break
            clock.tick()
            tick_index += 1
            if clock.exceeded(scenario.tau):
                break

    def _fast_forward(
        self,
        clock: SimulationClock,
        trace: MappingTrace,
        budget: int,
        stop_cycle: int | None,
        tau: float,
    ) -> tuple[int, bool]:
        """Consume consecutive stall ticks — ticks where every machine is
        either unavailable or asleep — in one tight loop; returns (ticks
        consumed, whether the run must stop).  Mirrors the main loop
        exactly: per consumed tick it advances the clock once and accounts
        one tick, one scan per machine, and one empty-pool stall per
        available (asleep) machine.  Nothing else can change during a
        stall: commits are the only in-run mutations, and a stall tick by
        definition commits nothing.
        """
        schedule = self.schedule
        offline = schedule.offline
        latency = self.latency
        wake_release = self._wake_release
        wake_ready = self._wake_ready
        n_machines = len(wake_release)
        # Hoisted availability facts: a machine is unavailable while its
        # last committed execution ends after the clock (timeline rule);
        # calendars cannot move during a stall.  Offline machines never
        # contribute either way, so the scan list drops them up front.
        mach = [
            (tl.last_busy_end(), wake_release[j], wake_ready[j])
            for j, tl in enumerate(schedule.exec_timeline)
            if j not in offline
        ]
        # Inlined SimulationClock arithmetic — now / horizon_end / tick /
        # exceeded are affine in the cycle counter; evaluating the same
        # expressions on hoisted fields keeps every float identical while
        # dropping five attribute/property calls per stall tick.
        cycle = clock.cycle
        dt = clock.delta_t_cycles
        cs = clock.cycle_seconds
        hc = clock.horizon_cycles
        consumed = 0
        empty_total = 0
        stop = False
        while consumed < budget:
            if stop_cycle is not None and cycle >= stop_cycle:
                break
            now = cycle * cs
            gate = (now + latency) + EPSILON
            horizon = (cycle + hc) * cs + EPSILON
            now_eps = now + EPSILON
            empty = 0
            stalled = True
            for busy_end_j, wr_j, wd_j in mach:
                if busy_end_j > now_eps:
                    continue
                if wr_j > gate and wd_j > horizon:
                    empty += 1
                    continue
                stalled = False
                break
            if not stalled:
                break
            consumed += 1
            empty_total += empty
            cycle += dt
            if cycle * cs > tau + 1e-9:
                stop = True
                break
        clock.cycle = cycle
        if consumed:
            trace.ticks += consumed
            trace.machine_scans += consumed * n_machines
            trace.empty_pool_ticks += empty_total
        return consumed, stop

    def _build_pool(
        self,
        machine: int,
        not_before: float,
        trace: MappingTrace,
        tracer: Tracer | NullTracer,
    ) -> tuple[list[Candidate], float | None]:
        if self.pool is None:
            return (
                build_candidate_pool(
                    self.schedule,
                    self.checker,
                    self.objective,
                    machine,
                    not_before=not_before,
                    ledger=trace.ledger,
                ),
                None,
            )
        return self.pool.pool_for(machine, not_before, tracer)

    def _serve_machine(
        self,
        machine: int,
        policy: TickPolicy,
        clock: SimulationClock,
        trace: MappingTrace,
        tracer: Tracer | NullTracer,
    ) -> int:
        """One (tick, machine) serve under *policy*; returns commits made."""
        schedule = self.schedule
        not_before = clock.now + self.latency
        made = 0
        pool, min_release = self._build_pool(machine, not_before, trace, tracer)
        while pool:
            replan = made > 0 and policy.refresh == "replan"
            if not self._commit_first_startable(pool, clock, trace, replan=replan):
                break
            made += 1
            if schedule.is_complete:
                break
            if policy.max_commits is not None and made >= policy.max_commits:
                break
            if policy.refresh == "rebuild":
                pool, min_release = self._build_pool(machine, not_before, trace, tracer)
            elif policy.refresh == "none":
                break
        if made == 0 and self.pool is not None:
            # Nothing started: every pool member's data-ready time is past
            # the horizon, and data-ready times only grow with the clock.
            # Absent events the machine cannot commit before the horizon
            # reaches the earliest of them (or an unreleased ready task
            # arrives) — store the raw event times and sleep until either
            # gate opens.  (An earlier version precomputed a wake *tick* by
            # subtracting the latency and the gate epsilon; the extra
            # subtractions could round below the true gate threshold and
            # wake the machine one event early, burning a pool build on a
            # tick where the release gate was still closed — pinned by
            # tests/test_kernel.py::TestSleepGate.)
            self._wake_release[machine] = (
                min_release if min_release is not None else math.inf
            )
            ready = math.inf
            for candidate in pool:
                at = candidate.plan.data_ready
                if at < ready:
                    ready = at
            self._wake_ready[machine] = ready
        return made

    def _commit_first_startable(
        self,
        pool: list[Candidate],
        clock: SimulationClock,
        trace: MappingTrace,
        replan: bool = False,
    ) -> bool:
        """Walk the ordered pool; commit the first candidate whose start
        falls inside the horizon.  With *replan*, each candidate's plan is
        recomputed first (SLRH-2's stale-pool walk).

        When the trace carries a decision ledger, every pool member that
        does *not* win this walk is recorded: horizon misses with their
        overshoot, replan infeasibilities, and — once a winner commits —
        the rest of the pool as ``lost_on_score`` against it (this is the
        per-tick "machine rejected" record the ``explain`` CLI surfaces).
        """
        schedule = self.schedule
        objective = self.objective
        ledger = trace.ledger
        # The columnar pool carries a fused single-version replan that is
        # byte-identical for every committable plan but skips the reason
        # strings of dead ones — usable exactly when no ledger listens.
        fused_replan = (
            getattr(self.pool, "replan", None)
            if replan and ledger is None
            else None
        )
        for index, candidate in enumerate(pool):
            plan = candidate.plan
            if replan:
                if schedule.is_mapped(candidate.task):
                    continue
                if fused_replan is not None:
                    plan = fused_replan(
                        candidate.task,
                        candidate.version,
                        plan.machine,
                        clock.now + self.latency,
                    )
                else:
                    plan = schedule.plan(
                        candidate.task,
                        candidate.version,
                        plan.machine,
                        not_before=clock.now + self.latency,
                    )
                if not plan.feasible:
                    if ledger is not None:
                        ledger.reject(
                            clock=clock.now,
                            task=candidate.task,
                            machine=plan.machine,
                            version=plan.version.value,
                            reason=ENERGY_INFEASIBLE,
                            detail=f"stale-pool replan: {plan.reason}",
                        )
                    continue
            # §IV: horizon eligibility is judged on the "earliest possible
            # starting time ... given precedence and communication
            # requirements" — the machine's own queue does not disqualify a
            # candidate.  (For SLRH-1 the target machine is idle, so the two
            # notions coincide; for SLRH-2/3 this is what lets one machine
            # take several assignments in a single tick.)
            if not clock.within_horizon(plan.data_ready):
                if ledger is not None:
                    ledger.reject(
                        clock=clock.now,
                        task=candidate.task,
                        machine=plan.machine,
                        version=plan.version.value,
                        reason=OUTSIDE_HORIZON,
                        margin=plan.data_ready - clock.horizon_end,
                        score=candidate.score,
                        detail=(
                            f"data ready {plan.data_ready:.6g}s is past the "
                            f"horizon end {clock.horizon_end:.6g}s"
                        ),
                    )
                continue
            tracer = schedule.tracer
            span = (
                tracer.span(
                    "commit",
                    task=plan.task,
                    machine=plan.machine,
                    version=plan.version.value,
                )
                if tracer.enabled
                else NULL_SPAN
            )
            with span:
                schedule.commit(plan)
                trace.record_commit(
                    clock=clock.now,
                    plan=plan,
                    objective=objective.of_schedule(schedule),
                    pool_size=len(pool),
                    t100=schedule.t100,
                    tec=schedule.total_energy_consumed,
                    aet=schedule.makespan,
                )
            if self.pool is not None:
                self.pool.note_commit(plan)
                # A commit moves aggregates, energy and the ready set —
                # every machine must be (re)considered from here on.
                self._wake_all()
            if ledger is not None:
                # Everyone below the winner lost this machine this walk.
                for loser in pool[index + 1:]:
                    if schedule.is_mapped(loser.task):
                        continue
                    ledger.reject(
                        clock=clock.now,
                        task=loser.task,
                        machine=loser.plan.machine,
                        version=loser.version.value,
                        reason=LOST_ON_SCORE,
                        margin=candidate.score - loser.score,
                        score=loser.score,
                        winner=candidate.task,
                        detail=(
                            f"task {candidate.task} won machine "
                            f"{loser.plan.machine} ({candidate.score:.6g} vs "
                            f"{loser.score:.6g})"
                        ),
                    )
            return True
        return False

    # -- clockless mode (the static baselines) ------------------------------

    def run_static(
        self,
        select: Callable[[], tuple[ExecutionPlan | None, int]],
        trace: MappingTrace,
        *,
        note_ticks: bool = True,
        note_empty_pool: bool = False,
        record_commits: bool = False,
    ) -> None:
        """Drive a static (clockless) heuristic's round loop.

        *select* is a zero-argument callable returning ``(plan, pool_size)``
        — the round's winning plan (``None`` stops the loop) and, when
        *record_commits*, the candidate count to stamp on the trace record.
        The kernel owns the loop, the commit, and the trace bookkeeping;
        the heuristic owns only its selection rule.
        """
        schedule = self.schedule
        while not schedule.is_complete:
            if note_ticks:
                trace.note_tick()
            plan, pool_size = select()
            if plan is None:
                if note_empty_pool:
                    trace.note_empty_pool()
                break
            schedule.commit(plan)
            if record_commits:
                trace.record_commit(
                    clock=0.0,
                    plan=plan,
                    objective=self.objective.of_schedule(schedule),
                    pool_size=pool_size,
                    t100=schedule.t100,
                    tec=schedule.total_energy_consumed,
                    aet=schedule.makespan,
                )
