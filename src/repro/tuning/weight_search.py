"""The paper's two-stage (α, β) optimisation (§VII).

"The sensitivity of the heuristics to the objective function weights was
investigated by first independently varying the α and β values across their
[0,1] range in steps of 0.1 until a general range was found that produced
the best T100 performance, subject to the energy and time constraints.  In
addition, the heuristic was required to successfully map all 1024 subtasks
within both the specified energy and time constraints for that (α, β)
combination to be included in the study.  The values were then varied by
0.02 across this smaller range until an optimal performance point was
determined."

We reproduce this literally:

1. **coarse stage** — evaluate every (α, β) on the simplex grid with step
   0.1 (γ = 1 − α − β ≥ 0); keep only *accepted* runs (complete mapping,
   AET ≤ τ; energy holds by construction);
2. **fine stage** — re-grid ±(coarse step) around the best accepted point
   with step 0.02 and evaluate the new points.

The best point maximises T100; ties break toward lower AET, then lower
(α, β) lexicographically for determinism.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro.core.objective import Weights
from repro.core.slrh import MappingResult
from repro.perf import merge_snapshots
from repro.util.parallel import parallel_starmap, resolve_jobs
from repro.workload.scenario import Scenario


class _Mapper(Protocol):  # pragma: no cover - typing helper
    def map(self, scenario: Scenario) -> MappingResult: ...


#: A factory turning a weight point into a runnable heuristic, e.g.
#: ``lambda w: SLRH1(SlrhConfig(weights=w))``.
SchedulerFactory = Callable[[Weights], _Mapper]


def simplex_grid(step: float = 0.1) -> list[tuple[float, float]]:
    """All (α, β) with α, β ∈ {0, step, 2·step, …, 1} and α + β ≤ 1."""
    if not 0 < step <= 1:
        raise ValueError(f"step must be in (0, 1], got {step}")
    n = round(1.0 / step)
    points = []
    for i in range(n + 1):
        for k in range(n - i + 1):
            points.append((round(i * step, 10), round(k * step, 10)))
    return points


def _refinement_grid(
    centre: tuple[float, float], span: float, step: float
) -> list[tuple[float, float]]:
    """(α, β) grid of the given *step* within ±*span* of *centre*, clipped
    to the simplex."""
    a0, b0 = centre
    n = round(span / step)
    points = []
    for i in range(-n, n + 1):
        for k in range(-n, n + 1):
            a = round(a0 + i * step, 10)
            b = round(b0 + k * step, 10)
            if 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0 and a + b <= 1.0 + 1e-9:
                points.append((a, min(b, round(1.0 - a, 10))))
    return sorted(set(points))


@dataclass
class WeightSearchResult:
    """Outcome of the two-stage search for one (heuristic, scenario) pair."""

    best_weights: Weights | None
    best_result: MappingResult | None
    #: Every accepted (α, β) with its T100, both stages.
    accepted: list[tuple[float, float, int]] = field(default_factory=list)
    evaluations: int = 0
    coarse_evaluations: int = 0
    #: Performance counters (see :mod:`repro.perf`) summed over every
    #: mapping the search evaluated, across worker processes.
    perf: dict = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        """Whether any weight point produced an accepted mapping."""
        return self.best_weights is not None

    @property
    def best_t100(self) -> int:
        if self.best_result is None:
            raise ValueError("search found no accepted mapping")
        return self.best_result.t100

    def accepted_near_best(self, tolerance: int = 0) -> list[tuple[float, float]]:
        """Accepted (α, β) whose T100 is within *tolerance* of the best —
        the paper's 'general range ... that produced the best performance'."""
        if self.best_result is None:
            return []
        cut = self.best_t100 - tolerance
        return [(a, b) for (a, b, t) in self.accepted if t >= cut]


def _key(result: MappingResult, alpha: float, beta: float):
    """Ordering key: higher T100, then lower AET, then lower (α, β)."""
    return (-result.t100, result.aet, alpha, beta)


def _evaluate_point(
    scenario: Scenario, factory: SchedulerFactory, alpha: float, beta: float
) -> MappingResult:
    """One weight-point evaluation — module-level so worker processes can
    run it (*factory* must then be picklable, e.g.
    :func:`repro.experiments.comparison.make_factory`'s output)."""
    return factory(Weights.from_alpha_beta(alpha, beta)).map(scenario)


def search_weights(
    scenario: Scenario,
    factory: SchedulerFactory,
    coarse_step: float = 0.1,
    fine_step: float = 0.02,
    fine: bool = True,
    n_jobs: int | None = None,
) -> WeightSearchResult:
    """Run the §VII two-stage (α, β) optimisation.

    Parameters
    ----------
    factory:
        Builds the heuristic for a weight point (any object with
        ``.map(scenario)`` returning a :class:`MappingResult`).
    coarse_step / fine_step:
        Grid steps of the two stages (paper: 0.1 and 0.02).
    fine:
        Skip the refinement stage when ``False`` (cheaper sweeps for the
        reduced-scale benchmarks).
    n_jobs:
        Worker processes per stage (each stage's grid points are
        independent mappings).  Defaults to ``$REPRO_JOBS`` else serial;
        results are identical at any job count — the merge below walks
        the results in grid order, reproducing the serial best/tie logic.
        Fanning out ships *factory* to the workers, so it must then be
        picklable (a module-level function or a ``functools.partial`` of
        one); a lambda raises :class:`TypeError` here, not in a worker.
    """
    n_jobs = resolve_jobs(n_jobs)
    if n_jobs > 1:
        try:
            pickle.dumps(factory)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise TypeError(
                f"factory {factory!r} cannot be pickled, so it cannot fan out "
                f"over {n_jobs} worker processes; pass a module-level function "
                "(or a functools.partial of one), or n_jobs=1"
            ) from exc
    out = WeightSearchResult(best_weights=None, best_result=None)
    best_key = None
    best_point: tuple[float, float] | None = None
    evaluated: set[tuple[float, float]] = set()
    perf_snapshots: list[dict] = []

    def run_stage(points: list[tuple[float, float]]) -> None:
        nonlocal best_key, best_point
        points = [p for p in points if p not in evaluated]
        evaluated.update(points)
        results = parallel_starmap(
            _evaluate_point,
            [(scenario, factory, a, b) for a, b in points],
            n_jobs=n_jobs,
        )
        for (alpha, beta), result in zip(points, results):
            out.evaluations += 1
            perf_snapshots.append(result.trace.perf)
            if not result.success:
                continue
            out.accepted.append((alpha, beta, result.t100))
            key = _key(result, alpha, beta)
            if best_key is None or key < best_key:
                best_key = key
                best_point = (alpha, beta)
                out.best_weights = result.weights
                out.best_result = result

    run_stage(simplex_grid(coarse_step))
    out.coarse_evaluations = out.evaluations

    if fine and best_point is not None:
        run_stage(_refinement_grid(best_point, span=coarse_step, step=fine_step))

    out.perf = merge_snapshots(perf_snapshots)
    return out
