"""Drivers for the paper's Figures 2-7.

Each driver returns structured data *and* can render the same series the
paper plots (via ``render_*`` helpers), so benchmarks print comparable
rows.  Figures 3-7 are views over the shared
:func:`~repro.experiments.comparison.run_comparison` study.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.objective import Weights
from repro.core.slrh import SLRH1
from repro.experiments.comparison import (
    CASES,
    PLOTTED_HEURISTICS,
    ComparisonResults,
    run_comparison,
)
from repro.experiments.reporting import format_table
from repro.experiments.scale import ExperimentScale, SMALL_SCALE
from repro.tuning.sweeps import DeltaTSweepPoint, sweep_delta_t

#: Fixed weights used for the Figure 2 ΔT sweep.  The paper used the
#: per-scenario optimum; a mid-simplex point reproduces the same shape
#: without nesting a weight search inside the sweep.
FIG2_WEIGHTS = Weights.from_alpha_beta(0.5, 0.2)


@dataclass
class Figure2Result:
    """ΔT sweep series for SLRH-1 on ETC 0 with two DAGs (Case A)."""

    delta_t_values: tuple[int, ...]
    #: One series of sweep points per DAG.
    series: list[list[DeltaTSweepPoint]]

    def render(self) -> str:
        rows = []
        for dag_idx, points in enumerate(self.series):
            for p in points:
                rows.append(
                    [f"DAG {dag_idx}", p.value, p.t100, p.mapped,
                     round(p.heuristic_seconds, 4), p.success]
                )
        return format_table(
            ["series", "delta_t (cycles)", "T100", "mapped", "heuristic s", "ok"],
            rows,
            title="Figure 2. Impact of dT on SLRH-1 (T100 and heuristic runtime)",
        )


def figure2_delta_t_sweep(
    scale: ExperimentScale = SMALL_SCALE, n_jobs: int | None = None
) -> Figure2Result:
    """Figure 2: T100 and heuristic runtime vs ΔT, SLRH-1, ETC 0, two DAGs.

    ``n_jobs`` fans each sweep's points out as in
    :func:`~repro.tuning.sweeps.sweep_delta_t`."""
    suite = scale.suite()
    n_dags = min(2, suite.n_dag)
    series = []
    for d in range(n_dags):
        scenario = suite.scenario(0, d, "A")
        series.append(
            sweep_delta_t(
                SLRH1,
                scenario,
                FIG2_WEIGHTS,
                values=scale.delta_t_values,
                n_jobs=n_jobs,
            )
        )
    return Figure2Result(delta_t_values=tuple(scale.delta_t_values), series=series)


@dataclass
class Figure3Result:
    """Optimal-weight statistics per heuristic per case (Figure 3 a-d)."""

    comparison: ComparisonResults

    def render(self) -> str:
        rows = []
        for heuristic in self.comparison.heuristics():
            for case in CASES:
                cell = self.comparison.cell(heuristic, case)
                a_mean, a_min, a_max = cell.alpha_stats()
                b_mean, b_min, b_max = cell.beta_stats()
                rows.append(
                    [heuristic, case, round(cell.success_rate, 2),
                     a_mean, a_min, a_max, b_mean, b_min, b_max]
                )
        return format_table(
            ["heuristic", "case", "success", "a mean", "a min", "a max",
             "b mean", "b min", "b max"],
            rows,
            title="Figure 3. Optimal objective-function weights (alpha/beta) per case",
        )

    def slrh2_success_rate(self) -> float | None:
        """SLRH-2's mapping success rate (the paper: 'rarely produce a
        successful mapping'); None if SLRH-2 was not part of the study."""
        key = ("SLRH-2", "A")
        if key not in self.comparison.cells:
            return None
        rates = [
            self.comparison.cell("SLRH-2", case).success_rate for case in CASES
        ]
        return sum(rates) / len(rates)


def figure3_weight_sensitivity(
    scale: ExperimentScale = SMALL_SCALE, n_jobs: int | None = None
) -> Figure3Result:
    """Figure 3: average/min/max optimal (α, β) per case and heuristic.

    Figures 3-7 are views over one :func:`run_comparison` study; ``n_jobs``
    is its worker count."""
    return Figure3Result(comparison=run_comparison(scale, n_jobs=n_jobs))


def _metric_figure(
    scale: ExperimentScale, attr: str, title: str, n_jobs: int | None
):
    comparison = run_comparison(scale, n_jobs=n_jobs)
    rows = []
    for heuristic in PLOTTED_HEURISTICS:
        row: list = [heuristic]
        for case in CASES:
            cell = comparison.cell(heuristic, case)
            row.append(getattr(cell, attr))
        rows.append(row)
    return rows, format_table(["heuristic", "Case A", "Case B", "Case C"], rows, title=title)


@dataclass
class MetricFigureResult:
    """A per-heuristic × per-case metric grid (Figures 4-7)."""

    rows: list[list]
    text: str

    def value(self, heuristic: str, case: str) -> float:
        for row in self.rows:
            if row[0] == heuristic:
                return row[1 + CASES.index(case)]
        raise KeyError(heuristic)

    def render(self) -> str:
        return self.text


def figure4_t100_comparison(
    scale: ExperimentScale = SMALL_SCALE, n_jobs: int | None = None
) -> MetricFigureResult:
    """Figure 4: mean T100 per heuristic per case (optimal weights)."""
    rows, text = _metric_figure(
        scale, "t100_mean",
        f"Figure 4. Mean T100 per heuristic per case ({scale.name} scale)",
        n_jobs,
    )
    return MetricFigureResult(rows=rows, text=text)


def figure5_vs_upper_bound(
    scale: ExperimentScale = SMALL_SCALE, n_jobs: int | None = None
) -> MetricFigureResult:
    """Figure 5: mean T100 / upper bound per heuristic per case."""
    rows, text = _metric_figure(
        scale, "vs_bound_mean",
        f"Figure 5. Mean T100 relative to the upper bound ({scale.name} scale)",
        n_jobs,
    )
    return MetricFigureResult(rows=rows, text=text)


def figure6_execution_time(
    scale: ExperimentScale = SMALL_SCALE, n_jobs: int | None = None
) -> MetricFigureResult:
    """Figure 6: mean heuristic execution time per heuristic per case."""
    rows, text = _metric_figure(
        scale, "exec_time_mean",
        f"Figure 6. Mean heuristic execution time, seconds ({scale.name} scale)",
        n_jobs,
    )
    return MetricFigureResult(rows=rows, text=text)


def figure7_value_metric(
    scale: ExperimentScale = SMALL_SCALE, n_jobs: int | None = None
) -> MetricFigureResult:
    """Figure 7: mean T100 per second of heuristic execution time."""
    rows, text = _metric_figure(
        scale, "value_metric_mean",
        f"Figure 7. T100 per second of heuristic execution time ({scale.name} scale)",
        n_jobs,
    )
    return MetricFigureResult(rows=rows, text=text)
