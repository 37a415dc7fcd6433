"""Two-stage (α, β) grid search (§VII)."""

import pytest

from repro.core.slrh import SLRH1, SlrhConfig
from repro.tuning.weight_search import (
    WeightSearchResult,
    _refinement_grid,
    search_weights,
    simplex_grid,
)


def _slrh1(weights):
    """Module-level (picklable) factory: the search may fan out over
    worker processes when ``$REPRO_JOBS`` asks for them."""
    return SLRH1(SlrhConfig(weights=weights))


class TestSimplexGrid:
    def test_step_01_size(self):
        # 11 + 10 + ... + 1 = 66 points
        assert len(simplex_grid(0.1)) == 66

    def test_step_05_points(self):
        pts = simplex_grid(0.5)
        assert set(pts) == {
            (0.0, 0.0), (0.0, 0.5), (0.0, 1.0),
            (0.5, 0.0), (0.5, 0.5), (1.0, 0.0),
        }

    def test_all_on_simplex(self):
        for a, b in simplex_grid(0.2):
            assert 0 <= a <= 1 and 0 <= b <= 1 and a + b <= 1 + 1e-9

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            simplex_grid(0.0)
        with pytest.raises(ValueError):
            simplex_grid(1.5)


class TestRefinementGrid:
    def test_centre_included(self):
        pts = _refinement_grid((0.4, 0.2), span=0.1, step=0.02)
        assert (0.4, 0.2) in pts

    def test_clipped_to_simplex(self):
        pts = _refinement_grid((1.0, 0.0), span=0.1, step=0.05)
        for a, b in pts:
            assert a + b <= 1 + 1e-9
            assert a >= 0 and b >= 0

    def test_no_duplicates(self):
        pts = _refinement_grid((0.5, 0.3), span=0.1, step=0.02)
        assert len(pts) == len(set(pts))


class TestSearch:
    @pytest.fixture(scope="class")
    def search_result(self, small_scenario):
        factory = _slrh1
        return search_weights(
            small_scenario, factory, coarse_step=0.25, fine_step=0.125, fine=True
        )

    def test_finds_accepted_point(self, search_result):
        assert search_result.succeeded
        assert search_result.best_result.success

    def test_best_t100_is_max_accepted(self, search_result):
        assert search_result.best_t100 == max(t for (_, _, t) in search_result.accepted)

    def test_fine_stage_adds_evaluations(self, search_result):
        assert search_result.evaluations > search_result.coarse_evaluations

    def test_accepted_near_best(self, search_result):
        near = search_result.accepted_near_best(tolerance=0)
        assert all(
            t == search_result.best_t100
            for (a, b, t) in search_result.accepted
            if (a, b) in near
        )
        assert len(near) >= 1

    def test_coarse_only(self, small_scenario):
        factory = _slrh1
        res = search_weights(small_scenario, factory, coarse_step=0.5, fine=False)
        assert res.evaluations == res.coarse_evaluations == 6

    def test_impossible_scenario_fails_gracefully(self, small_scenario):
        factory = _slrh1
        res = search_weights(
            small_scenario.with_tau(0.5), factory, coarse_step=0.5, fine=True
        )
        assert not res.succeeded
        assert res.best_weights is None
        assert res.accepted == []
        with pytest.raises(ValueError):
            _ = res.best_t100

    def test_unpicklable_factory_rejected_before_fanning_out(self, small_scenario):
        with pytest.raises(TypeError, match="cannot be pickled"):
            search_weights(
                small_scenario,
                lambda w: SLRH1(SlrhConfig(weights=w)),
                coarse_step=0.5,
                fine=False,
                n_jobs=2,
            )

    def test_empty_result_near_best(self):
        res = WeightSearchResult(best_weights=None, best_result=None)
        assert res.accepted_near_best() == []
