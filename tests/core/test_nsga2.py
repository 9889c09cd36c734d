import numpy as np
import pytest

from repro.core.dse import random_sampling
from repro.core.modeling import build_training_set, fit_engines, select_best_model
from repro.core.nsga2 import (
    _tournament,
    crowding_distance,
    fast_non_dominated_sort,
    nsga2_search,
)
from repro.core.pareto import dominates
from repro.errors import DSEError


class TestNonDominatedSort:
    def test_layered_fronts(self):
        pts = np.array(
            [[1, 1], [2, 2], [3, 3], [1, 2], [2, 1]]
        )
        fronts = fast_non_dominated_sort(pts)
        assert fronts[0].tolist() == [0]
        assert sorted(fronts[1].tolist()) == [3, 4]
        assert fronts[2].tolist() == [1]
        assert fronts[3].tolist() == [2]

    def test_all_nondominated_single_front(self):
        pts = np.array([[1, 4], [2, 3], [3, 2], [4, 1]])
        fronts = fast_non_dominated_sort(pts)
        assert len(fronts) == 1
        assert sorted(fronts[0].tolist()) == [0, 1, 2, 3]

    def test_partition_is_complete(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, (40, 2))
        fronts = fast_non_dominated_sort(pts)
        combined = sorted(int(i) for f in fronts for i in f)
        assert combined == list(range(40))

    def test_front_members_nondominated_within_front(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1, (30, 3))
        for front in fast_non_dominated_sort(pts):
            for i in front:
                for j in front:
                    assert not dominates(pts[i], pts[j])


class TestCrowdingDistance:
    def test_boundary_points_infinite(self):
        pts = np.array([[0.0, 3.0], [1.0, 2.0], [3.0, 0.0]])
        crowd = crowding_distance(pts)
        assert np.isinf(crowd[0])
        assert np.isinf(crowd[2])
        assert np.isfinite(crowd[1])

    def test_tiny_fronts_all_infinite(self):
        assert np.all(np.isinf(crowding_distance(np.array([[1.0, 2.0]]))))
        assert np.all(
            np.isinf(crowding_distance(np.array([[1.0, 2.0], [2.0, 1.0]])))
        )

    def test_denser_region_lower_distance(self):
        pts = np.array(
            [[0.0, 1.0], [0.1, 0.9], [0.15, 0.85], [1.0, 0.0]]
        )
        crowd = crowding_distance(pts)
        # point 1's nearest neighbours (0 and 2) hug it; point 2 borders
        # the distant point 3, so it is less crowded
        assert crowd[1] < crowd[2]


class TestTournament:
    def test_full_ties_break_randomly(self):
        """Equal rank + equal (infinite) crowding: ~50/50, not always b.

        Regression: the seed implementation resolved exact ties
        deterministically in favour of contestant ``b``.
        """
        n, draws = 6, 20_000
        rank = np.zeros(n, dtype=np.int64)
        crowd = np.full(n, np.inf)
        picks = _tournament(rank, crowd, np.random.default_rng(7), draws)
        # Re-draw the contestant pairs with the same seed to see which
        # side each pick came from.
        replay = np.random.default_rng(7)
        a = replay.integers(0, n, size=draws)
        b = replay.integers(0, n, size=draws)
        distinct = a != b
        frac_a = float(np.mean(picks[distinct] == a[distinct]))
        assert 0.45 < frac_a < 0.55

    def test_lower_rank_still_always_wins(self):
        rank = np.array([0, 1], dtype=np.int64)
        crowd = np.full(2, np.inf)
        picks = _tournament(rank, crowd, np.random.default_rng(0), 500)
        # whenever the contestants differed in rank, rank 0 won
        replay = np.random.default_rng(0)
        a = replay.integers(0, 2, size=500)
        b = replay.integers(0, 2, size=500)
        mixed = rank[a] != rank[b]
        assert np.all(rank[picks[mixed]] == 0)


@pytest.fixture(scope="module")
def models(sobel_space, sobel_evaluator):
    train = build_training_set(sobel_space, sobel_evaluator, 50, rng=0)
    test = build_training_set(sobel_space, sobel_evaluator, 25, rng=1)
    qor = select_best_model(
        fit_engines(sobel_space, train, test, target="qor",
                    engines=["K-Neighbors"])
    ).model
    hw = select_best_model(
        fit_engines(sobel_space, train, test, target="area",
                    engines=["K-Neighbors"])
    ).model
    return qor, hw


class TestNsga2Search:
    def test_result_structure(self, sobel_space, models):
        qor, hw = models
        result = nsga2_search(
            sobel_space, qor, hw, population_size=20, generations=5,
            rng=0,
        )
        assert result.evaluations == 20 * 6
        assert len(result.configs) == result.points.shape[0]
        for config in result.configs:
            sobel_space.validate_configuration(config)

    def test_front_mutually_nondominated(self, sobel_space, models):
        qor, hw = models
        result = nsga2_search(
            sobel_space, qor, hw, population_size=20, generations=8,
            rng=1,
        )
        minimised = np.stack(
            [-result.points[:, 0], result.points[:, 1]], axis=1
        )
        for i in range(len(minimised)):
            for j in range(len(minimised)):
                assert not dominates(minimised[i], minimised[j])

    def test_deterministic(self, sobel_space, models):
        qor, hw = models
        a = nsga2_search(sobel_space, qor, hw, population_size=12,
                         generations=4, rng=5)
        b = nsga2_search(sobel_space, qor, hw, population_size=12,
                         generations=4, rng=5)
        assert a.configs == b.configs

    def test_competitive_with_random_sampling(self, sobel_space, models):
        """With the same evaluation budget NSGA-II's front hypervolume
        should not fall meaningfully below random sampling's."""
        from repro.core.pareto import hypervolume_2d

        qor, hw = models
        result = nsga2_search(
            sobel_space, qor, hw, population_size=40, generations=24,
            rng=2,
        )
        sampled = random_sampling(
            sobel_space, qor, hw,
            max_evaluations=result.evaluations, rng=2,
        )

        def hv(points):
            both = np.vstack([result.points, sampled.points])
            ref = (
                1.0 + 1e-9 - float(both[:, 0].min()) + 1.0,
                float(both[:, 1].max()) * 1.05 + 1e-9,
            )
            minimised = np.stack(
                [1.0 - points[:, 0], points[:, 1]], axis=1
            )
            return hypervolume_2d(minimised, reference=ref)

        assert hv(result.points) >= 0.9 * hv(sampled.points)

    def test_invalid_params(self, sobel_space, models):
        qor, hw = models
        with pytest.raises(DSEError):
            nsga2_search(sobel_space, qor, hw, population_size=3)
        with pytest.raises(DSEError):
            nsga2_search(sobel_space, qor, hw, population_size=11)
        with pytest.raises(DSEError):
            nsga2_search(sobel_space, qor, hw, generations=0)
