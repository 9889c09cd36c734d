import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pareto import (
    ParetoArchive,
    dominates,
    front_distances,
    hypervolume_2d,
    pareto_front_indices,
)


class TestDominates:
    def test_strict_domination(self):
        assert dominates([1, 1], [2, 2])

    def test_partial_better(self):
        assert dominates([1, 2], [2, 2])

    def test_equal_not_dominating(self):
        assert not dominates([1, 1], [1, 1])

    def test_tradeoff_not_dominating(self):
        assert not dominates([1, 3], [2, 2])
        assert not dominates([2, 2], [1, 3])


class TestParetoFrontIndices:
    def test_simple_2d(self):
        pts = np.array([[1, 3], [2, 2], [3, 1], [3, 3], [2, 4]])
        front = pareto_front_indices(pts)
        assert sorted(front.tolist()) == [0, 1, 2]

    def test_single_point(self):
        assert pareto_front_indices(np.array([[5.0, 5.0]])).tolist() == [0]

    def test_duplicates_kept_once_at_least(self):
        pts = np.array([[1, 1], [1, 1], [2, 2]])
        front = pareto_front_indices(pts)
        assert 2 not in front.tolist()
        assert len(front) >= 1

    def test_3d(self):
        pts = np.array(
            [[1, 1, 1], [2, 2, 2], [0, 3, 1], [1, 0, 3]]
        )
        front = sorted(pareto_front_indices(pts).tolist())
        assert front == [0, 2, 3]

    def test_all_nondominated(self):
        pts = np.array([[1, 4], [2, 3], [3, 2], [4, 1]])
        assert len(pareto_front_indices(pts)) == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pareto_front_indices(np.empty((0, 2)))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=1000),
           st.integers(min_value=2, max_value=4))
    def test_front_members_mutually_nondominated(self, seed, dims):
        pts = np.random.default_rng(seed).uniform(0, 1, (40, dims))
        front = pareto_front_indices(pts)
        assert len(front) >= 1
        for i in front:
            for j in front:
                assert not dominates(pts[i], pts[j])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_non_members_are_dominated(self, seed):
        pts = np.random.default_rng(seed).uniform(0, 1, (30, 2))
        front = set(pareto_front_indices(pts).tolist())
        for k in range(30):
            if k not in front:
                assert any(
                    dominates(pts[i], pts[k]) for i in front
                ), k


class TestParetoArchive:
    def test_insert_and_evict(self):
        archive = ParetoArchive(2)
        assert archive.insert([2, 2], "a")
        assert archive.insert([1, 3], "b")
        assert not archive.insert([3, 3], "c")  # dominated by a
        assert archive.insert([1, 1], "d")  # dominates a and b
        assert len(archive) == 1
        assert archive.payloads == ["d"]

    def test_duplicate_rejected(self):
        archive = ParetoArchive(2)
        archive.insert([1, 1], "a")
        assert not archive.insert([1, 1], "b")

    def test_dimension_check(self):
        archive = ParetoArchive(2)
        with pytest.raises(ValueError):
            archive.insert([1, 2, 3], "a")

    def test_points_returns_independent_copy(self):
        archive = ParetoArchive(2)
        archive.insert([2, 2], "a")
        archive.insert([1, 3], "b")
        view = archive.points
        view[:] = -99.0
        # the archive's internal state must be unaffected ...
        assert np.array_equal(
            archive.points, np.array([[2.0, 2.0], [1.0, 3.0]])
        )
        # ... and domination tests still behave as before the mutation
        assert not archive.insert([3, 3], "c")

    def test_payloads_returns_independent_list(self):
        archive = ParetoArchive(2)
        archive.insert([1, 1], "a")
        listing = archive.payloads
        listing.append("intruder")
        assert archive.payloads == ["a"]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=500))
    def test_archive_invariant_mutually_nondominated(self, seed):
        """Property: after any insert sequence, the archive holds only
        mutually non-dominated points."""
        rng = np.random.default_rng(seed)
        archive = ParetoArchive(2)
        for k in range(60):
            archive.insert(rng.uniform(0, 1, 2), k)
        pts = archive.points
        for i in range(len(pts)):
            for j in range(len(pts)):
                assert not dominates(pts[i], pts[j])

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=500))
    def test_archive_equals_batch_front(self, seed):
        """Property: incremental archive = batch Pareto filter (on
        distinct points)."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 1, (50, 2))
        archive = ParetoArchive(2)
        for k, p in enumerate(pts):
            archive.insert(p, k)
        batch = set(pareto_front_indices(pts).tolist())
        assert set(archive.payloads) == batch


class TestHypervolume:
    def test_single_point(self):
        hv = hypervolume_2d(np.array([[0.5, 0.5]]), reference=(1, 1))
        assert hv == pytest.approx(0.25)

    def test_better_front_bigger(self):
        good = np.array([[0.1, 0.5], [0.5, 0.1]])
        bad = np.array([[0.4, 0.8], [0.8, 0.4]])
        ref = (1, 1)
        assert hypervolume_2d(good, ref) > hypervolume_2d(bad, ref)

    def test_points_beyond_reference_ignored(self):
        hv = hypervolume_2d(
            np.array([[2.0, 2.0], [0.5, 0.5]]), reference=(1, 1)
        )
        assert hv == pytest.approx(0.25)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            hypervolume_2d(np.zeros((2, 3)), (1, 1, 1))


class TestFrontDistances:
    def test_identical_fronts_zero(self):
        front = np.array([[0.0, 1.0], [1.0, 0.0]])
        stats = front_distances(front, front)
        assert stats["to_optimal_avg"] == 0.0
        assert stats["from_optimal_max"] == 0.0

    def test_directed_asymmetry(self):
        optimal = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
        partial = np.array([[0.0, 1.0]])  # covers one corner only
        stats = front_distances(partial, optimal)
        assert stats["to_optimal_avg"] == 0.0  # member of the optimum
        assert stats["from_optimal_max"] > 0.5  # far corner missed

    def test_explicit_bounds(self):
        a = np.array([[0.0, 10.0]])
        b = np.array([[5.0, 10.0]])
        stats = front_distances(
            a, b, bounds=(np.array([0.0, 0.0]), np.array([10.0, 10.0]))
        )
        assert stats["to_optimal_avg"] == pytest.approx(0.5)

    def test_objective_count_mismatch(self):
        with pytest.raises(ValueError):
            front_distances(np.zeros((1, 2)), np.zeros((1, 3)))
