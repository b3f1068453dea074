"""Neighbor search: listing 5.2 semantics, and the fast kd-tree search
row-for-row against the listing 5.2 reference."""

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.steer import (
    BoidsParams,
    NO_NEIGHBOR,
    Vec3,
    neighbor_search_all,
    neighbor_search_all_pure,
    neighbor_search_pure,
)

PARAMS = BoidsParams()


def line_positions(n, spacing=1.0):
    return [Vec3(i * spacing, 0.0, 0.0) for i in range(n)]


class TestPureSearch:
    def test_finds_nearest_within_radius(self):
        pos = line_positions(5, spacing=2.0)
        found = neighbor_search_pure(pos, 0, search_radius=5.0)
        assert found[:2] == [1, 2]
        assert found[2:] == [NO_NEIGHBOR] * 5

    def test_excludes_self(self):
        pos = [Vec3(0, 0, 0)] * 3  # all stacked at the origin
        found = neighbor_search_pure(pos, 1, search_radius=1.0)
        assert 1 not in found
        assert set(found[:2]) == {0, 2}

    def test_keeps_only_seven_nearest(self):
        pos = line_positions(20, spacing=0.5)
        found = neighbor_search_pure(pos, 0, search_radius=100.0)
        assert found == [1, 2, 3, 4, 5, 6, 7]

    def test_replacement_rule_keeps_closest(self):
        # Agents appear far-first so the replacement branch exercises.
        pos = [Vec3(0, 0, 0)] + [Vec3(10.0 - i, 0, 0) for i in range(9)]
        found = neighbor_search_pure(pos, 0, search_radius=100.0)
        dists = [pos[j].x for j in found]
        assert dists == sorted(dists)
        assert len(found) == 7
        assert max(dists) == 8.0  # the two farthest (x=9, x=10) got replaced

    def test_radius_is_exclusive(self):
        pos = [Vec3(0, 0, 0), Vec3(5.0, 0, 0)]
        assert neighbor_search_pure(pos, 0, search_radius=5.0)[0] == NO_NEIGHBOR
        assert neighbor_search_pure(pos, 0, search_radius=5.001)[0] == 1

    def test_isolated_agent_has_no_neighbors(self):
        pos = [Vec3(0, 0, 0), Vec3(1000, 0, 0)]
        assert neighbor_search_pure(pos, 0, 9.0) == [NO_NEIGHBOR] * 7


def pure_rows(pts):
    """The listing 5.2 reference over an ``(n, 3)`` array."""
    return neighbor_search_all_pure([Vec3.from_tuple(p) for p in pts], PARAMS)


class TestEngineEquivalence:
    """The fast path against the reference: identical rows, in order —
    row order feeds the float sums in ``flocking_np``."""

    def test_matches_pure_on_random_cloud(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-20, 20, size=(64, 3))
        np.testing.assert_array_equal(
            neighbor_search_all(pts, PARAMS), pure_rows(pts)
        )

    def test_pair_whose_distance_rounds_to_the_radius_is_kept(self):
        # d2 < r2, but sqrt(d2) rounds to exactly the radius: the tree's
        # distance alone would drop this pair; listing 5.2 keeps it.
        other = [
            float.fromhex(h)
            for h in ("0x1.a4521d109cf4ap+1", "0x1.0a21723a9f6ffp+3",
                      "-0x1.067f1a5ad3773p+0")
        ]
        pts = np.array([[0.0, 0.0, 0.0], other])
        assert np.sqrt((pts[1] ** 2).sum()) == PARAMS.search_radius
        np.testing.assert_array_equal(
            neighbor_search_all(pts, PARAMS), pure_rows(pts)
        )
        assert neighbor_search_all(pts, PARAMS)[0, 0] == 1

    def test_sorted_by_distance(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-10, 10, size=(32, 3))
        result = neighbor_search_all(pts, PARAMS)
        for i in range(32):
            valid = [j for j in result[i] if j != NO_NEIGHBOR]
            dists = [np.sum((pts[i] - pts[j]) ** 2) for j in valid]
            assert dists == sorted(dists)

    def test_tiny_populations(self):
        for n in (1, 2, 3):
            pts = np.zeros((n, 3))
            result = neighbor_search_all(pts, PARAMS)
            assert result.shape == (n, PARAMS.max_neighbors)
            for i in range(n):
                assert i not in set(result[i])
            # Stacked agents tie exactly: the reference decides.
            np.testing.assert_array_equal(result, pure_rows(pts))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 2**31 - 1))
    def test_engines_agree_property(self, n, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-15, 15, size=(n, 3))
        np.testing.assert_array_equal(
            neighbor_search_all(pts, PARAMS), pure_rows(pts)
        )

    @pytest.mark.parametrize(
        "cohort",
        [np.arange(3, 50, 10), np.array([49]), np.array([], dtype=np.int64)],
        ids=["neighbor_search_all-every_tenth", "neighbor_search_all-one_row",
             "neighbor_search_all-empty"],
    )
    def test_cohort_restriction_fills_only_cohort_rows(self, cohort):
        # The think-frequency path (§5.3): only the cohort searches.
        rng = np.random.default_rng(13)
        pts = rng.uniform(-15, 15, size=(50, 3))
        partial = neighbor_search_all(pts, PARAMS, rows=cohort)
        np.testing.assert_array_equal(partial[cohort], pure_rows(pts)[cohort])
        others = np.setdiff1d(np.arange(50), cohort)
        assert (partial[others] == NO_NEIGHBOR).all()

    def test_cohort_restriction_through_dispatcher(self):
        # The public entry point the simulation calls, with a cohort: the
        # cohort rows are the reference's, in order.
        from repro.steer import neighbor_search_all as public_search

        rng = np.random.default_rng(14)
        pts = rng.uniform(-15, 15, size=(40, 3))
        cohort = np.array([0, 7, 21])
        partial = public_search(pts, PARAMS, rows=cohort)
        np.testing.assert_array_equal(partial[cohort], pure_rows(pts)[cohort])
        others = np.setdiff1d(np.arange(40), cohort)
        assert (partial[others] == NO_NEIGHBOR).all()
