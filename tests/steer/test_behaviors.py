"""Steering behaviors: listing semantics + pure/numpy equivalence."""

import numpy as np
import pytest

from repro.steer import (
    BoidsParams,
    NO_NEIGHBOR,
    Vec3,
    alignment_np,
    alignment_pure,
    cohesion_np,
    cohesion_pure,
    flocking_np,
    flocking_pure,
    neighbor_search_all,
    separation_np,
    separation_pure,
)

PARAMS = BoidsParams()


class TestSeparation:
    def test_pushes_away_from_single_neighbor(self):
        pos = [Vec3(0, 0, 0), Vec3(2, 0, 0)]
        steer = separation_pure(0, pos, [1] + [NO_NEIGHBOR] * 6)
        assert steer.x < 0  # away from the neighbor
        assert steer.y == steer.z == 0

    def test_one_over_d_falloff(self):
        # A neighbor at distance d contributes magnitude 1/d (listing 5.3).
        near = separation_pure(
            0, [Vec3(), Vec3(1, 0, 0)], [1] + [NO_NEIGHBOR] * 6
        )
        far = separation_pure(
            0, [Vec3(), Vec3(4, 0, 0)], [1] + [NO_NEIGHBOR] * 6
        )
        assert near.length() == pytest.approx(1.0)
        assert far.length() == pytest.approx(0.25)

    def test_symmetric_neighbors_cancel(self):
        pos = [Vec3(), Vec3(3, 0, 0), Vec3(-3, 0, 0)]
        steer = separation_pure(0, pos, [1, 2] + [NO_NEIGHBOR] * 5)
        assert steer.length() == pytest.approx(0.0, abs=1e-12)

    def test_no_neighbors_is_zero(self):
        assert separation_pure(0, [Vec3()], [NO_NEIGHBOR] * 7) == Vec3()


class TestCohesion:
    def test_pulls_toward_neighbors(self):
        pos = [Vec3(), Vec3(4, 0, 0), Vec3(2, 2, 0)]
        steer = cohesion_pure(0, pos, [1, 2] + [NO_NEIGHBOR] * 5)
        assert steer == Vec3(6, 2, 0)  # sum of offsets (listing 5.4)


class TestAlignment:
    def test_matches_neighbor_heading(self):
        fwd = [Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 1, 0)]
        steer = alignment_pure(0, fwd, [1, 2] + [NO_NEIGHBOR] * 5)
        # sum(neighbors.forward) - count * me.forward  (listing 5.5)
        assert steer == Vec3(-2, 2, 0)

    def test_aligned_flock_gives_zero(self):
        fwd = [Vec3(0, 0, 1)] * 4
        steer = alignment_pure(0, fwd, [1, 2, 3] + [NO_NEIGHBOR] * 4)
        assert steer.length() == pytest.approx(0.0, abs=1e-12)


class TestFlocking:
    def test_weighted_combination(self):
        # Agents in a line; verify flocking = wA*n(sep)+wB*n(ali)+wC*n(coh).
        pos = [Vec3(), Vec3(3, 0, 0)]
        fwd = [Vec3(1, 0, 0), Vec3(0, 1, 0)]
        hood = [1] + [NO_NEIGHBOR] * 6
        f = flocking_pure(0, pos, fwd, hood, PARAMS)
        expected = (
            separation_pure(0, pos, hood).normalize() * PARAMS.separation_weight
            + alignment_pure(0, fwd, hood).normalize() * PARAMS.alignment_weight
            + cohesion_pure(0, pos, hood).normalize() * PARAMS.cohesion_weight
        )
        assert f.distance(expected) < 1e-12

    def test_isolated_agent_gets_zero_steering(self):
        f = flocking_pure(
            0, [Vec3()], [Vec3(1, 0, 0)], [NO_NEIGHBOR] * 7, PARAMS
        )
        assert f.length() == pytest.approx(0.0, abs=1e-12)


class TestNumpyEquivalence:
    @pytest.fixture
    def cloud(self):
        rng = np.random.default_rng(5)
        n = 48
        positions = rng.uniform(-12, 12, size=(n, 3))
        forwards = rng.normal(size=(n, 3))
        forwards /= np.linalg.norm(forwards, axis=1, keepdims=True)
        neighbors = neighbor_search_all(positions, PARAMS)
        return positions, forwards, neighbors

    def test_separation_matches_pure(self, cloud):
        positions, _forwards, neighbors = cloud
        pv = [Vec3.from_tuple(p) for p in positions]
        fast = separation_np(positions, neighbors)
        for i in range(len(pv)):
            ref = separation_pure(i, pv, list(neighbors[i]))
            assert np.allclose(fast[i], ref.as_tuple(), atol=1e-10)

    def test_cohesion_matches_pure(self, cloud):
        positions, _forwards, neighbors = cloud
        pv = [Vec3.from_tuple(p) for p in positions]
        fast = cohesion_np(positions, neighbors)
        for i in range(len(pv)):
            ref = cohesion_pure(i, pv, list(neighbors[i]))
            assert np.allclose(fast[i], ref.as_tuple(), atol=1e-10)

    def test_alignment_matches_pure(self, cloud):
        positions, forwards, neighbors = cloud
        fv = [Vec3.from_tuple(f) for f in forwards]
        fast = alignment_np(forwards, neighbors)
        for i in range(len(fv)):
            ref = alignment_pure(i, fv, list(neighbors[i]))
            assert np.allclose(fast[i], ref.as_tuple(), atol=1e-10)

    def test_flocking_matches_pure(self, cloud):
        positions, forwards, neighbors = cloud
        pv = [Vec3.from_tuple(p) for p in positions]
        fv = [Vec3.from_tuple(f) for f in forwards]
        fast = flocking_np(positions, forwards, neighbors, PARAMS)
        for i in range(len(pv)):
            ref = flocking_pure(i, pv, fv, list(neighbors[i]), PARAMS)
            assert np.allclose(fast[i], ref.as_tuple(), atol=1e-9)
