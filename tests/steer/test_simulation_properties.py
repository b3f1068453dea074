"""Property-based invariants of the Boids simulation."""

import dataclasses

import hypothesis.strategies as st
import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.steer import BoidsParams, Simulation

params_strategy = st.builds(
    BoidsParams,
    world_radius=st.floats(10.0, 80.0),
    search_radius=st.floats(1.0, 15.0),
    max_speed=st.floats(1.0, 20.0),
    max_force=st.floats(5.0, 60.0),
    think_every=st.sampled_from([1, 3, 10]),
)


class TestSimulationInvariants:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(params=params_strategy, n=st.integers(4, 48), seed=st.integers(0, 2**16))
    def test_physical_invariants_hold(self, params, n, seed):
        sim = Simulation(n, params, seed=seed)
        sim.run(8)
        # Speeds never exceed the limit.
        assert sim.speeds.max() <= params.max_speed * (1 + 1e-9)
        # Positions stay within one overshoot step of the world sphere.
        radii = np.linalg.norm(sim.positions, axis=1)
        assert radii.max() <= params.world_radius + params.max_speed * params.dt
        # Forward vectors stay unit length.
        norms = np.linalg.norm(sim.forwards, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)
        # No NaNs ever.
        for arr in (sim.positions, sim.forwards, sim.speeds, sim.steering):
            assert np.isfinite(arr).all()

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_determinism(self, seed):
        a = Simulation(24, seed=seed)
        b = Simulation(24, seed=seed)
        a.run(5)
        b.run(5)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.speeds, b.speeds)

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(4, 32), seed=st.integers(0, 2**16))
    def test_profile_monotone(self, n, seed):
        sim = Simulation(n, seed=seed)
        totals = []
        for _ in range(3):
            sim.frame()
            totals.append(sim.profile.total)
        assert totals == sorted(totals)
        assert totals[0] > 0
