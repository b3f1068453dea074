"""Agent vehicle model, world wrap, staged main loop, think frequency."""

import numpy as np
import pytest

from repro.steer import (
    Agent,
    BoidsParams,
    DEFAULT_PARAMS,
    NO_NEIGHBOR,
    ReferenceSimulation,
    Simulation,
    Vec3,
    apply_steering,
    draw_matrix,
    neighbor_search_all_pure,
    spawn_agents,
    think_cohort,
    wrap_spherical,
)

PARAMS = DEFAULT_PARAMS


class TestVehicleModel:
    def make_agent(self):
        return Agent(position=Vec3(), forward=Vec3(1, 0, 0), speed=2.0)

    def test_steering_accelerates(self):
        a = self.make_agent()
        apply_steering(a, Vec3(10, 0, 0), PARAMS)
        assert a.speed > 2.0
        assert a.position.x > 0

    def test_force_clipped_to_max(self):
        a = self.make_agent()
        b = self.make_agent()
        apply_steering(a, Vec3(1e6, 0, 0), PARAMS)
        apply_steering(b, Vec3(PARAMS.max_force, 0, 0), PARAMS)
        assert a.speed == pytest.approx(b.speed)

    def test_speed_clipped_to_max(self):
        a = self.make_agent()
        for _ in range(200):
            apply_steering(a, Vec3(PARAMS.max_force, 0, 0), PARAMS)
        assert a.speed <= PARAMS.max_speed * (1 + 1e-9)

    def test_forward_follows_velocity(self):
        a = self.make_agent()
        apply_steering(a, Vec3(0, 1e3, 0), PARAMS)
        assert a.forward.y > 0
        assert a.forward.length() == pytest.approx(1.0)

    def test_zero_steering_is_straight_flight(self):
        a = self.make_agent()
        apply_steering(a, Vec3(), PARAMS)
        assert a.position.distance(Vec3(2.0 * PARAMS.dt, 0, 0)) < 1e-12
        assert a.forward == Vec3(1, 0, 0)

    def test_smoothing_gate_on_first_step(self):
        # First step applies the raw acceleration; later steps blend.
        a = self.make_agent()
        apply_steering(a, Vec3(10, 0, 0), PARAMS)
        first = a.smoothed_accel
        apply_steering(a, Vec3(10, 0, 0), PARAMS)
        second = a.smoothed_accel
        assert first.x == pytest.approx(10.0)
        assert second.x == pytest.approx(10.0)  # blend of equal values


class TestWorldWrap:
    def test_inside_unchanged(self):
        p = Vec3(10, 0, 0)
        assert wrap_spherical(Vec3(9, 0, 0), p, 50.0) == p

    def test_outside_mirrors_to_opposite_point(self):
        # §5.1: re-enter at the diametric opposite point — the antipode
        # of the last in-world position, so the agent is back *inside*.
        old = Vec3(49.5, 0, 0)
        p = Vec3(51, 0, 0)
        assert wrap_spherical(old, p, 50.0) == Vec3(-49.5, 0, 0)

    def test_boundary_is_inside(self):
        p = Vec3(50, 0, 0)
        assert wrap_spherical(Vec3(49, 0, 0), p, 50.0) == p

    @pytest.mark.parametrize(
        "impl", ["agent", "simulation", "host-v4", "sim-v5", "native-v5"]
    )
    def test_leaving_agent_stays_in_world(self, impl):
        # Sixteen agents just inside the sphere fly radially outward at
        # max speed, so every one of them leaves on the first step.  In
        # each of the five wrap sites the state stays within the world
        # radius (plus float32 rounding) after every step.
        states = _step_positions(impl, *_leaving_state(16), steps=6)
        assert len(states) == 6
        for p in states:
            radii = np.linalg.norm(p, axis=1)
            assert radii.max() <= PARAMS.world_radius * (1 + 1e-6)

    @pytest.mark.parametrize(
        "pair", [("agent", "simulation"), ("sim-v5", "native-v5")]
    )
    def test_wrap_keeps_twins_bit_identical(self, pair):
        a, b = (_step_positions(impl, *_leaving_state(16), steps=6)
                for impl in pair)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa, pb)


def _leaving_state(n):
    """Radially outward agents at max speed, half a step inside R."""
    k = np.arange(n) + 0.5
    polar = np.arccos(1 - 2 * k / n)
    azimuth = np.pi * (1 + 5**0.5) * k
    fwd = np.stack(
        [
            np.sin(polar) * np.cos(azimuth),
            np.sin(polar) * np.sin(azimuth),
            np.cos(polar),
        ],
        axis=1,
    )
    fwd /= np.linalg.norm(fwd, axis=1)[:, None]
    radius = PARAMS.world_radius - 0.5 * PARAMS.max_speed * PARAMS.dt
    return fwd * radius, fwd


def _step_positions(impl, pos, fwd, steps):
    """Per-step (n, 3) float64 positions of one wrap implementation."""
    n = pos.shape[0]
    states = []
    if impl == "agent":
        ref = ReferenceSimulation(n, PARAMS, seed=0)
        for agent, p, f in zip(ref.agents, pos, fwd):
            agent.position, agent.forward = Vec3(*p), Vec3(*f)
            agent.speed = PARAMS.max_speed
        for _ in range(steps):
            ref.update()
            states.append(
                np.array([a.position.as_tuple() for a in ref.agents])
            )
        return states
    if impl == "simulation":
        sim = Simulation(n, PARAMS, seed=0)
        sim.positions, sim.forwards = pos.copy(), fwd.copy()
        sim.speeds = np.full(n, PARAMS.max_speed)
        for _ in range(steps):
            sim.update()
            states.append(sim.positions.copy())
        return states
    from repro.cupp import Device
    from repro.gpusteer import EmulatedBoids

    backend, version = {
        "host-v4": ("native", 4),
        "sim-v5": ("sim", 5),
        "native-v5": ("native", 5),
    }[impl]
    eb = EmulatedBoids(
        n, version, PARAMS, seed=0, device=Device(backend=backend),
        threads_per_block=16,
    )
    eb._write_vec3(eb.positions, pos)
    eb._write_vec3(eb.forwards, fwd)
    for i in range(n):
        eb.speeds[i] = PARAMS.max_speed
    for _ in range(steps):
        eb.step()
        states.append(eb.snapshot()["positions"].astype(np.float64))
    return states


class TestSpawn:
    def test_deterministic_given_seed(self):
        a = spawn_agents(16, PARAMS, seed=42)
        b = spawn_agents(16, PARAMS, seed=42)
        assert all(
            x.position == y.position and x.forward == y.forward
            for x, y in zip(a, b)
        )

    def test_all_inside_world(self):
        for agent in spawn_agents(64, PARAMS, seed=1):
            assert agent.position.length() <= PARAMS.world_radius
            assert agent.forward.length() == pytest.approx(1.0)


class TestThinkCohort:
    def test_disabled_means_everyone(self):
        assert len(think_cohort(100, 3, 1)) == 100

    def test_tenth_of_agents_per_step(self):
        sizes = [len(think_cohort(100, s, 10)) for s in range(10)]
        assert sizes == [10] * 10

    def test_cohorts_partition_population(self):
        seen = np.concatenate([think_cohort(100, s, 10) for s in range(10)])
        assert sorted(seen) == list(range(100))

    def test_cycle_repeats(self):
        np.testing.assert_array_equal(
            think_cohort(64, 0, 10), think_cohort(64, 10, 10)
        )


class TestSimulationEngines:
    def test_numpy_matches_reference_one_step(self):
        n = 24
        ref = ReferenceSimulation(n, PARAMS, seed=9)
        fast = Simulation(n, PARAMS, seed=9)
        ref.update()
        fast.update()
        a, b = ref.state_snapshot(), fast.state_snapshot()
        np.testing.assert_allclose(a["positions"], b["positions"], atol=1e-9)
        np.testing.assert_allclose(a["forwards"], b["forwards"], atol=1e-9)
        np.testing.assert_allclose(a["speeds"], b["speeds"], atol=1e-9)

    def test_numpy_matches_reference_several_steps(self):
        n = 16
        ref = ReferenceSimulation(n, PARAMS, seed=3)
        fast = Simulation(n, PARAMS, seed=3)
        for _ in range(5):
            ref.update()
            fast.update()
        a, b = ref.state_snapshot(), fast.state_snapshot()
        np.testing.assert_allclose(a["positions"], b["positions"], atol=1e-6)

    def test_kdtree_engine_matches_numpy_engine(self, monkeypatch):
        # The vectorized simulation stepped by its kd-tree search, against
        # the same simulation stepped by the listing 5.2 reference rows:
        # the search returns identical ordered rows, so the flocks are
        # bit-identical.
        import repro.steer.simulation as simulation_module

        def reference_search(positions, params, rows=None):
            pure = neighbor_search_all_pure(
                [Vec3.from_tuple(p) for p in positions], params
            )
            out = np.full_like(pure, NO_NEIGHBOR)
            query = np.arange(len(pure)) if rows is None else rows
            out[query] = pure[query]
            return out

        n = 40
        a = Simulation(n, PARAMS, seed=5)
        for _ in range(3):
            a.update()
        monkeypatch.setattr(
            simulation_module, "neighbor_search_all", reference_search
        )
        b = Simulation(n, PARAMS, seed=5)
        for _ in range(3):
            b.update()
        sa, sb = a.state_snapshot(), b.state_snapshot()
        for field in sa:
            np.testing.assert_array_equal(sa[field], sb[field])

    def test_think_frequency_equivalence(self):
        # With think frequency, the reference and vectorized simulations
        # still agree.
        params = PARAMS.with_think_frequency(4)
        ref = ReferenceSimulation(12, params, seed=2)
        fast = Simulation(12, params, seed=2)
        for _ in range(6):
            ref.update()
            fast.update()
        np.testing.assert_allclose(
            ref.state_snapshot()["positions"], fast.positions, atol=1e-6
        )

    def test_agents_stay_in_world(self):
        sim = Simulation(64, PARAMS, seed=7)
        sim.run(20)
        radii = np.linalg.norm(sim.positions, axis=1)
        # One step past the boundary is possible before wrapping; bound it.
        assert radii.max() <= PARAMS.world_radius + PARAMS.max_speed * PARAMS.dt

    def test_speeds_bounded(self):
        sim = Simulation(64, PARAMS, seed=7)
        sim.run(20)
        assert sim.speeds.max() <= PARAMS.max_speed * (1 + 1e-9)

    def test_flock_polarizes_over_time(self):
        # Emergent group behaviour (§5.1): alignment drives the flock
        # toward a common heading, raising global polarization
        # |mean(forward)| — the classic Boids order parameter.  Use a
        # denser world so agents actually interact.
        import dataclasses

        dense = dataclasses.replace(PARAMS, world_radius=18.0)
        sim = Simulation(128, dense, seed=11)

        def polarization():
            return float(np.linalg.norm(sim.forwards.mean(axis=0)))

        before = polarization()
        sim.run(80)
        assert polarization() > before

    def test_profile_accumulates(self):
        sim = Simulation(32, PARAMS, seed=1)
        sim.run(3)
        assert sim.profile.cycles["neighbor_search"] > 0
        assert sim.profile.cycles["draw"] > 0

    def test_draw_matrices_shape_and_orthonormality(self):
        sim = Simulation(8, PARAMS, seed=4)
        sim.update()
        mats = sim.draw_stage()
        assert mats.shape == (8, 4, 4)
        rot = mats[:, :3, :3]
        eye = np.einsum("nij,nkj->nik", rot, rot)
        np.testing.assert_allclose(eye, np.broadcast_to(np.eye(3), (8, 3, 3)), atol=1e-9)

    def test_reference_draw_matrix_matches_numpy(self):
        ref = ReferenceSimulation(6, PARAMS, seed=8)
        fast = Simulation(6, PARAMS, seed=8)
        ref.update()
        fast.update()
        ref_mats = np.array(ref.draw_matrices())
        fast_mats = fast.draw_stage()
        np.testing.assert_allclose(ref_mats, fast_mats, atol=1e-9)
