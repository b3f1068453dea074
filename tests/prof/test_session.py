"""Session mechanics: the global hook, capture, aggregation, inertness."""

import numpy as np
import pytest

from repro.cupp.device import Device
from repro.gpusteer.emulated import EmulatedBoids
from repro.prof import hook
from repro.prof.session import ProfSession


def run_pipeline(version=1, backend="sim", session=None, steps=1, n=32):
    boids = EmulatedBoids(
        n, version, seed=5, device=Device(backend=backend),
        threads_per_block=16,
    )
    if session is None:
        for _ in range(steps):
            boids.step()
        return None
    with session:
        for _ in range(steps):
            boids.step()
    return session


class TestHook:
    def test_inactive_by_default(self):
        assert hook.active() is None

    def test_activate_deactivate_roundtrip(self):
        s = ProfSession()
        with s:
            assert hook.active() is s
        assert hook.active() is None

    def test_no_nesting(self):
        with ProfSession():
            with pytest.raises(RuntimeError):
                ProfSession().__enter__()
        assert hook.active() is None

    def test_deactivate_is_idempotent_and_owner_checked(self):
        s, other = ProfSession(), ProfSession()
        hook.activate(s)
        hook.deactivate(other)  # not the owner: no-op
        assert hook.active() is s
        hook.deactivate(s)
        assert hook.active() is None

    def test_exception_inside_session_still_detaches(self):
        with pytest.raises(ValueError):
            with ProfSession():
                raise ValueError("boom")
        assert hook.active() is None


class TestCapture:
    def test_v1_records_the_neighbor_kernel(self):
        session = run_pipeline(1, session=ProfSession())
        assert "find_neighbors_v1" in session.kernels
        kc = session.kernels["find_neighbors_v1"]
        assert kc.launches == 1
        assert kc.instructions > 0
        assert kc.modelled_s > 0
        assert session.archs["find_neighbors_v1"].warp_size == 32

    def test_v5_records_both_kernels(self):
        session = run_pipeline(5, session=ProfSession())
        assert set(session.kernels) >= {"simulate_v4", "modify_kernel"}

    def test_launches_aggregate_per_name(self):
        # Counters accumulate across launches of the same kernel name
        # (exact instruction counts differ per step — modify_kernel's
        # step_index==0 branch — so assert monotone accumulation).
        one = run_pipeline(5, session=ProfSession(), steps=1)
        two = run_pipeline(5, session=ProfSession(), steps=2)
        for name, kc in one.kernels.items():
            kc2 = two.kernels[name]
            assert kc2.launches == 2 * kc.launches
            assert kc2.instructions > kc.instructions
            assert kc2.modelled_s > kc.modelled_s

    def test_sim_measured_equals_modelled(self):
        session = run_pipeline(1, session=ProfSession())
        kc = session.kernels["find_neighbors_v1"]
        assert kc.measured_s == pytest.approx(kc.modelled_s)

    def test_native_measures_wall_clock_but_profiles_identically(self):
        sim = run_pipeline(5, backend="sim", session=ProfSession())
        nat = run_pipeline(5, backend="native", session=ProfSession())
        for name, kc in sim.kernels.items():
            kc_nat = nat.kernels[name]
            assert kc_nat.backend == "native"
            assert kc_nat.instructions == kc.instructions
            assert kc_nat.uncoalesced_transactions == (
                kc.uncoalesced_transactions
            )

    def test_totals(self):
        session = run_pipeline(5, session=ProfSession())
        assert session.total_modelled_s == pytest.approx(
            sum(k.modelled_s for k in session.kernels.values())
        )
        assert session.launch_count == 2


class TestInertness:
    def test_no_session_no_capture(self):
        # The whole inertness story: nothing attached, nothing recorded.
        assert run_pipeline(1) is None
        assert hook.active() is None

    def test_native_vectorized_skips_replay_when_inactive(self):
        boids = EmulatedBoids(
            32, 5, seed=5, device=Device(backend="native"),
            threads_per_block=16,
        )
        runtime = boids.device.runtime
        launches = []

        def checked(kernel):
            def call(*args):
                kernel(*args)
                launches.append(runtime.last_launch)
            return call

        boids._k_simulate = checked(boids._k_simulate)
        boids._k_modify = checked(boids._k_modify)
        boids.step()
        assert len(launches) == 2, "expected one launch per kernel call"
        assert all(r.vectorized for r in launches)
        assert all(
            r.profile is None for r in launches
        ), "replay profile must not be derived without a session"

    def test_native_replay_restores_memory_exactly(self):
        def states(session):
            boids = EmulatedBoids(
                32, 5, seed=5, device=Device(backend="native"),
                threads_per_block=16,
            )
            if session is not None:
                with session:
                    boids.step()
            else:
                boids.step()
            return boids.snapshot()

        plain = states(None)
        profiled = states(ProfSession())
        for key, arr in plain.items():
            np.testing.assert_array_equal(arr, profiled[key])
