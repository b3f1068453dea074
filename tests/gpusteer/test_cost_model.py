"""Closed-form kernel cost model vs the emulator's measured profiles.

The benchmark harness trusts these formulas at paper scale; here they are
held to the emulator's accounting on emulable populations.  Tolerances
cover the documented sparse-divergence approximation.
"""

import numpy as np
import pytest

from repro.cupp import Device, Kernel, Vector
from repro.gpusteer import (
    LaunchGeometry,
    MAX_NEIGHBORS,
    WorkloadStats,
    find_neighbors_v1,
    find_neighbors_v2,
    neighbor_v1_cost,
    neighbor_v2_cost,
    simulate_cost,
    simulate_v3,
    simulate_v4,
)
from repro.simgpu import G80_COSTS
from repro.steer import BoidsParams

PARAMS = BoidsParams()
N = 64
TPB = 32


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(99)
    return rng.uniform(-14, 14, size=(N, 3)).astype(np.float32)


@pytest.fixture(scope="module")
def stats(cloud):
    return WorkloadStats.measure(cloud.astype(np.float64), PARAMS)


def launch_neighbors(kernel_fn, cloud):
    dev = Device()
    pos = Vector(cloud.reshape(-1), dtype=np.float32)
    res = Vector(np.full(MAX_NEIGHBORS * N, -1, np.int32), dtype=np.int32)
    Kernel(kernel_fn, N // TPB, TPB)(dev, pos, PARAMS.search_radius, res)
    return dev.runtime.last_launch.profile


def launch_simulate(kernel_fn, cloud):
    dev = Device()
    rng = np.random.default_rng(1)
    fwd = rng.normal(size=(N, 3))
    fwd /= np.linalg.norm(fwd, axis=1, keepdims=True)
    pos = Vector(cloud.reshape(-1), dtype=np.float32)
    fwd_v = Vector(fwd.astype(np.float32).reshape(-1), dtype=np.float32)
    steer = Vector(np.zeros(3 * N, np.float32), dtype=np.float32)
    Kernel(kernel_fn, N // TPB, TPB)(
        dev,
        pos,
        fwd_v,
        PARAMS.search_radius,
        PARAMS.separation_weight,
        PARAMS.alignment_weight,
        PARAMS.cohesion_weight,
        steer,
    )
    return dev.runtime.last_launch.profile


def assert_close(model_value, measured_value, rel, label):
    assert measured_value > 0, f"{label}: emulator measured nothing"
    ratio = model_value / measured_value
    assert (1 - rel) <= ratio <= (1 + rel), (
        f"{label}: model {model_value} vs measured {measured_value} "
        f"(ratio {ratio:.3f}, allowed ±{rel:.0%})"
    )


GEOM = LaunchGeometry(N, TPB)


class TestNeighborV1Model:
    def test_issue_cycles(self, cloud, stats):
        profile = launch_neighbors(find_neighbors_v1, cloud)
        model = neighbor_v1_cost(GEOM, stats)
        assert_close(
            model.issue_cycles, profile.issue_cycles(G80_COSTS), 0.15, "v1 issue"
        )

    def test_bytes_moved(self, cloud, stats):
        profile = launch_neighbors(find_neighbors_v1, cloud)
        model = neighbor_v1_cost(GEOM, stats)
        measured = profile.bytes_read + profile.bytes_written
        assert_close(model.bytes_moved, measured, 0.15, "v1 bytes")

    def test_global_reads(self, cloud, stats):
        profile = launch_neighbors(find_neighbors_v1, cloud)
        model = neighbor_v1_cost(GEOM, stats)
        assert_close(model.global_reads, profile.global_reads, 0.15, "v1 reads")


class TestNeighborV2Model:
    def test_issue_cycles(self, cloud, stats):
        profile = launch_neighbors(find_neighbors_v2, cloud)
        model = neighbor_v2_cost(GEOM, stats)
        assert_close(
            model.issue_cycles, profile.issue_cycles(G80_COSTS), 0.20, "v2 issue"
        )

    def test_bytes_moved(self, cloud, stats):
        profile = launch_neighbors(find_neighbors_v2, cloud)
        model = neighbor_v2_cost(GEOM, stats)
        measured = profile.bytes_read + profile.bytes_written
        assert_close(model.bytes_moved, measured, 0.20, "v2 bytes")

    def test_v1_v2_traffic_ratio_preserved(self, cloud, stats):
        # The model must reproduce the headline: tiling slashes traffic.
        p1 = launch_neighbors(find_neighbors_v1, cloud)
        p2 = launch_neighbors(find_neighbors_v2, cloud)
        m1 = neighbor_v1_cost(GEOM, stats)
        m2 = neighbor_v2_cost(GEOM, stats)
        measured_ratio = (p1.bytes_read + p1.bytes_written) / (
            p2.bytes_read + p2.bytes_written
        )
        model_ratio = m1.bytes_moved / m2.bytes_moved
        assert model_ratio == pytest.approx(measured_ratio, rel=0.25)


class TestSimulateModel:
    @pytest.mark.parametrize(
        "kernel_fn,cache", [(simulate_v3, True), (simulate_v4, False)]
    )
    def test_issue_cycles(self, kernel_fn, cache, cloud, stats):
        profile = launch_simulate(kernel_fn, cloud)
        model = simulate_cost(GEOM, stats, local_cache=cache)
        assert_close(
            model.issue_cycles,
            profile.issue_cycles(G80_COSTS),
            0.25,
            f"simulate cache={cache} issue",
        )

    @pytest.mark.parametrize(
        "kernel_fn,cache", [(simulate_v3, True), (simulate_v4, False)]
    )
    def test_bytes_moved(self, kernel_fn, cache, cloud, stats):
        profile = launch_simulate(kernel_fn, cloud)
        model = simulate_cost(GEOM, stats, local_cache=cache)
        measured = profile.bytes_read + profile.bytes_written
        assert_close(
            model.bytes_moved, measured, 0.30, f"simulate cache={cache} bytes"
        )

    def test_model_orders_v3_above_v4(self, stats):
        m3 = simulate_cost(GEOM, stats, local_cache=True)
        m4 = simulate_cost(GEOM, stats, local_cache=False)
        assert m3.bytes_moved > m4.bytes_moved


class TestWorkloadStats:
    def test_measure_counts_in_radius_pairs(self):
        # Four agents on a line, radius covers only adjacent pairs.
        pos = np.array([[0, 0, 0], [5, 0, 0], [10, 0, 0], [100, 0, 0]], float)
        s = WorkloadStats.measure(pos, BoidsParams(search_radius=6.0))
        # agent0<->1, 1<->2 in radius: counts = [1, 2, 1, 0] -> mean 1.0
        assert s.in_radius_per_agent == pytest.approx(1.0)
        assert s.full_insert_fraction == 0.0

    def test_pair_at_exactly_the_radius_is_not_counted(self):
        # The search and every kernel test d2 < r2, so two agents exactly
        # one search radius apart are not neighbors.
        pos = np.array([[0, 0, 0], [9, 0, 0]], float)
        s = WorkloadStats.measure(pos, PARAMS)
        assert s.in_radius_per_agent == 0.0
        assert s.avg_neighbors == 0.0

    def test_full_fraction_rises_with_density(self):
        rng = np.random.default_rng(2)
        sparse = WorkloadStats.measure(
            rng.uniform(-50, 50, (256, 3)), BoidsParams()
        )
        dense = WorkloadStats.measure(
            rng.uniform(-5, 5, (256, 3)), BoidsParams()
        )
        assert dense.in_radius_per_agent > sparse.in_radius_per_agent
        assert dense.full_insert_fraction > sparse.full_insert_fraction

    def test_estimate_scales_with_population(self):
        a = WorkloadStats.estimate(1024, PARAMS)
        b = WorkloadStats.estimate(4096, PARAMS)
        assert b.in_radius_per_agent > a.in_radius_per_agent

    def test_estimate_caps_at_population(self):
        s = WorkloadStats.estimate(8, BoidsParams(search_radius=1000))
        assert s.in_radius_per_agent <= 7
