"""The per-version timing model: Table 6.1 semantics and the shapes of
Figs. 6.2 / 6.3 / 6.4."""

import pytest

from repro.gpusteer import (
    VERSIONS,
    compare,
    speedup_vs_cpu,
    update_time,
)
from repro.steer import DEFAULT_PARAMS, THINK_FREQ_PARAMS

#: The paper's Fig. 6.2 anchors at 4096 agents, and the tolerance the
#: reproduction must stay inside (model, not the authors' testbed).
PAPER_SPEEDUPS = {1: 3.9, 2: 12.9, 3: 27.0, 4: 28.8, 5: 42.0}
TOLERANCE = 0.30


class TestTable61:
    def test_feature_matrix(self):
        # Table 6.1 row by row.
        assert not VERSIONS[0].neighbor_on_device
        for v in (1, 2, 3, 4, 5):
            assert VERSIONS[v].neighbor_on_device
        for v in (3, 4, 5):
            assert VERSIONS[v].steering_on_device
        for v in (1, 2):
            assert not VERSIONS[v].steering_on_device
        assert VERSIONS[5].modification_on_device
        for v in (1, 2, 3, 4):
            assert not VERSIONS[v].modification_on_device
        assert not VERSIONS[1].uses_shared_memory
        for v in (2, 3, 4, 5):
            assert VERSIONS[v].uses_shared_memory
        assert VERSIONS[3].local_mem_caching
        assert not VERSIONS[4].local_mem_caching

class TestKernelRows:
    """``update_time`` records each launched kernel's cost row; the rows
    are the one table of which kernels a version launches."""

    KERNELS = {
        0: [],
        1: ["find_neighbors_v1"],
        2: ["find_neighbors_v2"],
        3: ["simulate_v3"],
        4: ["simulate_v4"],
        5: ["simulate_v4", "modify_kernel"],
        6: ["simulate_grid", "modify_kernel"],
    }

    @pytest.mark.parametrize("params", [DEFAULT_PARAMS, THINK_FREQ_PARAMS])
    @pytest.mark.parametrize("version", [0, 1, 2, 3, 4, 5, 6])
    def test_rows_sum_to_gpu_kernel_seconds_bit_exactly(self, version, params):
        b = update_time(version, 4096, params)
        assert [name for name, _inputs, _s in b.kernel_rows] == (
            self.KERNELS[version]
        )
        assert sum(s for _name, _inputs, s in b.kernel_rows) == b.gpu_kernel_s

    def test_step_engine_serves_the_same_rows(self):
        from repro.serve.engine import StepEngine

        engine = StepEngine()
        rows = engine.kernel_cost_rows(128)
        assert rows == update_time(5, 128, DEFAULT_PARAMS).kernel_rows
        assert sum(s for _name, _inputs, s in rows) == engine.kernel_seconds(128)


class TestFig62Ladder:
    @pytest.mark.parametrize("version,paper", sorted(PAPER_SPEEDUPS.items()))
    def test_speedup_within_band(self, version, paper):
        got = speedup_vs_cpu(version, 4096, DEFAULT_PARAMS)
        assert paper * (1 - TOLERANCE) <= got <= paper * (1 + TOLERANCE), (
            f"v{version}: modelled {got:.1f}x vs paper {paper}x"
        )

    def test_ladder_is_monotone(self):
        speeds = [speedup_vs_cpu(v, 4096, DEFAULT_PARAMS) for v in range(6)]
        assert speeds == sorted(speeds)

    def test_v2_over_v1_is_the_shared_memory_factor(self):
        # §6.2.1: "almost a factor of 3.3" on the kernel; on the full
        # update stage the paper reports 12.9/3.9 ≈ 3.3 as well.
        ratio = speedup_vs_cpu(2, 4096, DEFAULT_PARAMS) / speedup_vs_cpu(
            1, 4096, DEFAULT_PARAMS
        )
        assert 2.5 <= ratio <= 4.5

    def test_v4_beats_v3(self):
        # §6.2.2: recomputing beats local-memory caching on the G80.
        assert speedup_vs_cpu(4, 4096, DEFAULT_PARAMS) > speedup_vs_cpu(
            3, 4096, DEFAULT_PARAMS
        )

    def test_v1_is_memory_bound_v2_is_not(self):
        from repro.gpusteer import (
            LaunchGeometry,
            WorkloadStats,
            neighbor_v1_cost,
            neighbor_v2_cost,
        )
        from repro.simgpu import kernel_time

        stats = WorkloadStats.estimate(4096, DEFAULT_PARAMS)
        geom = LaunchGeometry(4096, 128)
        t1 = kernel_time(neighbor_v1_cost(geom, stats))
        t2 = kernel_time(neighbor_v2_cost(geom, stats))
        assert t1.bound_by == "memory"
        assert t2.bound_by == "issue"
        assert 2.0 <= t1.total_s / t2.total_s <= 15.0


class TestFig63Scaling:
    def test_quadratic_without_think_frequency(self):
        # Doubling the population quarters the update rate (O(n^2)).
        r8 = update_time(5, 8192, DEFAULT_PARAMS).updates_per_second
        r16 = update_time(5, 16384, DEFAULT_PARAMS).updates_per_second
        assert 3.0 <= r8 / r16 <= 5.5

    def test_think_frequency_near_linear_to_16384(self):
        # §6.3: "scales linear up to 16384 agents".
        prev = update_time(5, 2048, THINK_FREQ_PARAMS).updates_per_second
        for n in (4096, 8192, 16384):
            cur = update_time(5, n, THINK_FREQ_PARAMS).updates_per_second
            assert prev / cur <= 2.4, f"drop too steep at n={n}"
            prev = cur

    def test_sharp_drop_at_32768(self):
        # §6.3: "the performance is reduced by a factor of about 4.8 when
        # the number of agents is doubled" past 16384.
        r16 = update_time(5, 16384, THINK_FREQ_PARAMS).updates_per_second
        r32 = update_time(5, 32768, THINK_FREQ_PARAMS).updates_per_second
        assert r16 / r32 >= 3.0

    def test_think_frequency_always_helps_at_scale(self):
        for n in (8192, 16384, 32768):
            with_tf = update_time(5, n, THINK_FREQ_PARAMS).updates_per_second
            without = update_time(5, n, DEFAULT_PARAMS).updates_per_second
            assert with_tf > without


class TestFig64DoubleBuffering:
    def test_gains_in_paper_band(self):
        # Fig 6.4: improvements between ~12% and ~32%; we allow the band
        # to breathe a little for the model.
        for n in (4096, 8192, 16384, 32768):
            for params in (DEFAULT_PARAMS, THINK_FREQ_PARAMS):
                t = compare(n, params)
                assert 0.03 <= t.improvement <= 0.40, (
                    f"n={n} tf={params.think_every}: {t.improvement:.1%}"
                )

    def test_peak_at_8192_without_think_frequency(self):
        # §6.3.2: gain peaks "when device and host finish their work at
        # the same time ... 8192 agents without think frequency".
        gains = {
            n: compare(n, DEFAULT_PARAMS).improvement
            for n in (4096, 8192, 16384, 32768)
        }
        assert max(gains, key=gains.get) == 8192

    def test_tf_peak_at_32768(self):
        # "... or 32768 agents with think frequency."
        gains = {
            n: compare(n, THINK_FREQ_PARAMS).improvement
            for n in (4096, 8192, 16384, 32768)
        }
        assert max(gains, key=gains.get) == 32768

    def test_4096_is_draw_bound(self):
        # §6.3.2: at 4096 agents think frequency does not matter — the
        # frame rate is pinned by the draw stage.
        a = compare(4096, DEFAULT_PARAMS)
        b = compare(4096, THINK_FREQ_PARAMS)
        assert a.fps_with == pytest.approx(b.fps_with, rel=0.05)

    def test_double_buffering_never_hurts(self):
        for n in (2048, 4096, 16384):
            t = compare(n, DEFAULT_PARAMS)
            assert t.frame_with_s <= t.frame_without_s * 1.001
