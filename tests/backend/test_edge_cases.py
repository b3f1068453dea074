"""Conformance edge cases, parametrized over both backends.

The differential suite covers the pipeline at steady state; these are
the boundary shapes — empty vectors, a single-thread grid over a larger
population, remainder chunk splits, and const (copy-back-elided)
arguments — where a vectorized twin could silently diverge from the
thread-loop emulator.
"""

import numpy as np
import pytest

from repro.backend.base import BACKEND_KINDS
from repro.cuda import CudaMachine, global_
from repro.cupp import (
    ConstRef,
    CuppUsageError,
    Device,
    DeviceVector,
    Kernel,
    Ref,
    Vector,
)
from repro.cupp.multidevice import DeviceGroup
from repro.gpusteer import EmulatedBoids
from repro.gpusteer.kernels_emu import MAX_NEIGHBORS, NO_NEIGHBOR, find_neighbors_v1
from repro.simgpu import OpClass
from repro.simgpu import devicelib as dl
from repro.simgpu.arch import G80_8800GTS
from repro.simgpu.isa import op, st


@global_
def _gather_sum(ctx, src: ConstRef[DeviceVector], out: Ref[DeviceVector]):
    i = ctx.global_thread_id
    total = 0.0
    for j in range(len(src)):
        v = yield from dl.ld_auto(src, j)
        total += v
        yield op(OpClass.FADD)
    yield st(out.view, i, total)


@pytest.mark.parametrize("kind", BACKEND_KINDS)
class TestEmptyVectors:
    def test_kernel_over_empty_source(self, kind):
        dev = Device(backend=kind)
        src = Vector(np.zeros(0, np.float32), dtype=np.float32)
        out = Vector(np.full(4, -1.0, np.float32), dtype=np.float32)
        Kernel(_gather_sum, 1, 4)(dev, src, out)
        np.testing.assert_array_equal(out.to_numpy(), np.zeros(4, np.float32))

    def test_empty_roundtrip(self, kind):
        dev = Device(backend=kind)
        empty = Vector(np.zeros(0, np.float32), dtype=np.float32)
        src = Vector(np.ones(2, np.float32), dtype=np.float32)
        out = Vector(np.zeros(2, np.float32), dtype=np.float32)
        Kernel(_gather_sum, 1, 2)(dev, src, out)
        assert empty.to_numpy().size == 0


@pytest.mark.parametrize("kind", BACKEND_KINDS)
class TestSingleThreadGrid:
    def test_one_thread_writes_one_agent(self, kind):
        """grid=1, block=1 over n=4 agents: only agent 0's slots move."""
        dev = Device(backend=kind)
        n = 4
        pos = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 2, 0], [9, 9, 9]], np.float32
        )
        positions = Vector(pos.reshape(-1), dtype=np.float32)
        results = Vector(
            np.full(n * MAX_NEIGHBORS, NO_NEIGHBOR, np.int32), dtype=np.int32
        )
        Kernel(find_neighbors_v1, 1, 1)(dev, positions, 5.0, results)
        got = results.to_numpy().reshape(n, MAX_NEIGHBORS)
        # Agent 0 sees 1 (d2=1) then 2 (d2=4); agent 3 is out of radius.
        np.testing.assert_array_equal(got[0, :2], [1, 2])
        assert (got[0, 2:] == NO_NEIGHBOR).all()
        # Threads 1..3 never ran, so their rows are untouched.
        assert (got[1:] == NO_NEIGHBOR).all()

    def test_partial_grids_agree_across_backends(self, kind):
        if kind == "sim":
            pytest.skip("cross-backend comparison runs once, under native")
        rng = np.random.default_rng(5)
        pos = rng.uniform(-4, 4, size=(8, 3)).astype(np.float32)
        rows = {}
        for k in BACKEND_KINDS:
            dev = Device(backend=k)
            positions = Vector(pos.reshape(-1), dtype=np.float32)
            results = Vector(
                np.full(8 * MAX_NEIGHBORS, NO_NEIGHBOR, np.int32),
                dtype=np.int32,
            )
            # 3 of 8 agents — a remainder-shaped partial launch.
            Kernel(find_neighbors_v1, 1, 3)(dev, positions, 6.0, results)
            rows[k] = results.to_numpy()
        np.testing.assert_array_equal(rows["sim"], rows["native"])


class TestChunkBoundsRemainder:
    def test_remainder_split_over_mixed_group(self):
        machine = CudaMachine([G80_8800GTS] * 3, backend="mixed")
        group = DeviceGroup(machine)
        assert [d.backend_kind for d in group.devices] == [
            "sim", "native", "sim",
        ]
        assert group.chunk_bounds(10) == [(0, 4), (4, 7), (7, 10)]
        assert group.chunk_bounds(3) == [(0, 1), (1, 2), (2, 3)]
        assert group.chunk_bounds(2) == [(0, 1), (1, 2), (2, 2)]


@pytest.mark.parametrize("kind", BACKEND_KINDS)
class TestConstArguments:
    def test_const_copy_back_elided(self, kind):
        dev = Device(backend=kind)
        src = Vector(np.arange(4, dtype=np.float32), dtype=np.float32)
        out = Vector(np.zeros(4, np.float32), dtype=np.float32)
        stats = Kernel(_gather_sum, 1, 4)(dev, src, out)
        assert stats.elided_writebacks >= 1
        assert stats.writebacks == 1  # only the non-const out
        np.testing.assert_array_equal(
            out.to_numpy(), np.full(4, 6.0, np.float32)
        )


class TestNonFiniteGridInput:
    def test_both_backends_reject_before_any_launch(self):
        """A NaN position reaches v6's HashGrid.build, which refuses it
        with the same usage error on both backends before the step
        launches a kernel."""
        messages = {}
        for kind in BACKEND_KINDS:
            dev = Device(backend=kind)
            eb = EmulatedBoids(32, 6, seed=3, device=dev, threads_per_block=16)
            eb.step()
            pos = eb.snapshot()["positions"].copy()
            pos[5, 1] = np.nan
            eb._write_vec3(eb.positions, pos)
            launches = dev.runtime.launch_count
            with pytest.raises(CuppUsageError, match=r"agent 5 ") as info:
                eb.step()
            assert dev.runtime.launch_count == launches
            assert eb.step_count == 1
            messages[kind] = str(info.value)
        assert len(set(messages.values())) == 1
