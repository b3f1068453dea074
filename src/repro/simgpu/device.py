"""The simulated device: memory, launch validation, block scheduling.

:class:`SimDevice` is the cycle-accounting implementation of
:class:`~repro.backend.base.ExecutionBackend`: it owns the global
:class:`~repro.simgpu.memory.DeviceMemory` (via the backend base),
validates launch configurations against the CUDA 1.0 limits, executes
grids block-by-block on the warp emulator, and keeps the
asynchronous-execution bookkeeping (kernel launches do not block the
host; accessing device memory does — §2.2) through its
:class:`~repro.simgpu.transfer.DeviceTimeline`.

Blocks of a grid cannot synchronize with each other and multiple kernels
never run in parallel (§2.2), so executing blocks sequentially is
observationally equivalent to the hardware schedule; the *time* a launch
takes — this backend's :meth:`~SimDevice.duration_s` — is computed by
the analytic model from the measured instruction profile and the
occupancy, entirely in virtual time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.backend.base import ExecutionBackend
from repro.simgpu.arch import ArchSpec, G80_8800GTS
from repro.simgpu.costs import CostTable, G80_COSTS
from repro.simgpu.dims import Dim3, as_dim3
from repro.simgpu.multiprocessor import Occupancy, compute_occupancy
from repro.simgpu.profile import InstructionProfile
from repro.simgpu.transfer import PcieModel


@dataclass
class LaunchResult:
    """Everything the emulator learned from executing one grid."""

    grid_dim: Dim3
    block_dim: Dim3
    profile: InstructionProfile
    occupancy: Occupancy
    shared_bytes_per_block: int

    @property
    def blocks(self) -> int:
        return self.grid_dim.volume

    @property
    def threads(self) -> int:
        return self.grid_dim.volume * self.block_dim.volume


class SimDevice(ExecutionBackend):
    """A simulated G80-class device.

    Parameters
    ----------
    arch:
        Hardware description; defaults to the paper's 8800 GTS.
    costs:
        Instruction cost table (Table 2.2).
    pcie:
        Host<->device interconnect model used for transfer timing.
    """

    backend_kind = "sim"

    def __init__(
        self,
        arch: ArchSpec = G80_8800GTS,
        costs: CostTable = G80_COSTS,
        pcie: PcieModel | None = None,
    ) -> None:
        self._init_backend(arch, pcie)
        self.costs = costs

    # ------------------------------------------------------------------
    def launch(
        self,
        kernel_fn: Callable,
        grid_dim: "Dim3 | int | tuple",
        block_dim: "Dim3 | int | tuple",
        args: tuple = (),
        *,
        registers_per_thread: int = 10,
        strict_sync: bool = True,
    ) -> LaunchResult:
        """Execute ``kernel_fn`` over the whole grid on the emulator.

        Returns the merged :class:`InstructionProfile` and the occupancy of
        the configuration.  Intended for correctness tests and the
        Table 2.2 microbenchmarks; the Boids benchmarks at paper scale use
        the closed-form cost model validated against these profiles.
        """
        grid_dim = as_dim3(grid_dim)
        block_dim = as_dim3(block_dim)
        self.validate_launch(grid_dim, block_dim)

        profile, shared_bytes = self._run_simt(
            kernel_fn, grid_dim, block_dim, args, strict_sync
        )
        occupancy = compute_occupancy(
            self.arch,
            block_dim.volume,
            shared_bytes,
            registers_per_thread,
        )
        return LaunchResult(
            grid_dim=grid_dim,
            block_dim=block_dim,
            profile=profile,
            occupancy=occupancy,
            shared_bytes_per_block=shared_bytes,
        )

    # ------------------------------------------------------------------
    def duration_s(self, result: LaunchResult, registers_per_thread: int = 10) -> float:
        """Virtual seconds the launch occupies the device: the analytic
        perf model (§5) applied to the measured instruction profile."""
        from repro.simgpu.perfmodel import time_from_profile

        return time_from_profile(
            result.profile,
            result.blocks,
            result.block_dim.volume,
            shared_bytes_per_block=result.shared_bytes_per_block,
            registers_per_thread=registers_per_thread,
            arch=self.arch,
            costs=self.costs,
        ).total_s
