"""The execution-backend abstraction behind every :class:`cupp.Device`.

CuPP's core promise (and CuPBoP's generalisation of it) is that one
kernel/data-structure API can hide the execution substrate from the
application.  :class:`ExecutionBackend` is that substrate boundary: it
owns everything the CUDA runtime needs from "a device" — global and
constant memory, a transfer timeline, launch validation against the
CUDA 1.0 limits, and the two operations that differ per substrate:

``launch(kernel_fn, grid, block, args)``
    Execute one grid and return a launch-result object.

``duration_s(result, registers_per_thread)``
    How long that launch occupies the device *on this backend's clock*:
    the cycle simulator answers with the analytic perf model over the
    measured instruction profile (virtual time), the native backend
    answers with measured wall-clock time.

Two implementations exist:

* :class:`repro.simgpu.device.SimDevice` — the cycle-accounting SIMT
  emulator (``backend_kind == "sim"``);
* :class:`repro.backend.native.NativeDevice` — vectorized numpy
  execution of the same kernel definitions at real speed
  (``backend_kind == "native"``).

This module must stay import-light: ``simgpu.device`` subclasses it, so
it may not import ``repro.cupp`` (whose package ``__init__`` pulls in
the CUDA runtime and would close an import cycle).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable

from repro.common.errors import ConfigurationError

if TYPE_CHECKING:  # annotations only — simgpu.device subclasses us,
    from repro.simgpu.arch import ArchSpec  # so no runtime simgpu import
    from repro.simgpu.dims import Dim3
    from repro.simgpu.profile import InstructionProfile
    from repro.simgpu.transfer import PcieModel

#: The backend kinds a :class:`cupp.Device` / ``CudaMachine`` accepts.
BACKEND_KINDS = ("sim", "native")

#: Pseudo-kind accepted anywhere a *group* of devices is configured:
#: devices alternate sim, native, sim, native, ...
MIXED = "mixed"

_device_ids = itertools.count(0)


def resolve_backend(name: str) -> str:
    """Validate a single backend kind, returning it canonicalised.

    Raises :class:`~repro.common.errors.ConfigurationError` (never a
    ``KeyError``) for unknown names, listing the valid choices.
    """
    kind = str(name).strip().lower()
    if kind not in BACKEND_KINDS:
        raise ConfigurationError(
            f"unknown execution backend {name!r}; "
            f"expected one of {', '.join(BACKEND_KINDS)}"
        )
    return kind


def normalize_backends(spec: "str | list[str] | tuple[str, ...]", count: int) -> list[str]:
    """Expand a backend spec into one kind per device.

    ``spec`` may be a single kind (``"sim"`` / ``"native"``), the
    pseudo-kind ``"mixed"`` (devices alternate sim, native, ...), or an
    explicit per-device list.  Unknown names raise
    :class:`~repro.common.errors.ConfigurationError`.
    """
    if count <= 0:
        raise ConfigurationError("a machine needs at least one device")
    if isinstance(spec, (list, tuple)):
        if len(spec) != count:
            raise ConfigurationError(
                f"backend list has {len(spec)} entries for {count} devices"
            )
        return [resolve_backend(k) for k in spec]
    kind = str(spec).strip().lower()
    if kind == MIXED:
        return [BACKEND_KINDS[i % 2] for i in range(count)]
    if kind not in BACKEND_KINDS:
        raise ConfigurationError(
            f"unknown execution backend {spec!r}; expected one of "
            f"{', '.join(BACKEND_KINDS)}, or {MIXED} for a group"
        )
    return [kind] * count


class ExecutionBackend:
    """Common device surface shared by the sim and native backends.

    Subclasses call :meth:`_init_backend` from their ``__init__`` and
    implement :meth:`launch` and :meth:`duration_s`; everything else —
    memory, constant cache, timeline, launch validation, properties —
    is backend-independent and lives here.
    """

    #: Overridden per subclass; ``"sim"`` or ``"native"``.
    backend_kind: str = "abstract"

    def _init_backend(self, arch: "ArchSpec", pcie: "PcieModel | None") -> None:
        from repro.simgpu.caches import ConstantMemory
        from repro.simgpu.memory import DeviceMemory
        from repro.simgpu.transfer import DeviceTimeline, PcieModel

        self.device_id = next(_device_ids)
        self.arch = arch
        self.memory = DeviceMemory(arch.device_memory_bytes)
        self.constant = ConstantMemory(arch.constant_mem_bytes)
        self.timeline = DeviceTimeline(pcie or PcieModel())
        #: Optional :class:`repro.fault.FaultInjector` consulted by the
        #: CUDA runtime's alloc/launch/memcpy entry points.  ``None``
        #: (the default) keeps every fault path completely inert.
        self.fault_injector = None

    # ------------------------------------------------------------------
    def validate_launch(self, grid_dim: Dim3, block_dim: Dim3) -> None:
        """Apply the CUDA 1.0 configuration limits (§2.2).

        Both backends present the same device model to the application,
        so the limits are enforced identically regardless of substrate.
        """
        if block_dim.volume == 0 or grid_dim.volume == 0:
            raise ConfigurationError("grid and block dimensions must be non-zero")
        if block_dim.volume > self.arch.max_threads_per_block:
            raise ConfigurationError(
                f"block of {block_dim.volume} threads exceeds the limit of "
                f"{self.arch.max_threads_per_block}"
            )
        if grid_dim.z != 1:
            raise ConfigurationError("grids are at most 2-dimensional (§2.2)")
        mx, my = self.arch.max_grid_dim
        if grid_dim.x > mx or grid_dim.y > my:
            raise ConfigurationError(
                f"grid {tuple(grid_dim)} exceeds the limit {(mx, my)}"
            )
        bx, by, bz = self.arch.max_block_dim
        if block_dim.x > bx or block_dim.y > by or block_dim.z > bz:
            raise ConfigurationError(
                f"block {tuple(block_dim)} exceeds the limit {(bx, by, bz)}"
            )

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
    ):
        """Execute ``kernel_fn`` over the whole grid; backend-specific."""
        raise NotImplementedError

    def duration_s(self, result, registers_per_thread: int = 10) -> float:
        """Seconds one launch occupies the device, on this backend's clock."""
        raise NotImplementedError

    def _run_simt(
        self,
        kernel_fn: Callable,
        grid_dim: "Dim3",
        block_dim: "Dim3",
        args: tuple,
        strict_sync: bool,
    ) -> "tuple[InstructionProfile, int]":
        """One SIMT pass over the grid, block by block on the warp
        emulator: the merged instruction profile and the peak per-block
        shared footprint.  The sim backend's execution path, and the
        native backend's fallback and counter-replay pass."""
        from repro.simgpu.block import ThreadBlock
        from repro.simgpu.dims import Dim3
        from repro.simgpu.profile import InstructionProfile

        profile = InstructionProfile()
        shared_bytes = 0
        for by in range(grid_dim.y):
            for bx in range(grid_dim.x):
                block = ThreadBlock(
                    kernel_fn,
                    args,
                    Dim3(bx, by, 1),
                    block_dim,
                    grid_dim,
                    self.arch,
                    strict_sync=strict_sync,
                    device_memory=self.memory,
                )
                try:
                    block.run(profile)
                finally:
                    block.release_local_memory()
                shared_bytes = max(shared_bytes, block.shared_bytes_used)
        return profile, shared_bytes

    # ------------------------------------------------------------------
    def properties(self) -> dict[str, object]:
        """Device properties in ``cudaDeviceProp`` spirit (§3.2.1)."""
        return {
            "name": self.arch.name,
            "totalGlobalMem": self.arch.device_memory_bytes,
            "sharedMemPerBlock": self.arch.shared_mem_per_mp,
            "regsPerBlock": self.arch.registers_per_mp,
            "warpSize": self.arch.warp_size,
            "maxThreadsPerBlock": self.arch.max_threads_per_block,
            "multiProcessorCount": self.arch.multiprocessors,
            "clockRate": int(self.arch.shader_clock_hz / 1000),  # kHz
            "major": self.arch.compute_capability[0],
            "minor": self.arch.compute_capability[1],
            "supportsAtomics": self.arch.supports_atomics,
        }
