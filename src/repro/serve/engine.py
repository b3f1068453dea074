"""The step engine: what one fused launch costs and computes.

A fused serving launch is the v5 update stage (Table 6.1: everything on
the device) applied to every session in the batch.  The sessions are
separate worlds — neighbor searches never cross session boundaries — so
the fused kernel's execution time is the *sum* of the per-session kernel
times from :func:`repro.gpusteer.versions.update_time`, while the fixed
costs (two kernel launches, one result transfer) are paid once per
batch.  That additivity is precisely the amortization the batcher
exploits; it is also why the modelled numbers stay honest: batching
never makes the compute itself cheaper, only the overhead.

The modelled update stage is cached per population size — a serving
process sees the same session sizes over and over.
"""

from __future__ import annotations

from repro.bench.calibration import Calibration, DEFAULT_CALIBRATION
from repro.gpusteer.versions import (
    DRAW_MATRIX_BYTES,
    UpdateBreakdown,
    update_time,
)
from repro.serve.sessions import Session
from repro.simgpu.perfmodel import KernelCostInputs
from repro.steer.params import BoidsParams, DEFAULT_PARAMS

#: Kernel launches per fused batch: the v5 simulation substage kernel
#: plus the modification kernel (§6.3.1).
LAUNCHES_PER_BATCH = 2


class StepEngine:
    """Modelled cost oracle + state advancer for serving launches."""

    def __init__(
        self,
        params: BoidsParams = DEFAULT_PARAMS,
        calib: Calibration = DEFAULT_CALIBRATION,
        version: int = 5,
    ) -> None:
        self.params = params
        self.calib = calib
        self.version = version
        self._breakdowns: "dict[int, UpdateBreakdown]" = {}

    # ------------------------------------------------------------------
    def _breakdown(self, n: int) -> UpdateBreakdown:
        """The modelled update stage for one session of ``n`` agents."""
        breakdown = self._breakdowns.get(n)
        if breakdown is None:
            breakdown = self._breakdowns[n] = update_time(
                self.version, n, self.params, calib=self.calib
            )
        return breakdown

    def kernel_seconds(self, n: int) -> float:
        """Device seconds for one session of ``n`` agents (v5 kernels)."""
        return self._breakdown(n).gpu_kernel_s

    def batch_kernel_seconds(self, sessions: "list[Session]") -> float:
        """Fused execution time: per-session kernel times, summed."""
        return sum(self.kernel_seconds(s.n) for s in sessions)

    def kernel_cost_rows(
        self, n: int
    ) -> "tuple[tuple[str, KernelCostInputs, float], ...]":
        """Per-kernel cost rows for one session of ``n`` agents.

        Splits :meth:`kernel_seconds` into the individual kernels the
        version launches — ``(kernel_name, KernelCostInputs, seconds)``
        per row, as recorded by :func:`update_time` — so an attached
        :class:`repro.prof.session.ProfSession` can attribute serve-plane
        device time per kernel.
        """
        return self._breakdown(n).kernel_rows

    @staticmethod
    def result_bytes(sessions: "list[Session]") -> int:
        """Device->host payload of one fused launch: the draw matrices
        of every agent in the batch (§6.2.3's 64 bytes per agent)."""
        return DRAW_MATRIX_BYTES * sum(s.n for s in sessions)

    # ------------------------------------------------------------------
    @staticmethod
    def advance(session: Session) -> None:
        """Run one frame of a session (functional state, v5 semantics)."""
        session.step()
