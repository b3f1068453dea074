"""The OpenSteerDemo main loop (paper §5.3, Fig. 5.4).

Every frame runs the **update stage** — a *simulation substage* in which
thinking agents compute steering vectors without touching shared state,
then a *modification substage* that applies them — followed by the
**draw stage**.  The two-substage split is what makes the GPU port's
kernel decomposition possible (§6.1), so we keep it strict: the
simulation substage never mutates agent state.

Think frequency (§5.3, "skipThink"): with ``think_every = T``, only the
agents whose index is congruent to the step number mod T recompute their
steering; everyone else keeps flying on their cached steering vector.
The modification substage still runs for all agents every step.

Two interchangeable state engines:

* :class:`ReferenceSimulation` — Agent objects + the pure listing code.
  The ground truth for tests.
* :class:`Simulation` — column arrays + vectorized numpy behaviors, with
  the kd-tree host neighbor search
  (:func:`repro.steer.neighbors.neighbor_search_all`).  What the
  benchmarks run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.steer.agent import Agent, apply_steering, draw_matrix, spawn_agents
from repro.steer.behaviors import flocking_np, flocking_pure
from repro.steer.cpu_model import CpuCostModel, DEFAULT_CPU_MODEL
from repro.steer.neighbors import (
    neighbor_search_all,
    neighbor_search_all_pure,
)
from repro.steer.params import BoidsParams, DEFAULT_PARAMS
from repro.steer.profiler import StageProfile
from repro.steer.vec3 import Vec3


def think_cohort(n: int, step: int, think_every: int) -> np.ndarray:
    """Indices of the agents that recompute steering this step."""
    if think_every <= 1:
        return np.arange(n)
    return np.arange(step % think_every, n, think_every)


@dataclass
class StepTiming:
    """Modelled CPU seconds of one frame, stage by stage."""

    neighbor_search_s: float
    steering_s: float
    modification_s: float
    draw_s: float

    @property
    def update_s(self) -> float:
        return self.neighbor_search_s + self.steering_s + self.modification_s

    @property
    def frame_s(self) -> float:
        return self.update_s + self.draw_s


class Simulation:
    """Vectorized Boids state + the staged main loop."""

    def __init__(
        self,
        n: int,
        params: BoidsParams = DEFAULT_PARAMS,
        seed: int | None = None,
        cpu_model: CpuCostModel = DEFAULT_CPU_MODEL,
    ) -> None:
        self.params = params
        self.cpu_model = cpu_model
        agents = spawn_agents(n, params, seed)
        self.positions = np.array([a.position.as_tuple() for a in agents])
        self.forwards = np.array([a.forward.as_tuple() for a in agents])
        self.speeds = np.array([a.speed for a in agents])
        self.smoothed_accel = np.zeros((n, 3))
        self.steering = np.zeros((n, 3))
        self.step_count = 0
        self.profile = StageProfile()

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------
    def simulation_substage(self) -> np.ndarray:
        """Compute steering for this step's think cohort; returns the
        cohort indices.  Mutates only the steering cache, never agent
        state (the substage contract of §5.3)."""
        cohort = think_cohort(self.n, self.step_count, self.params.think_every)
        # Only the thinking cohort searches (skipThink, §5.3) — the
        # functional engine skips the other agents' O(n) scans entirely.
        neighbors = neighbor_search_all(self.positions, self.params, rows=cohort)
        self.steering[cohort] = flocking_np(
            self.positions, self.forwards, neighbors, self.params
        )[cohort]
        # Model what the paper's serial code would cost.
        m = self.cpu_model
        self.profile.add(
            "neighbor_search", m.neighbor_search_cycles(self.n, len(cohort))
        )
        self.profile.add("steering", m.steering_cycles(len(cohort)))
        return cohort

    def modification_substage(self) -> None:
        """Apply cached steering vectors to every agent (vectorized twin
        of :func:`repro.steer.agent.apply_steering`)."""
        self.positions, self.forwards, self.speeds, self.smoothed_accel = (
            modification_np(
                self.positions, self.forwards, self.speeds, self.steering,
                self.smoothed_accel, self.params, self.step_count == 0,
            )
        )
        self.profile.add(
            "modification", self.cpu_model.modification_cycles(self.n)
        )

    def draw_stage(self) -> np.ndarray:
        """Build the per-agent 4x4 draw matrices (the data the GPU port
        ships back to the host, §6.2.3)."""
        mats = draw_matrices_np(self.positions, self.forwards)
        self.profile.add("draw", self.cpu_model.draw_cycles(self.n))
        return mats

    # ------------------------------------------------------------------
    def update(self) -> StepTiming:
        """One update stage; returns the modelled stage timings."""
        m = self.cpu_model
        cohort = self.simulation_substage()
        self.modification_substage()
        timing = StepTiming(
            neighbor_search_s=m.seconds(
                m.neighbor_search_cycles(self.n, len(cohort))
            ),
            steering_s=m.seconds(m.steering_cycles(len(cohort))),
            modification_s=m.seconds(m.modification_cycles(self.n)),
            draw_s=m.draw_seconds(self.n),
        )
        self.step_count += 1
        return timing

    def frame(self) -> StepTiming:
        """Update + draw (one full main-loop iteration)."""
        timing = self.update()
        self.draw_stage()
        return timing

    def run(self, steps: int) -> list[StepTiming]:
        return [self.frame() for _ in range(steps)]

    # ------------------------------------------------------------------
    def state_snapshot(self) -> dict[str, np.ndarray]:
        return {
            "positions": self.positions.copy(),
            "forwards": self.forwards.copy(),
            "speeds": self.speeds.copy(),
        }


class ReferenceSimulation:
    """Pure-Python Agent-object simulation — listing-faithful, O(n^2),
    used as the oracle in tests."""

    def __init__(
        self,
        n: int,
        params: BoidsParams = DEFAULT_PARAMS,
        seed: int | None = None,
    ) -> None:
        self.params = params
        self.agents = spawn_agents(n, params, seed)
        self.steering = [Vec3() for _ in range(n)]
        self.step_count = 0

    # ------------------------------------------------------------------
    def update(self) -> None:
        params = self.params
        positions = [a.position for a in self.agents]
        forwards = [a.forward for a in self.agents]
        cohort = think_cohort(
            len(self.agents), self.step_count, params.think_every
        )
        neighbors = neighbor_search_all_pure(positions, params)
        for i in cohort:
            self.steering[i] = flocking_pure(
                int(i), positions, forwards, list(neighbors[i]), params
            )
        for agent, steer in zip(self.agents, self.steering):
            apply_steering(agent, steer, params)
        self.step_count += 1

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.update()

    def draw_matrices(self) -> list[tuple]:
        return [draw_matrix(a) for a in self.agents]

    def state_snapshot(self) -> dict[str, np.ndarray]:
        return {
            "positions": np.array([a.position.as_tuple() for a in self.agents]),
            "forwards": np.array([a.forward.as_tuple() for a in self.agents]),
            "speeds": np.array([a.speed for a in self.agents]),
        }


def _truncate_rows(v: np.ndarray, max_length: float) -> np.ndarray:
    """Row-wise ``Vec3.truncate_length``."""
    norms = np.linalg.norm(v, axis=1)
    over = norms > max_length
    out = v.copy()
    if over.any():
        out[over] *= (max_length / norms[over])[:, None]
    return out


def modification_np(
    positions: np.ndarray,
    forwards: np.ndarray,
    speeds: np.ndarray,
    steering: np.ndarray,
    smoothed: np.ndarray,
    params: BoidsParams,
    first_step: bool,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """The modification substage over ``(n, 3)`` column arrays: truncate
    the steering force, smooth the acceleration, clamp the speed, move,
    and re-enter agents that leave the world at the antipode of their
    last in-world position (§5.1).

    Returns ``(positions, forwards, speeds, smoothed)``; ``forwards`` is
    updated in place.  :class:`Simulation` and the emulated v1-4
    pipelines both run their host modification through it.
    """
    p = params
    force = _truncate_rows(steering, p.max_force)
    accel = force / p.mass
    if first_step:
        smoothed = accel
    else:
        s = p.accel_smoothing
        smoothed = smoothed * (1.0 - s) + accel * s

    velocity = forwards * speeds[:, None] + smoothed * p.dt
    speed = np.linalg.norm(velocity, axis=1)
    over = speed > p.max_speed
    if over.any():
        velocity[over] *= (p.max_speed / speed[over])[:, None]
        speed[over] = p.max_speed
    moved = positions + velocity * p.dt
    outside = (moved**2).sum(axis=1) > p.world_radius**2
    if outside.any():
        moved[outside] = -positions[outside]
    moving = speed > 1e-12
    forwards[moving] = velocity[moving] / speed[moving][:, None]
    return moved, forwards, speed, smoothed


def draw_matrices_np(
    positions: np.ndarray, forwards: np.ndarray, dtype=np.float64
) -> np.ndarray:
    """The per-agent 4x4 draw matrices (side, up, forward, position rows)
    built on the host from ``(n, 3)`` column arrays."""
    f = forwards
    up_hint = np.where(
        (np.abs(f[:, 1]) < 0.99)[:, None],
        np.array([0.0, 1.0, 0.0]),
        np.array([1.0, 0.0, 0.0]),
    )
    side = np.cross(f, up_hint)
    side /= np.maximum(np.linalg.norm(side, axis=1, keepdims=True), 1e-12)
    up = np.cross(side, f)
    mats = np.zeros((f.shape[0], 4, 4), dtype)
    mats[:, 0, :3] = side
    mats[:, 1, :3] = up
    mats[:, 2, :3] = f
    mats[:, 3, :3] = positions
    mats[:, 3, 3] = 1.0
    return mats
