"""Built-in OpenSteerDemo plugins: the Boids scenario and a pursuit
scenario (§5.3: "OpenSteerDemo currently offers different scenarios —
among others the Boids scenario")."""

from __future__ import annotations

from repro.steer.behaviors_extra import Wander, evade, pursue
from repro.steer.demo import Annotation, PlugIn
from repro.steer.params import BoidsParams, DEFAULT_PARAMS
from repro.steer.simulation import Simulation
from repro.steer.vec3 import Vec3


class BoidsPlugIn(PlugIn):
    """The paper's scenario, wrapped as a demo plugin."""

    name = "Boids"

    def __init__(
        self,
        n: int = 256,
        params: BoidsParams = DEFAULT_PARAMS,
        seed: int | None = None,
    ) -> None:
        self._n = n
        self._params = params
        self._seed = seed
        self.sim: Simulation | None = None

    def open(self, annotation: Annotation) -> None:
        self.sim = Simulation(self._n, self._params, seed=self._seed)

    def simulation_substage(self, dt: float) -> None:
        self.sim.simulation_substage()

    def modification_substage(self, dt: float) -> None:
        self.sim.modification_substage()
        self.sim.step_count += 1

    def redraw(self, annotation: Annotation) -> None:
        # One annotation line per agent: position -> position + forward.
        for p, f in zip(self.sim.positions, self.sim.forwards):
            annotation.line(tuple(p), tuple(p + f), color="gray")
        annotation.text(
            (0, 0, 0), f"{self._n} boids, step {self.sim.step_count}"
        )

    def reset(self) -> None:
        self.open(Annotation())


class PursuitPlugIn(PlugIn):
    """Pursuit and evasion, driving the wider Reynolds behavior set."""

    name = "Pursuit"

    def __init__(
        self,
        pursuer_speed: float = 11.0,
        evader_speed: float = 9.0,
        max_force: float = 30.0,
        seed: int = 9,
    ) -> None:
        self._speeds = (pursuer_speed, evader_speed)
        self._max_force = max_force
        self._seed = seed
        self.capture_radius = 2.0
        self.captured = False

    def open(self, annotation: Annotation) -> None:
        self.pursuer_pos = Vec3(0, 0, 0)
        self.pursuer_vel = Vec3(1, 0, 0)
        self.evader_pos = Vec3(25, 0, 0)
        self.evader_vel = Vec3(0, 0, 6)
        self._wander = Wander(jitter=0.4, seed=self._seed)
        self._pending: tuple[Vec3, Vec3] | None = None
        self.captured = False

    def simulation_substage(self, dt: float) -> None:
        # Compute both steering vectors without touching state — the
        # substage contract (§5.3).
        sp = pursue(
            self.pursuer_pos,
            self.pursuer_vel,
            self.evader_pos,
            self.evader_vel,
            self._speeds[0],
        )
        se = evade(
            self.evader_pos,
            self.evader_vel,
            self.pursuer_pos,
            self.pursuer_vel,
            self._speeds[1],
        ) + self._wander(self.evader_vel.normalize()) * 2.0
        self._pending = (sp, se)

    def modification_substage(self, dt: float) -> None:
        if self._pending is None or self.captured:
            return
        sp, se = self._pending
        for which, (steer, max_speed) in enumerate(
            ((sp, self._speeds[0]), (se, self._speeds[1]))
        ):
            force = steer.truncate_length(self._max_force)
            if which == 0:
                self.pursuer_vel = (self.pursuer_vel + force * dt).truncate_length(max_speed)
                self.pursuer_pos = self.pursuer_pos + self.pursuer_vel * dt
            else:
                self.evader_vel = (self.evader_vel + force * dt).truncate_length(max_speed)
                self.evader_pos = self.evader_pos + self.evader_vel * dt
        if self.pursuer_pos.distance(self.evader_pos) < self.capture_radius:
            self.captured = True

    def redraw(self, annotation: Annotation) -> None:
        annotation.circle(self.pursuer_pos.as_tuple(), 0.5, color="red")
        annotation.circle(self.evader_pos.as_tuple(), 0.5, color="blue")
        annotation.line(
            self.pursuer_pos.as_tuple(), self.evader_pos.as_tuple(), "gray"
        )
        if self.captured:
            annotation.text(self.evader_pos.as_tuple(), "CAPTURED", "yellow")
