"""Boids scenario parameters (paper ch. 5).

One parameter block shared by the CPU reference, the vectorized
:class:`~repro.steer.simulation.Simulation`, and the GPU kernels, so
every implementation simulates the *same* world:

* agents are identical spheres in a spherical world; leaving the world
  re-enters at the diametrically opposite point (§5.1);
* the local environment is the 7 nearest agents within the neighbor
  search radius (§5.2.1);
* flocking = weighted sum of normalized separation/alignment/cohesion
  (listing 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BoidsParams:
    """Everything that defines one Boids run (except agent count/seed)."""

    world_radius: float = 50.0
    search_radius: float = 9.0
    max_neighbors: int = 7  # "We only consider the 7 nearest neighbors"
    separation_weight: float = 12.0  # weightA in listing 5.1
    alignment_weight: float = 8.0  # weightB
    cohesion_weight: float = 8.0  # weightC
    agent_radius: float = 0.5
    max_force: float = 27.0
    max_speed: float = 9.0
    mass: float = 1.0
    dt: float = 1.0 / 60.0
    #: Exponential smoothing factor for acceleration (OpenSteer's
    #: blendIntoAccumulator); also the source of the modification kernel's
    #: "first simulation time step" branch (§6.3.1).
    accel_smoothing: float = 0.22

    #: Think frequency denominator: 1 = every step (off); 10 = each agent
    #: recomputes its steering every 10th step (§5.3, "skipThink").
    think_every: int = 1

    def with_think_frequency(self, every: int) -> "BoidsParams":
        """The same world with a different think frequency."""
        from dataclasses import replace

        return replace(self, think_every=every)

    @property
    def think_frequency_label(self) -> str:
        return "off" if self.think_every <= 1 else f"1/{self.think_every}"


#: The configuration the paper's measurements use.
DEFAULT_PARAMS = BoidsParams()

#: The paper's think-frequency variant (1/10, §5.3).
THINK_FREQ_PARAMS = DEFAULT_PARAMS.with_think_frequency(10)
