"""The Boids agent and its vehicle model (paper §5.1, §5.3).

An agent is a sphere with a position, a forward direction, and a speed.
The only action it can take is to accelerate in some direction — the
steering vector's direction is where it wants to go, its length is the
acceleration (§5.1).

:func:`apply_steering` is the modification substage for one agent: the
simplified OpenSteer vehicle model (clip force, integrate, clip speed,
re-derive forward) plus the spherical-world wraparound.  The acceleration
smoothing carries state across steps, which is why the modification
kernel needs its "first simulation time step" branch (§6.3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.rng import make_rng
from repro.steer.params import BoidsParams
from repro.steer.vec3 import Vec3


@dataclass
class Agent:
    """Mutable per-agent state (the pure-Python reference representation;
    the numpy engine stores the same fields as column arrays)."""

    position: Vec3
    forward: Vec3
    speed: float
    smoothed_accel: Vec3 = field(default_factory=Vec3)
    steps: int = 0  # simulation steps already applied (smoothing gate)

    @property
    def velocity(self) -> Vec3:
        return self.forward * self.speed


def spawn_agents(n: int, params: BoidsParams, seed: int | None = None) -> list[Agent]:
    """Deterministically place ``n`` agents uniformly inside the world
    sphere with random headings and cruise speed."""
    rng = make_rng(seed)
    agents: list[Agent] = []
    for _ in range(n):
        # Uniform point in a ball: direction * radius * u^(1/3).
        direction = Vec3.from_tuple(rng.normal(size=3)).normalize()
        radius = params.world_radius * 0.9 * float(rng.random()) ** (1 / 3)
        heading = Vec3.from_tuple(rng.normal(size=3)).normalize()
        agents.append(
            Agent(
                position=direction * radius,
                forward=heading,
                speed=params.max_speed * 0.5,
            )
        )
    return agents


def wrap_spherical(old: Vec3, position: Vec3, world_radius: float) -> Vec3:
    """§5.1: "An agent leaving the world is put back into the world at the
    diametric opposite point."

    ``position`` is the agent's new position and ``old`` its last one,
    which was inside the world.  A new position outside the sphere is
    replaced by ``-old``, the antipode of the last in-world position, so
    the agent re-enters *inside* the world (negating the outside point
    itself would leave it outside).
    """
    if position.length_squared() > world_radius * world_radius:
        return -old
    return position


def apply_steering(agent: Agent, steering: Vec3, params: BoidsParams) -> None:
    """The modification substage for one agent (in place)."""
    force = steering.truncate_length(params.max_force)
    accel = force / params.mass
    if agent.steps == 0:
        # First step: no history to smooth against (the §6.3.1 branch).
        smoothed = accel
    else:
        s = params.accel_smoothing
        smoothed = agent.smoothed_accel * (1.0 - s) + accel * s
    agent.smoothed_accel = smoothed

    velocity = agent.velocity + smoothed * params.dt
    speed = velocity.length()
    if speed > params.max_speed:
        velocity = velocity * (params.max_speed / speed)
        speed = params.max_speed
    agent.position = wrap_spherical(
        agent.position,
        agent.position + velocity * params.dt,
        params.world_radius,
    )
    if speed > 1e-12:
        agent.forward = velocity / speed
    agent.speed = speed
    agent.steps += 1


def draw_matrix(agent: Agent) -> tuple:
    """The 4x4 transform the draw stage needs per agent — the only data
    version 5 moves back to the host each frame (§6.2.3: "a 4x4 matrix
    containing 16 float values")."""
    f = agent.forward
    # Build an orthonormal basis around forward.
    up_hint = Vec3(0.0, 1.0, 0.0) if abs(f.y) < 0.99 else Vec3(1.0, 0.0, 0.0)
    side = f.cross(up_hint).normalize()
    up = side.cross(f)
    p = agent.position
    return (
        (side.x, side.y, side.z, 0.0),
        (up.x, up.y, up.z, 0.0),
        (f.x, f.y, f.z, 0.0),
        (p.x, p.y, p.z, 1.0),
    )
