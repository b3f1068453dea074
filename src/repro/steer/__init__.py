"""OpenSteer Boids substrate (paper ch. 5).

The CPU flocking simulation the GPU port starts from: Vec3 math, the
agent/vehicle model with a spherical world, the 7-nearest neighbor search
(listing 5.2), the separation/alignment/cohesion behaviors (listings
5.3-5.5), the staged main loop with think frequency (§5.3), and the
Athlon-64 timing model + stage profiler behind Figs. 5.5 and 5.6.
"""

from repro.steer.agent import (
    Agent,
    apply_steering,
    draw_matrix,
    spawn_agents,
    wrap_spherical,
)
from repro.steer.behaviors import (
    alignment_np,
    alignment_pure,
    cohesion_np,
    cohesion_pure,
    flocking_np,
    flocking_pure,
    separation_np,
    separation_pure,
)
from repro.steer.cpu_model import CpuCostModel, DEFAULT_CPU_MODEL
from repro.steer.demo import (
    Annotation,
    AnnotationItem,
    Clock,
    DemoError,
    OpenSteerDemo,
    PlugIn,
)
from repro.steer.neighbors import (
    NO_NEIGHBOR,
    neighbor_search_all,
    neighbor_search_all_pure,
    neighbor_search_pure,
)
from repro.steer.params import BoidsParams, DEFAULT_PARAMS, THINK_FREQ_PARAMS
from repro.steer.plugins import BoidsPlugIn, PursuitPlugIn
from repro.steer.profiler import STAGES, StageProfile
from repro.steer.simulation import (
    ReferenceSimulation,
    Simulation,
    StepTiming,
    think_cohort,
)
from repro.steer.vec3 import UNIT_X, UNIT_Y, UNIT_Z, Vec3, ZERO

__all__ = [
    "Agent",
    "Annotation",
    "AnnotationItem",
    "BoidsParams",
    "BoidsPlugIn",
    "Clock",
    "DemoError",
    "OpenSteerDemo",
    "PlugIn",
    "PursuitPlugIn",
    "CpuCostModel",
    "DEFAULT_CPU_MODEL",
    "DEFAULT_PARAMS",
    "NO_NEIGHBOR",
    "ReferenceSimulation",
    "STAGES",
    "Simulation",
    "StageProfile",
    "StepTiming",
    "THINK_FREQ_PARAMS",
    "UNIT_X",
    "UNIT_Y",
    "UNIT_Z",
    "Vec3",
    "ZERO",
    "alignment_np",
    "alignment_pure",
    "apply_steering",
    "cohesion_np",
    "cohesion_pure",
    "draw_matrix",
    "flocking_np",
    "flocking_pure",
    "neighbor_search_all",
    "neighbor_search_all_pure",
    "neighbor_search_pure",
    "separation_np",
    "separation_pure",
    "spawn_agents",
    "think_cohort",
    "wrap_spherical",
]
