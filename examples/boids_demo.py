#!/usr/bin/env python3
"""The paper's headline experiment as a demo: GPU-accelerated flocking.

Runs the OpenSteer Boids scenario three ways —

* the CPU reference path (modelled Athlon 64 timing),
* the *emulated* GPU path: a small flock driven through real CuPP kernel
  launches on the SIMT emulator (what the correctness tests use),
* the *paper-scale* modelled path: 4096 agents, all five development
  versions, reproducing the Fig. 6.2 ladder,

and prints a terminal rendering of the flock so the emergent behaviour
(§5.1: "the group behavior itself is an emergent phenomenon") is visible.

Run:  python examples/boids_demo.py
"""

import numpy as np

from repro.bench.harness import run_fig_6_2
from repro.gpusteer import EmulatedBoids
from repro.steer import DEFAULT_PARAMS, ReferenceSimulation, Simulation


def ascii_flock(positions: np.ndarray, world_radius: float, size: int = 31) -> str:
    """Top-down (x, z) density plot of the flock."""
    grid = np.zeros((size, size), dtype=int)
    scale = (size - 1) / (2 * world_radius)
    xs = ((positions[:, 0] + world_radius) * scale).astype(int).clip(0, size - 1)
    zs = ((positions[:, 2] + world_radius) * scale).astype(int).clip(0, size - 1)
    np.add.at(grid, (zs, xs), 1)
    shades = " .:+*#@"
    lines = []
    for row in grid:
        lines.append(
            "".join(shades[min(c, len(shades) - 1)] for c in row)
        )
    return "\n".join(lines)


def main() -> None:
    params = DEFAULT_PARAMS

    # --- 1. Watch a flock emerge (functional engine). -------------------
    print("flock of 256 boids after 0 and 120 steps (top-down density):\n")
    import dataclasses

    dense = dataclasses.replace(params, world_radius=22.0)
    sim = Simulation(256, dense, seed=7)
    before = ascii_flock(sim.positions, dense.world_radius)
    pol0 = float(np.linalg.norm(sim.forwards.mean(axis=0)))
    sim.run(120)
    after = ascii_flock(sim.positions, dense.world_radius)
    pol1 = float(np.linalg.norm(sim.forwards.mean(axis=0)))
    for a, b in zip(before.splitlines(), after.splitlines()):
        print(f"  {a}   {b}")
    print(f"\n  polarization |mean(forward)|: {pol0:.3f} -> {pol1:.3f}")

    # --- 2. The GPU pipeline, for real, on the emulator. -----------------
    print("\nemulated GPU pipeline (version 5, 32 agents, real CuPP calls):")
    eb = EmulatedBoids(32, version=5, seed=11)
    ref = ReferenceSimulation(32, params, seed=11)
    for _ in range(3):
        eb.step()
        ref.update()
    diff = np.abs(
        eb.snapshot()["positions"] - ref.state_snapshot()["positions"]
    ).max()
    print(f"  3 steps, max deviation from the CPU reference: {diff:.2e}")
    print(f"  agent-state uploads: {eb.positions.uploads} "
          "(state stays on the device, §6.2.3)")
    launches = eb.device.runtime.launch_count
    print(f"  kernel launches: {launches} (simulate + modify per step)")

    # --- 3. Fig 6.2 at paper scale. --------------------------------------
    print("\npaper-scale version ladder (4096 agents, modelled timing):\n")
    exp = run_fig_6_2()
    print(exp.report)


if __name__ == "__main__":
    main()
