"""Vectorized numpy twins of the gpusteer emulator kernels.

Each function here is the *same program* as its emulator counterpart in
:mod:`repro.gpusteer.kernels_emu`, re-expressed as numpy array code over
all threads at once.  The conformance contract is bit-identity, which
follows from mirroring the emulator's numerics exactly:

* the emulator returns every load as a Python float — the float64 value
  of the float32-rounded element — so twins upcast loads with
  ``astype(float64)``;
* all intermediate arithmetic is float64 **in the emulator's operation
  order** (numpy elementwise binary ops in the same association produce
  the same IEEE results as scalar Python);
* stores round to float32 exactly like assigning into the float32
  backing array;
* reductions that the emulator performs sequentially (the per-neighbor
  steering accumulation) are kept slot-sequential here — vectorized only
  across *agents* — because numpy's pairwise summation would re-associate
  the adds.

Tie-breaking is exact, not accepted-divergent: the emulator's streaming
keep-7 insert (listing 5.2) compares full ``(d2, index)`` pairs, which
makes its kept set *the* seven lexicographically smallest pairs
regardless of insertion order — identical to the stable-sort selection
used here even when tied distances straddle the seventh slot, and
identical across candidate traversal orders (all-pairs scan, shared
tiles, grid buckets).  The conformance suite asserts this with
manufactured exact ties.
"""

from __future__ import annotations

import numpy as np

from repro.backend.native import native_kernel
from repro.cupp.containers.flatmap import EMPTY_KEY
from repro.cupp.containers.hashgrid import (
    _AXIS_MAX,
    _axis_cells,
    _pack_cell_keys,
)
from repro.gpusteer.kernels_emu import (
    MAX_NEIGHBORS,
    NO_NEIGHBOR,
    find_neighbors_v1,
    find_neighbors_v2,
    modify_kernel,
    simulate_v3,
    simulate_v4,
)
from repro.gpusteer.kernels_grid import find_neighbors_hash, simulate_grid
from repro.simgpu.memory import InvalidDeviceAccess

F64 = np.float64


def _threads(grid_dim, block_dim) -> int:
    return grid_dim.volume * block_dim.volume


def _load3(vec, count: int) -> np.ndarray:
    """Load a packed float3 array as (count, 3) float64 — the emulator's
    view of float32 data after ``ld``."""
    raw = vec.view._raw()
    if 3 * count > raw.shape[0]:
        raise InvalidDeviceAccess(
            f"kernel reads {3 * count} elements from a vector of {raw.shape[0]}"
        )
    return raw[: 3 * count].astype(F64).reshape(count, 3)


def _rsqrt(x: np.ndarray) -> np.ndarray:
    """devicelib.rsqrt: ``1/sqrt(x)`` guarded to 0 for ``x <= 0``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > 0.0, 1.0 / np.sqrt(x), 0.0)


def _length_squared3(v: np.ndarray) -> np.ndarray:
    """devicelib.length_squared3's association: ``(x*x + y*y) + z*z``."""
    return (v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1]) + v[:, 2] * v[:, 2]


def _normalize3(v: np.ndarray) -> np.ndarray:
    """devicelib.normalize3: scale by rsqrt of the squared length."""
    return v * _rsqrt(_length_squared3(v))[:, None]


def _neighbor_candidates(pos: np.ndarray, m: int, r2: float):
    """The v1/v2 candidate scan for threads 0..m-1 over all n agents.

    Returns ``(order, found)``: per thread, up to 7 neighbor indexes in
    the canonical nearest-first (d2, index) order the emulator's
    ``_write_results``/gather produce, and the validity mask.
    """
    n = pos.shape[0]
    my = pos[:m]
    # offset = my_pos - other_pos, per component; d2 in dot3's order.
    ox = my[:, None, 0] - pos[None, :, 0]
    oy = my[:, None, 1] - pos[None, :, 1]
    oz = my[:, None, 2] - pos[None, :, 2]
    d2 = (ox * ox + oy * oy) + oz * oz
    in_radius = (d2 < r2) & (np.arange(n)[None, :] != np.arange(m)[:, None])
    ranked = np.where(in_radius, d2, np.inf)
    # Stable sort on d2 breaks ties by ascending index == sort by (d2, j).
    order = np.argsort(ranked, axis=1, kind="stable")[:, :MAX_NEIGHBORS]
    found = np.take_along_axis(ranked, order, axis=1) < np.inf
    return order, found


def _steering_from_neighbors(
    pos: np.ndarray,
    fwd: np.ndarray,
    my_pos: np.ndarray,
    my_fwd: np.ndarray,
    order: np.ndarray,
    found: np.ndarray,
    w_sep: float,
    w_ali: float,
    w_coh: float,
) -> np.ndarray:
    """_flocking_steering over the nearest-first gather ``(order, found)``,
    slot-sequential (vectorized across agents; the per-neighbor adds must
    stay in the emulator's sequential order).  Shared by the all-pairs and
    grid simulate twins — the steering math is identical, only the
    candidate enumeration differs."""
    m = my_pos.shape[0]
    sep = np.zeros((m, 3), dtype=F64)
    coh = np.zeros((m, 3), dtype=F64)
    ali_sum = np.zeros((m, 3), dtype=F64)
    count = np.zeros(m, dtype=np.int64)
    for slot in range(order.shape[1]):
        j = order[:, slot]
        valid = found[:, slot]
        offset = pos[j] - my_pos  # v4's recompute: neighbor - my
        d2 = _length_squared3(offset)
        inv = _rsqrt(d2)
        contrib = offset * (inv * inv)[:, None]
        vcol = valid[:, None]
        # Masked no-ops are exact: x - (+0) == x and the accumulators
        # never hold -0 (sums of +0 addends), so x + (+0) == x too.
        sep = sep - np.where(vcol, contrib, 0.0)
        coh = coh + np.where(vcol, offset, 0.0)
        ali_sum = ali_sum + np.where(vcol, fwd[j], 0.0)
        count = count + valid

    scaled_fwd = my_fwd * count.astype(F64)[:, None]
    ali = ali_sum - scaled_fwd
    a = _normalize3(sep) * float(w_sep)
    b = _normalize3(ali) * float(w_ali)
    c = _normalize3(coh) * float(w_coh)
    return (a + b) + c


def _find_neighbors(device, grid_dim, block_dim, args) -> None:
    positions, search_radius, results = args
    m = _threads(grid_dim, block_dim)
    n = len(positions) // 3
    if m > n:
        # Thread i >= n would read past the positions array — the same
        # out-of-range access the emulator faults on.
        raise InvalidDeviceAccess(f"{m} threads over {n} agents")
    pos = _load3(positions, n)
    r2 = float(search_radius * search_radius)
    order, found = _neighbor_candidates(pos, m, r2)
    # Fewer than MAX_NEIGHBORS agents in the world: the candidate scan
    # yields fewer than 7 columns; the remaining slots stay NO_NEIGHBOR,
    # as with the emulator's unfilled result slots.
    out = np.full((m, MAX_NEIGHBORS), NO_NEIGHBOR, np.int32)
    cols = order.shape[1]
    out[:, :cols] = np.where(found, order, NO_NEIGHBOR).astype(np.int32)
    res = results.view._raw()
    res[: m * MAX_NEIGHBORS] = out.reshape(-1)


# v1 and v2 visit the identical candidate set (the tile staging only
# changes *where* the reads come from), so they share one twin.
native_kernel(find_neighbors_v1.impl)(_find_neighbors)
native_kernel(find_neighbors_v2.impl)(_find_neighbors)


def _simulate(device, grid_dim, block_dim, args) -> None:
    positions, forwards, search_radius, w_sep, w_ali, w_coh, steering_out = args
    m = _threads(grid_dim, block_dim)
    n = len(positions) // 3
    if m > n:
        raise InvalidDeviceAccess(f"{m} threads over {n} agents")
    pos = _load3(positions, n)
    fwd = _load3(forwards, n)
    my_pos = pos[:m]
    my_fwd = fwd[:m]
    r2 = float(search_radius * search_radius)
    order, found = _neighbor_candidates(pos, m, r2)
    steering = _steering_from_neighbors(
        pos, fwd, my_pos, my_fwd, order, found, w_sep, w_ali, w_coh
    )
    out = steering_out.view._raw()
    out[: 3 * m] = steering.reshape(-1)  # float32 store rounds here


# v3 (local-memory cache) and v4 (recompute) produce identical values —
# the cached d2/offset are bit-equal to the recomputation from the same
# inputs — so they also share one twin.
native_kernel(simulate_v3.impl)(_simulate)
native_kernel(simulate_v4.impl)(_simulate)


def _modify(device, grid_dim, block_dim, args) -> None:
    (
        steering,
        positions,
        forwards,
        speeds,
        smoothed,
        params_packed,
        step_index,
        matrices_out,
    ) = args
    m = _threads(grid_dim, block_dim)
    params = params_packed.view._raw().astype(F64)
    max_force, max_speed, mass, dt, smoothing, world_r = (
        float(params[k]) for k in range(6)
    )

    steer = _load3(steering, m)
    f2 = _length_squared3(steer)
    over_f = f2 > max_force * max_force
    inv_f = _rsqrt(f2)
    steer = np.where(over_f[:, None], steer * (max_force * inv_f)[:, None], steer)
    accel = steer / mass

    if step_index == 0:
        smooth = accel
    else:
        old = _load3(smoothed, m)
        smooth = old * (1.0 - smoothing) + accel * smoothing
    sm_raw = smoothed.view._raw()
    sm_raw[: 3 * m] = smooth.reshape(-1)
    # The emulator round-trips the smoothed accel through a float32
    # shared-memory scratch before using it — replicate the rounding.
    smooth32 = smooth.astype(np.float32).astype(F64)

    fwd = _load3(forwards, m)
    speed = speeds.view._raw()[:m].astype(F64)
    vel_base = fwd * speed[:, None]
    delta = smooth32 * dt
    velocity = vel_base + delta

    v2 = _length_squared3(velocity)
    over_v = v2 > max_speed * max_speed
    inv_v = _rsqrt(v2)
    velocity = np.where(
        over_v[:, None], velocity * (max_speed * inv_v)[:, None], velocity
    )
    new_speed = np.where(over_v, max_speed, v2 * inv_v)

    old = _load3(positions, m)
    pos = old + velocity * dt
    p2 = _length_squared3(pos)
    pos = np.where((p2 > world_r * world_r)[:, None], -old, pos)
    positions.view._raw()[: 3 * m] = pos.reshape(-1)

    moving = new_speed > 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        fwd = np.where(moving[:, None], velocity / new_speed[:, None], fwd)
    forwards.view._raw()[: 3 * m] = fwd.reshape(-1)
    speeds.view._raw()[:m] = new_speed

    # Draw matrix from the *unrounded* register fwd/pos (the stores above
    # rounded the arrays, not the registers).
    hint_y = np.abs(fwd[:, 1]) < 0.99
    up_hint = np.where(
        hint_y[:, None],
        np.array([0.0, 1.0, 0.0], dtype=F64),
        np.array([1.0, 0.0, 0.0], dtype=F64),
    )

    def _cross(u, v):
        return np.stack(
            [
                u[:, 1] * v[:, 2] - u[:, 2] * v[:, 1],
                u[:, 2] * v[:, 0] - u[:, 0] * v[:, 2],
                u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0],
            ],
            axis=1,
        )

    side = _normalize3(_cross(fwd, up_hint))
    up = _cross(side, fwd)

    mat = np.empty((m, 16), dtype=F64)
    mat[:, 0:3] = side
    mat[:, 3] = 0.0
    mat[:, 4:7] = up
    mat[:, 7] = 0.0
    mat[:, 8:11] = fwd
    mat[:, 11] = 0.0
    mat[:, 12:15] = pos
    mat[:, 15] = 1.0
    matrices_out.view._raw()[: 16 * m] = mat.reshape(-1)


native_kernel(modify_kernel.impl)(_modify)


# ----------------------------------------------------------------------
# Version 6: grid-bucketed neighbor search (cupp.containers hash grid).
# The twins below enumerate candidates from the grid's cell directory
# instead of scanning all pairs; because cell_edge >= search_radius the
# 27-cell neighborhood is a superset of the in-radius set, so selecting
# the smallest-(d2, index) seven over it is bit-identical to the
# all-pairs selection.
# ----------------------------------------------------------------------


#: Agents per vectorized grid-query pass.  Bounds the flat candidate
#: temporaries (27 cells' members per agent) so peak memory stays flat
#: in the population size.
_QUERY_BLOCK = 128

#: The 27 cell offsets of the 3x3x3 neighborhood, dx outermost.
_CELL_OFFSETS = np.array(
    [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)],
    dtype=np.int64,
)


def _grid_neighbors(hgrid, pos: np.ndarray, m: int, r2: float):
    """The grid query pass for threads 0..m-1: per agent, the nearest-7
    ``(d2, index)`` selection over its 3x3x3 cell neighborhood.

    Returns ``(order, found)`` shaped (m, MAX_NEIGHBORS) — the same
    canonical nearest-first layout ``_neighbor_candidates`` produces.
    The cell directory is read from the flat map's probe table as sorted
    keys, so a block's 27-per-agent probes are one ``searchsorted``; the
    hit CSR segments ``members[starts[s]:starts[s+1]]`` are expanded into
    flat ``(i, j)`` candidate pairs and selected with one ``lexsort``.
    Agents run in blocks of :data:`_QUERY_BLOCK`.
    """
    order = np.zeros((m, MAX_NEIGHBORS), dtype=np.int64)
    found = np.zeros((m, MAX_NEIGHBORS), dtype=bool)
    keys_raw = hgrid.cells.keys._raw()
    occupied = keys_raw != EMPTY_KEY
    by_key = np.argsort(keys_raw[occupied])
    dir_keys = keys_raw[occupied][by_key]
    dir_segs = hgrid.cells.vals._raw()[occupied][by_key].astype(np.int64)
    if dir_keys.size == 0:
        return order, found
    members = hgrid.members._raw().astype(np.int64)
    starts = hgrid.starts._raw().astype(np.int64)
    cells = _axis_cells(pos[:m], float(hgrid.cell_edge))
    x, y, z = np.ascontiguousarray(pos.T)  # 1-D gathers beat (n, 3) rows

    for lo in range(0, m, _QUERY_BLOCK):
        # 1. The 27 neighbor cells per agent, with the scalar bounds test.
        near = cells[lo : lo + _QUERY_BLOCK, None, :] + _CELL_OFFSETS[None]
        inside = np.all((near >= 0) & (near <= _AXIS_MAX), axis=2)
        keys = _pack_cell_keys(near)  # garbage where not inside; masked
        # 2. Directory lookup: sorted keys + searchsorted.
        slot = np.minimum(np.searchsorted(dir_keys, keys), dir_keys.size - 1)
        hit = inside & (dir_keys[slot] == keys)
        seg = dir_segs[slot[hit]]
        seg_start = starts[seg]
        seg_len = starts[seg + 1] - seg_start
        # 3. Expand the hit segments into flat (i, j) candidates.
        agent = lo + np.nonzero(hit)[0]
        first = np.cumsum(seg_len) - seg_len
        i = np.repeat(agent, seg_len)
        j = members[
            np.arange(i.size) + np.repeat(seg_start - first, seg_len)
        ]
        # 4. d2 in the emulator's association (dot3 of my - other).
        ox, oy, oz = x[i] - x[j], y[i] - y[j], z[i] - z[j]
        d2 = (ox * ox + oy * oy) + oz * oz
        keep = (d2 < r2) & (j != i)
        i, j, d2 = i[keep], j[keep], d2[keep]
        # 5. Per agent, the smallest seven (d2, index) pairs — lexsort's
        # primary key is its *last* array.
        sel = np.lexsort((j, d2, i))
        i, j = i[sel], j[sel]
        rank = np.arange(i.size) - np.searchsorted(i, i)
        kept = rank < MAX_NEIGHBORS
        order[i[kept], rank[kept]] = j[kept]
        found[i[kept], rank[kept]] = True
    return order, found


def _store_results(results, order: np.ndarray, found: np.ndarray, m: int) -> None:
    out = np.where(found, order, NO_NEIGHBOR).astype(np.int32)
    results.view._raw()[: m * MAX_NEIGHBORS] = out.reshape(-1)


def _find_neighbors_hash(device, grid_dim, block_dim, args) -> None:
    hgrid, positions, search_radius, results = args
    m = _threads(grid_dim, block_dim)
    n = len(positions) // 3
    if m > n:
        raise InvalidDeviceAccess(f"{m} threads over {n} agents")
    pos = _load3(positions, n)
    r2 = float(search_radius * search_radius)
    order, found = _grid_neighbors(hgrid, pos, m, r2)
    _store_results(results, order, found, m)


native_kernel(find_neighbors_hash.impl)(_find_neighbors_hash)


def _simulate_grid(device, grid_dim, block_dim, args) -> None:
    (
        hgrid,
        positions,
        forwards,
        search_radius,
        w_sep,
        w_ali,
        w_coh,
        steering_out,
        results,
    ) = args
    m = _threads(grid_dim, block_dim)
    n = len(positions) // 3
    if m > n:
        raise InvalidDeviceAccess(f"{m} threads over {n} agents")
    pos = _load3(positions, n)
    fwd = _load3(forwards, n)
    r2 = float(search_radius * search_radius)
    order, found = _grid_neighbors(hgrid, pos, m, r2)
    _store_results(results, order, found, m)
    steering = _steering_from_neighbors(
        pos, fwd, pos[:m], fwd[:m], order, found, w_sep, w_ali, w_coh
    )
    steering_out.view._raw()[: 3 * m] = steering.reshape(-1)


native_kernel(simulate_grid.impl)(_simulate_grid)
