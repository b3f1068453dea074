"""The native v6 grid query against the all-pairs candidate scan.

``kernels_native._grid_neighbors`` answers the nearest-7 query from the
HashGrid's device arrays (sorted cell directory, CSR ``starts`` /
``members``) in blocks of agents; ``_neighbor_candidates`` scans all
pairs.  Whenever ``cell_edge >= radius`` the two must return the same
``(order, found)`` — the same seven ``(d2, index)`` pairs, in the same
slots — for any flock: dense clusters, exact ties (also across a
query-block boundary), isolated agents, ``m < n``, negative coordinates
and cells clamped at either end of the 21-bit axis range.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend.kernels_native import (
    _QUERY_BLOCK,
    _grid_neighbors,
    _neighbor_candidates,
)
from repro.cupp import Device
from repro.cupp.containers import HashGrid

EDGE = 9.0

#: Per-axis cluster centers: origin, negatives, a cell boundary, and
#: points far enough out that their cells clamp at 0 / _AXIS_MAX.
_CENTER = st.sampled_from([0.0, 4.5, -20.0, 35.5, -1e8, 1e8])


@pytest.fixture(scope="module")
def device() -> Device:
    return Device(backend="native")


@st.composite
def scenes(draw):
    n = draw(st.integers(1, 3 * _QUERY_BLOCK))
    k = draw(st.integers(1, 6))
    centers = np.array(
        draw(st.lists(st.tuples(_CENTER, _CENTER, _CENTER), min_size=k,
                      max_size=k))
    )
    # 0 stacks every cluster on one point; 40 leaves most agents alone.
    spread = draw(st.sampled_from([0.0, 0.5, 3.0, 40.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Half-unit jitter keeps many pairwise distances exactly tied.
    jitter = np.round(rng.uniform(-spread, spread, (n, 3)) * 2) / 2
    pos = (centers[rng.integers(0, k, n)] + jitter).astype(np.float32)
    m = draw(st.integers(1, n))
    radius = draw(st.sampled_from([EDGE, 4.0, 0.5]))
    return pos, m, radius


def _assert_matches_all_pairs(device, pos, m, radius):
    grid = HashGrid(EDGE)
    grid.build(pos)
    p64 = pos.astype(np.float64)
    r2 = radius * radius
    order, found = _grid_neighbors(grid.transform(device), p64, m, r2)
    ref_order, ref_found = _neighbor_candidates(p64, m, r2)
    # Fewer than seven other agents: the scan has fewer columns.
    cols = ref_order.shape[1]
    assert not found[:, cols:].any()
    assert np.array_equal(found[:, :cols], ref_found)
    assert np.array_equal(
        np.where(found, order, -1)[:, :cols],
        np.where(ref_found, ref_order, -1),
    )
    return found


class TestGridQueryMatchesAllPairs:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(scene=scenes())
    def test_property(self, device, scene):
        pos, m, radius = scene
        _assert_matches_all_pairs(device, pos, m, radius)

    def test_ties_straddle_a_block_boundary(self, device):
        # Ten agents on one point, half of them on each side of the
        # first query-block boundary: every one sees nine d2 == 0 ties
        # and keeps the seven smallest indexes.
        n = 2 * _QUERY_BLOCK
        pos = np.stack(
            [np.arange(n) * 100.0, np.zeros(n), np.zeros(n)], axis=1
        ).astype(np.float32)
        pos[_QUERY_BLOCK - 5 : _QUERY_BLOCK + 5] = (-3.0, 2.0, 7.0)
        found = _assert_matches_all_pairs(device, pos, n, EDGE)
        assert found[_QUERY_BLOCK - 5 : _QUERY_BLOCK + 5].all()

    def test_dense_cell(self, device):
        # Forty agents in one cell, on a lattice with many exact ties.
        grid = np.arange(40)
        pos = np.stack([grid % 4, (grid // 4) % 5, grid // 20], axis=1)
        found = _assert_matches_all_pairs(
            device, pos.astype(np.float32) * 0.5 - 1.0, 40, EDGE
        )
        assert found.all()

    def test_isolated_agents_find_nobody(self, device):
        n = 3 * _QUERY_BLOCK
        pos = np.stack(
            [np.arange(n) * 20.0 - 1000.0, np.zeros(n), np.zeros(n)], axis=1
        ).astype(np.float32)
        found = _assert_matches_all_pairs(device, pos, n - 7, EDGE)
        assert not found.any()

    def test_clamped_cells_at_both_ends(self, device):
        pos = np.array(
            [[1e8, 1e8, 1e8], [1e8, 1e8, 1e8], [1e8 + 8, 1e8, 1e8],
             [-1e8, -1e8, -1e8], [-1e8, -1e8, -1e8 + 8], [0.0, 0.0, 0.0]],
            np.float32,
        )
        found = _assert_matches_all_pairs(device, pos, 6, EDGE)
        assert found.sum() == 8  # two 3-agent groups; the origin alone
