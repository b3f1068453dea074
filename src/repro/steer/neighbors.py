"""Neighbor search: the 7 nearest agents within a radius (paper §5.2.1).

Two implementations compute the identical result:

``neighbor_search_pure`` / ``neighbor_search_all_pure``
    Listing 5.2 verbatim — a linear scan keeping the 7 nearest.  O(n) per
    agent, O(n^2) for everyone; the CPU performance bottleneck (82% of
    cycles, Fig. 5.5) and the exact algorithm the GPU kernels port.  The
    reference every other search is tested against.

``neighbor_search_all``
    The fast host search: a ``scipy.spatial.cKDTree`` k-nearest query
    with the radius filter applied afterwards.  An *implementation*
    optimization only — it returns the same rows, and the paper-faithful
    timing model continues to charge for the brute-force scan the
    paper's code performs.  (It is also the "spatial data structures"
    future work of ch. 7.)

Both return an ``(n, k)`` int array padded with -1, each row nearest
first with ties broken by ascending index.
"""

from __future__ import annotations

import numpy as np

from repro.steer.params import BoidsParams
from repro.steer.vec3 import Vec3

NO_NEIGHBOR = -1


def neighbor_search_pure(
    positions: "list[Vec3]",
    me: int,
    search_radius: float,
    max_neighbors: int = 7,
) -> list[int]:
    """Listing 5.2: the 7 nearest agents within the radius, one agent."""
    neighbors: list[tuple[float, int]] = []  # (distance^2, index)
    r2 = search_radius * search_radius
    my_pos = positions[me]
    for j, other in enumerate(positions):
        if j == me:
            continue
        d2 = my_pos.distance_squared(other)
        if d2 < r2:
            if len(neighbors) < max_neighbors:
                neighbors.append((d2, j))
            else:
                # Evict the lexicographically largest (d2, index) pair if
                # the new pair is smaller: the kept set is *the*
                # max_neighbors smallest pairs, independent of scan order
                # — so ties resolve identically across the host search
                # and both device backends.
                worst = max(range(len(neighbors)), key=lambda k: neighbors[k])
                if neighbors[worst] > (d2, j):
                    neighbors[worst] = (d2, j)
    neighbors.sort()
    found = [j for _d2, j in neighbors]
    return found + [NO_NEIGHBOR] * (max_neighbors - len(found))


def neighbor_search_all_pure(
    positions: "list[Vec3]", params: BoidsParams
) -> np.ndarray:
    """The listing 5.2 scan for every agent (the O(n^2) problem)."""
    return np.array(
        [
            neighbor_search_pure(
                positions, i, params.search_radius, params.max_neighbors
            )
            for i in range(len(positions))
        ],
        dtype=np.int64,
    ).reshape(len(positions), params.max_neighbors)


def neighbor_search_all(
    positions: np.ndarray,
    params: BoidsParams,
    rows: "np.ndarray | None" = None,
) -> np.ndarray:
    """k-NN via cKDTree over an ``(n, 3)`` float array, radius-filtered.

    ``rows`` restricts the search to the given query agents — the think
    frequency's cohort (§5.3): only those rows of the result are filled,
    the rest stay NO_NEIGHBOR.
    """
    from scipy.spatial import cKDTree

    n = positions.shape[0]
    k = params.max_neighbors
    query = np.arange(n) if rows is None else np.asarray(rows)
    tree = cKDTree(positions)
    # +1 for the self-match the query returns, +1 as a tie sentinel: one
    # candidate past the kept set, so a tie straddling the k-cut always
    # shows up as a duplicated distance in the returned row.
    kk = min(k + 2, n)
    _dist, idx = tree.query(positions[query], k=kk)
    if kk == 1:
        idx = idx[:, None]
    # Rank the candidates by the exact d2 the reference computes, and
    # apply its strict d2 < r2 test: the tree's rounded distance can put
    # an in-radius pair at exactly the radius.  Drop self-matches.
    diff = positions[query][:, None, :] - positions[idx]
    d2 = (diff * diff).sum(axis=2)
    r2 = params.search_radius * params.search_radius
    d2[(idx == query[:, None]) | (d2 >= r2)] = np.inf
    order = np.argsort(d2, axis=1, kind="stable")
    d2 = np.take_along_axis(d2, order, axis=1)
    idx = np.take_along_axis(idx, order, axis=1)
    out = np.full((n, k), NO_NEIGHBOR, dtype=np.int64)
    take = min(k, kk)
    sel = idx[:, :take].astype(np.int64)
    sel[~np.isfinite(d2[:, :take])] = NO_NEIGHBOR
    out[query, :take] = sel
    # The tree's k-cut and return order are arbitrary under exact ties,
    # so any row showing a duplicated in-radius d2 is recomputed with
    # the listing 5.2 reference's exact (d2, index) rule.  Measure-zero
    # for continuous positions — the fallback fires only on manufactured
    # tie inputs.
    finite = np.isfinite(d2)
    dup = (d2[:, :-1] == d2[:, 1:]) & finite[:, 1:]
    tie_rows = query[np.any(dup, axis=1)]
    if tie_rows.size:
        vecs = [Vec3.from_tuple(p) for p in positions]
        for i in tie_rows:
            out[i] = neighbor_search_pure(
                vecs, int(i), params.search_radius, k
            )
    return out
