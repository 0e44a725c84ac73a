"""Bichromatic closest pair kernels (BCCP and BCCP*).

BCCP(A, B): the two points u in A, v in B minimizing Euclidean
distance. BCCP*(A, B): the pair minimizing the *mutual reachability*
distance max{cd(u), cd(v), d(u, v)} (Section 2.3). Both metrics share
one code path: BCCP is BCCP* without core distances.

These kernels are the quadratic work of Theorems 3.1/3.3. A pair is
four integers (two kd-tree point ranges), and ``bccp_pairs`` evaluates
a whole batch of pairs at once: on the driver, and in Spark executors
over broadcast tree state (see ``repro.engine.distribute``). A pair's
result never depends on the rest of its batch, so the driver and the
executors, which batch pairs differently, return identical edges.
"""
from __future__ import annotations

import numpy as np

from ..geometry.kdtree import KDTree

# Cap on the number of matrix cells materialized per row block of
# ``bccp_kernel``; large pairs are processed in row blocks so memory
# stays bounded.
_CHUNK_CELLS = 4_000_000
# Pairs with more cells than this go through ``bccp_kernel``; smaller
# ones (almost all WSPD pairs have a few cells) share ragged passes,
# each over about _RAGGED_CELLS cells so its temporaries stay small.
_LARGE_PAIR_CELLS = 1024
_RAGGED_CELLS = 1 << 17


def bccp_kernel(
    P: np.ndarray,
    Q: np.ndarray,
    cdP: np.ndarray | None = None,
    cdQ: np.ndarray | None = None,
) -> tuple[int, int, float]:
    """Closest cross pair between point blocks P (a, d) and Q (b, d),
    under mutual reachability distance when the core distances cdP,
    cdQ are given. Returns (i, j, dist) with i indexing P and j
    indexing Q.

    The squared-distance matrix uses the fast expanded (matmul) form;
    the winning pair's distance is then recomputed from coordinate
    differences, which is exact to machine precision (the expanded form
    suffers catastrophic cancellation for near-coincident points).
    """
    rows = max(1, _CHUNK_CELLS // max(1, Q.shape[0]))
    qq = np.einsum("jd,jd->j", Q, Q)
    best = (0, 0, np.inf)
    for lo in range(0, P.shape[0], rows):
        blk = P[lo : lo + rows]
        key = np.einsum("id,id->i", blk, blk)[:, None] + qq[None, :] - 2.0 * (blk @ Q.T)
        if cdP is not None:
            cd = np.maximum(cdP[lo : lo + rows, None], cdQ[None, :])
            key = np.maximum(np.sqrt(np.maximum(key, 0.0)), cd)
        i, j = divmod(int(np.argmin(key)), Q.shape[0])
        dist = float(np.linalg.norm(blk[i] - Q[j]))
        if cdP is not None:
            dist = max(dist, float(cdP[lo + i]), float(cdQ[j]))
        if dist < best[2]:
            best = (lo + i, j, dist)
    return best


def _ragged_min(
    pts: np.ndarray,
    cd: np.ndarray | None,
    alo: np.ndarray,
    na: np.ndarray,
    blo: np.ndarray,
    nb: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closest cross pair of every pair of row ranges [alo, alo + na) x
    [blo, blo + nb) in one vectorized pass over all their cells.

    Distances come from coordinate differences, so coincident points
    give exactly 0. Each pair keeps its first minimum in row-major
    order. Returns the winners' (row, col, dist), rows in ``pts`` order.
    """
    cells = na * nb
    start = np.cumsum(cells) - cells
    # Row-major cells: one segment of nb cells per row of A, pairing
    # that row with B's rows in order.
    seg = np.repeat(nb, na)
    a_row = np.arange(seg.size) - np.repeat(np.cumsum(na) - na - alo, na)
    row = np.repeat(a_row, seg)
    col = np.arange(row.size) - np.repeat(np.cumsum(seg) - seg - np.repeat(blo, na), seg)
    d2 = np.zeros(row.size)
    for x in pts.T:
        d2 += (x[row] - x[col]) ** 2
    dist = np.sqrt(d2)
    if cd is not None:
        dist = np.maximum(dist, np.maximum(cd[row], cd[col]))
    best = np.minimum.reduceat(dist, start)
    hits = np.flatnonzero(dist == np.repeat(best, cells))
    first = hits[np.searchsorted(hits, start)]
    return row[first], col[first], best


def bccp_pairs(
    tree: KDTree, A, B, cd: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BCCP of every node pair (A[k], B[k]); BCCP* when ``cd``, the
    tree's reordered core distances, is given.

    Returns (u, v, w) arrays: the closest pair's original point ids and
    its distance, per pair. Pairs above _LARGE_PAIR_CELLS cells run the
    row-blocked ``bccp_kernel``; the rest run in ragged passes.
    """
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    alo, blo = tree.lo[A], tree.lo[B]
    na, nb = tree.hi[A] - alo, tree.hi[B] - blo
    cells = na * nb
    row = np.empty(A.size, dtype=np.int64)
    col = np.empty(A.size, dtype=np.int64)
    w = np.empty(A.size)
    large = cells > _LARGE_PAIR_CELLS
    for k in np.flatnonzero(large):
        ra = slice(alo[k], alo[k] + na[k])
        rb = slice(blo[k], blo[k] + nb[k])
        i, j, w[k] = bccp_kernel(
            tree.pts[ra],
            tree.pts[rb],
            None if cd is None else cd[ra],
            None if cd is None else cd[rb],
        )
        row[k], col[k] = alo[k] + i, blo[k] + j
    small = np.flatnonzero(~large)
    start = np.cumsum(cells[small]) - cells[small]
    cuts = np.flatnonzero(np.diff(start // _RAGGED_CELLS)) + 1
    for s in np.split(small, cuts):
        row[s], col[s], w[s] = _ragged_min(tree.pts, cd, alo[s], na[s], blo[s], nb[s])
    return tree.perm[row], tree.perm[col], w


def bccp(tree: KDTree, a: int, b: int) -> tuple[int, int, float]:
    """BCCP between tree nodes a and b, in original point ids."""
    u, v, w = bccp_pairs(tree, [a], [b])
    return int(u[0]), int(v[0]), float(w[0])


def bccp_star(tree: KDTree, a: int, b: int) -> tuple[int, int, float]:
    """BCCP* between tree nodes a and b, in original point ids.
    Requires ``attach_core_distances``."""
    assert tree.cd is not None
    u, v, w = bccp_pairs(tree, [a], [b], tree.cd)
    return int(u[0]), int(v[0]), float(w[0])
