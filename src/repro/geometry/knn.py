"""k-nearest-neighbor queries over the kd-tree.

HDBSCAN* needs, for every point p, the distance to its minPts-th
nearest neighbor *including p itself* (the core distance, Section 2.1).
The kernel here is written so that a chunk of queries can be shipped
to a Spark executor together with a broadcast tree
(``repro.engine.distribute.core_distances_spark``), mirroring the
paper's parallel k-NN [13].

Queries are answered a leaf block at a time: every query is bucketed
into a kd-tree leaf, and each bucket is compared against all points of
the leaves that can hold a k-th neighbor of any of its queries, as one
dense block.
"""
from __future__ import annotations

import numpy as np

from .kdtree import KDTree

# Cap on the query x candidate cells of one block; buckets with more
# cells are processed in row blocks so memory stays bounded.
_BLOCK_CELLS = 1 << 18


def _box_gap(lo1, hi1, lo2, hi2) -> np.ndarray:
    """Per-row min distance between boxes [lo1, hi1] and [lo2, hi2]."""
    g = np.maximum(lo2 - hi1, 0.0) + np.maximum(lo1 - hi2, 0.0)
    return np.sqrt(np.einsum("ij,ij->i", g, g))


def _leaf_of(tree: KDTree, queries: np.ndarray) -> np.ndarray:
    """Vectorized descent: each query's leaf, taking at every internal
    node the child whose bounding box is nearer (the left one on ties)."""
    node = np.zeros(queries.shape[0], dtype=np.int64)
    inner = np.flatnonzero(tree.left[node] >= 0)
    while inner.size:
        q = queries[inner]
        l, r = tree.left[node[inner]], tree.right[node[inner]]
        go_left = _box_gap(q, q, tree.bb_min[l], tree.bb_max[l]) <= _box_gap(
            q, q, tree.bb_min[r], tree.bb_max[r]
        )
        node[inner] = np.where(go_left, l, r)
        inner = inner[tree.left[node[inner]] >= 0]
    return node


def _candidate_leaves(
    tree: KDTree,
    qmin: np.ndarray,
    qmax: np.ndarray,
    radius: np.ndarray,
    anc: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(bucket, leaf) pairs, sorted by bucket: for each bucket g, the
    leaves under ``anc[g]`` and every leaf whose box lies closer than
    ``radius[g]`` to g's query box. Level-synchronous pruned frontier
    over the tree, as in the WSPD traversals."""
    G = np.arange(qmin.shape[0])
    V = np.zeros(G.size, dtype=np.int64)
    out_g, out_v = [], []
    while G.size:
        gap = _box_gap(qmin[G], qmax[G], tree.bb_min[V], tree.bb_max[V])
        # Ranges are nested or disjoint: overlap = on anc's root path.
        on_anc = (tree.lo[V] < tree.hi[anc[G]]) & (tree.lo[anc[G]] < tree.hi[V])
        keep = (gap < radius[G]) | on_anc
        G, V = G[keep], V[keep]
        leaf = tree.left[V] < 0
        out_g.append(G[leaf])
        out_v.append(V[leaf])
        G, V = np.repeat(G[~leaf], 2), V[~leaf]
        V = np.column_stack([tree.left[V], tree.right[V]]).ravel().astype(np.int64)
    g, v = np.concatenate(out_g), np.concatenate(out_v)
    order = np.argsort(g, kind="stable")
    return g[order], v[order]


def knn(tree: KDTree, queries: np.ndarray, k: int) -> np.ndarray:
    """(m, k) distances, each row sorted ascending, from every row of
    ``queries`` to its k nearest tree points (an exact match included).

    Distances come from coordinate differences, as in brute force.
    """
    if not 1 <= k <= tree.n:
        raise ValueError("k must be between 1 and the number of tree points")
    queries = np.asarray(queries, dtype=np.float64).reshape(-1, tree.dim)
    out = np.empty((queries.shape[0], k))
    if not queries.shape[0]:
        return out
    # Bucket the queries by leaf.
    leaf = _leaf_of(tree, queries)
    order = np.argsort(leaf, kind="stable")
    first = np.flatnonzero(np.r_[True, np.diff(leaf[order]) != 0])
    buckets = np.split(order, first[1:])
    qmin = np.minimum.reduceat(queries[order], first, axis=0)
    qmax = np.maximum.reduceat(queries[order], first, axis=0)
    # The lowest ancestor of each bucket's leaf with >= k points holds k
    # points within its farthest box corner from the query box, so that
    # distance R bounds the k-th neighbor distance of every query in the
    # bucket. The candidates are anc's points plus every point closer
    # than R: enough for the k smallest distances, ties at R included.
    parent = np.zeros(tree.n_nodes, dtype=np.int64)
    internal = np.flatnonzero(tree.left >= 0)
    parent[tree.left[internal]] = internal
    parent[tree.right[internal]] = internal
    anc = leaf[order[first]]
    while np.any(small := tree.hi[anc] - tree.lo[anc] < k):
        anc[small] = parent[anc[small]]
    far = np.maximum(qmax - tree.bb_min[anc], tree.bb_max[anc] - qmin)
    radius = np.sqrt(np.einsum("ij,ij->i", far, far))
    radius *= 1.0 + 1e-9  # rounding slack: never prune a k-th neighbor
    g, v = _candidate_leaves(tree, qmin, qmax, radius, anc)
    # Ragged concatenation of each bucket's candidate point ranges.
    size = tree.hi[v] - tree.lo[v]
    cand = np.repeat(tree.lo[v] - (np.cumsum(size) - size), size) + np.arange(size.sum())
    cuts = np.cumsum(np.bincount(g, weights=size, minlength=len(buckets))).astype(np.int64)
    for qs, ps in zip(buckets, np.split(cand, cuts[:-1])):
        P = tree.pts[ps]
        rows = max(1, _BLOCK_CELLS // ps.size)
        for lo in range(0, qs.size, rows):
            q = qs[lo : lo + rows]
            d2 = np.zeros((q.size, ps.size))
            for j in range(tree.dim):
                d2 += (queries[q, j, None] - P[None, :, j]) ** 2
            out[q] = np.sqrt(np.sort(np.partition(d2, k - 1, axis=1)[:, :k], axis=1))
    return out


def kth_distances(tree: KDTree, queries: np.ndarray, k: int) -> np.ndarray:
    """Core-distance kernel: for each row of ``queries`` return the
    distance to its k-th nearest tree point (including itself)."""
    return knn(tree, queries, k)[:, -1]


def core_distances(points: np.ndarray, min_pts: int, leaf_size: int = 16) -> np.ndarray:
    """Sequential core distances for all points: cd(p) = distance to the
    minPts-th nearest neighbor of p, counting p itself."""
    from . import kdtree

    if min_pts > points.shape[0]:
        raise ValueError("minPts larger than the point set")
    tree = kdtree.build(points, leaf_size=leaf_size)
    cds = kth_distances(tree, points, min_pts)
    return cds
