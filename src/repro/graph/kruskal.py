"""Kruskal's MST over explicit edge arrays.

Used as the per-batch subroutine of GFK/MemoGFK (Algorithms 2-3): each
call receives a batch of edges whose weights are no smaller than any
previously-processed batch, and the union-find persists across calls,
so processing batches in weight order is exactly Kruskal's algorithm.

Each batch is one stable sort by weight and one ``UnionFind.union_batch``
(the array-at-a-time form of PBBS's deterministic-reservations Kruskal):
the same accepted edges, in the same order, as a per-edge loop.
"""
from __future__ import annotations

import numpy as np

from .unionfind import UnionFind


def kruskal_batch(
    us: np.ndarray,
    vs: np.ndarray,
    ws: np.ndarray,
    uf: UnionFind,
    out_edges: list[tuple[int, int, float]],
) -> int:
    """Process one batch of edges in non-decreasing weight order,
    appending accepted MST edges to ``out_edges``. Returns the number
    of edges accepted."""
    order = np.argsort(ws, kind="stable")
    us, vs, ws = us[order], vs[order], ws[order]
    acc = uf.union_batch(us, vs)
    out_edges.extend(zip(us[acc].tolist(), vs[acc].tolist(), ws[acc].tolist()))
    return int(acc.sum())


def mst(n: int, us: np.ndarray, vs: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """One-shot Kruskal. Returns (m, 3) array of [u, v, w] rows; m may be
    < n-1 if the edge set does not connect the graph."""
    uf = UnionFind(n)
    out: list[tuple[int, int, float]] = []
    kruskal_batch(np.asarray(us), np.asarray(vs), np.asarray(ws), uf, out)
    return np.asarray(out, dtype=np.float64).reshape(-1, 3)


def assert_spanning(n: int, edges: np.ndarray) -> np.ndarray:
    """``edges`` if they are the n - 1 edges of a spanning tree on n
    points (``mst`` returns a forest when its edges do not connect the
    points); otherwise ValueError."""
    if edges.shape[0] != n - 1:
        raise ValueError(
            f"not a spanning tree: {edges.shape[0]} edges for n = {n} points "
            f"(a spanning tree has {n - 1})"
        )
    return edges
