"""Array-based spatial-median kd-tree.

This is the substrate used by every algorithm in the paper: WSPD
construction (Algorithm 1), the GetRho/GetPairs pruned traversals of
MemoGFK (Algorithm 3), k-NN core-distance queries, and the dual-tree
Boruvka baseline. Nodes are stored in flat NumPy arrays so the whole
tree can be pickled into a Spark broadcast variable and traversed
cheaply inside executors.

Points are *reordered* during the build so that every tree node owns a
contiguous range ``[lo, hi)`` of the point array. A well-separated pair
is therefore just four integers, which is what makes the Spark fan-out
of BCCP kernels cheap (see ``repro.engine.distribute``).

The split rule is the paper's "spatial median": cut the widest
dimension of the node's bounding box at its midpoint, falling back to
an object-median split when duplicates would make a side empty.

The build is level-synchronous, an array form of the paper's parallel
build: all nodes of one depth are split at once. One segmented
``reduceat`` gives their boxes, each segment takes its widest dimension
and midpoint cut, and one stable ``lexsort`` by segment, then side (or
key, for a median split), reorders every segment's points. Node ids are therefore breadth-first: the root is 0, and each
level's nodes follow the previous level's, left to right.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class KDTree:
    """A kd-tree over ``pts`` (already reordered; ``perm`` maps back).

    Node arrays are indexed by node id; node 0 is the root. Leaves have
    ``left == -1``. ``lo``/``hi`` give the half-open point range of a
    node in the reordered array. ``center``/``radius`` describe the
    bounding sphere of the node's bounding box (the paper's d(A, B) and
    A_diam are defined on these spheres).

    ``cd`` / ``cd_min`` / ``cd_max`` are filled by
    :func:`attach_core_distances` for HDBSCAN*'s new well-separation
    test; they stay ``None`` for plain EMST.
    """

    pts: np.ndarray          # (n, d) float64, reordered
    perm: np.ndarray         # (n,) int64: perm[i] = original id of row i
    left: np.ndarray         # (m,) int32, -1 for leaf
    right: np.ndarray        # (m,) int32
    lo: np.ndarray           # (m,) int64
    hi: np.ndarray           # (m,) int64
    bb_min: np.ndarray       # (m, d)
    bb_max: np.ndarray       # (m, d)
    center: np.ndarray       # (m, d)
    radius: np.ndarray       # (m,)
    cd: np.ndarray | None = field(default=None)       # (n,) reordered core distances
    cd_min: np.ndarray | None = field(default=None)   # (m,)
    cd_max: np.ndarray | None = field(default=None)   # (m,)

    @property
    def n(self) -> int:
        return self.pts.shape[0]

    @property
    def dim(self) -> int:
        return self.pts.shape[1]

    @property
    def n_nodes(self) -> int:
        return self.left.shape[0]

    def points_of(self, node: int) -> np.ndarray:
        """Original ids of the points owned by ``node``."""
        return self.perm[self.lo[node] : self.hi[node]]


def build(points: np.ndarray, leaf_size: int = 1) -> KDTree:
    """Build a spatial-median kd-tree over ``points`` (n, d).

    Level-synchronous: every node of one depth is split at once, so the
    Python loop runs once per level, not once per node, and skewed
    inputs cannot overflow a recursion limit. Node ids are breadth-first
    (the root is 0; each level's children follow in left-to-right
    order). O(n log n) for balanced inputs; a depth-D tree costs O(n D).
    ``leaf_size=1`` matches the paper's WSPD tree; k-NN uses a coarser
    tree for speed. Raises ``ValueError`` on NaN/inf coordinates.
    """
    # Always copy: the build reorders rows in place, and the caller's
    # array must stay in original-id order (edge ids refer to it).
    pts = np.array(points, dtype=np.float64, copy=True, order="C")
    if pts.ndim != 2:
        raise ValueError("points must be (n, d)")
    n = pts.shape[0]
    if n == 0:
        raise ValueError("empty point set")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite (found NaN or inf)")
    perm = np.arange(n, dtype=np.int64)
    d = pts.shape[1]

    # Per level: node ranges, and the ids and boxes of its split nodes.
    lo = np.zeros(1, dtype=np.int64)
    hi = np.full(1, n, dtype=np.int64)
    los, his = [lo], [hi]
    internal, mins, maxs = [np.empty(0, dtype=np.int64)], [np.empty((0, d))], [np.empty((0, d))]
    first = 0  # id of the level's first node
    while True:
        split = hi - lo > leaf_size
        if not split.any():
            break
        s_lo, size = lo[split], (hi - lo)[split]
        S = s_lo.size
        # Rows of the splitting nodes, gathered segment by segment.
        starts = np.cumsum(size) - size
        seg = np.repeat(np.arange(S), size)
        rows = np.arange(seg.size) - starts[seg] + s_lo[seg]
        sub = pts[rows]
        mn = np.minimum.reduceat(sub, starts, axis=0)
        mx = np.maximum.reduceat(sub, starts, axis=0)
        # Split rule per segment: cut the widest dimension at its
        # midpoint; an object-median split when every point is
        # identical (identity order) or when duplicates piled on the
        # midpoint leave a side empty (stable sort by the key).
        dim = np.argmax(mx - mn, axis=1)
        at = np.arange(S)
        width = mx[at, dim] - mn[at, dim]
        cut = 0.5 * (mn[at, dim] + mx[at, dim])
        keys = sub[np.arange(seg.size), dim[seg]]
        side = (keys >= cut[seg]).astype(np.float64)
        n_left = size - np.add.reduceat(side, starts).astype(np.int64)
        same = width <= 0.0
        median = ~same & ((n_left == 0) | (n_left == size))
        mid = np.where(same | median, size // 2, n_left)
        side[same[seg]] = 0.0
        side[median[seg]] = keys[median[seg]]
        order = np.lexsort((side, seg))
        pts[rows] = sub[order]
        perm[rows] = perm[rows][order]
        internal.append(first + np.flatnonzero(split))
        mins.append(mn)
        maxs.append(mx)
        first += lo.size
        # Children (lo, lo + mid) and (lo + mid, hi), in parent order.
        lo = np.column_stack([s_lo, s_lo + mid]).ravel()
        hi = np.column_stack([s_lo + mid, s_lo + size]).ravel()
        los.append(lo)
        his.append(hi)

    lo_a = np.concatenate(los)
    hi_a = np.concatenate(his)
    m = lo_a.size
    # Breadth-first ids: the k-th internal node's children are 2k+1, 2k+2.
    internal = np.concatenate(internal)
    left = np.full(m, -1, dtype=np.int32)
    right = np.full(m, -1, dtype=np.int32)
    left[internal] = 1 + 2 * np.arange(internal.size)
    right[internal] = left[internal] + 1
    bb_min = np.empty((m, d))
    bb_max = np.empty((m, d))
    bb_min[internal] = np.concatenate(mins)
    bb_max[internal] = np.concatenate(maxs)
    leaves = np.flatnonzero(left < 0)
    leaves = leaves[np.argsort(lo_a[leaves])]
    bb_min[leaves] = np.minimum.reduceat(pts, lo_a[leaves], axis=0)
    bb_max[leaves] = np.maximum.reduceat(pts, lo_a[leaves], axis=0)
    center = 0.5 * (bb_min + bb_max)
    radius = 0.5 * np.linalg.norm(bb_max - bb_min, axis=1)
    return KDTree(
        pts=pts,
        perm=perm,
        left=left,
        right=right,
        lo=lo_a,
        hi=hi_a,
        bb_min=bb_min,
        bb_max=bb_max,
        center=center,
        radius=radius,
    )


def _internal_levels(left: np.ndarray, right: np.ndarray) -> list[np.ndarray]:
    """Internal node ids grouped by depth, root level first."""
    levels = []
    nodes = np.zeros(1, dtype=np.int64)
    while nodes.size:
        nodes = nodes[left[nodes] >= 0]
        levels.append(nodes)
        nodes = np.concatenate([left[nodes], right[nodes]]).astype(np.int64)
    return levels


def _reduce_up(ufunc, vals, left, right, lo, levels) -> np.ndarray:
    """``ufunc`` (np.minimum / np.maximum) of ``vals`` over every node's
    point range: leaves reduce their contiguous ranges with one
    ``reduceat``, internal nodes combine their children bottom-up, one
    depth level at a time."""
    out = np.empty((left.shape[0],) + vals.shape[1:])
    leaves = np.flatnonzero(left < 0)
    leaves = leaves[np.argsort(lo[leaves])]
    out[leaves] = ufunc.reduceat(vals, lo[leaves], axis=0)
    for nodes in reversed(levels):
        out[nodes] = ufunc(out[left[nodes]], out[right[nodes]])
    return out


def attach_core_distances(tree: KDTree, core_dist: np.ndarray) -> None:
    """Store per-point core distances (indexed by *original* id) and
    fill per-node cd_min / cd_max bottom-up.

    This is the tree augmentation behind the paper's new notion of
    well-separation (Section 3.2.2).
    """
    cd = np.asarray(core_dist, dtype=np.float64)[tree.perm]
    levels = _internal_levels(tree.left, tree.right)
    cd_min = _reduce_up(np.minimum, cd, tree.left, tree.right, tree.lo, levels)
    cd_max = _reduce_up(np.maximum, cd, tree.left, tree.right, tree.lo, levels)
    tree.cd = cd
    tree.cd_min = cd_min
    tree.cd_max = cd_max
