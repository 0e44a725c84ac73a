"""The benchmark's workloads: inputs, the job each one runs, and the
correctness check every timed job passes through.

Why these two (see README.md for the layer map):

* ``hdbscan-uniform3d`` — HDBSCAN*-MemoGFK (minPts = 10) plus the
  top-down ordered dendrogram on 3D UniformFill, on the driver. It runs
  every driver-side layer: kd-tree, k-NN core distances (a large
  share), the GetRho / GetPairs traversals, many tiny BCCP* calls (so
  per-call overhead dominates), Kruskal and the dendrogram. It is the
  bypass case for the Spark layers.
* ``hdbscan-uniform3d-spark`` — the same pipeline through a local
  SparkSession: the only workload on which ``core_distances_spark``,
  ``SparkBccp.bccp_many`` and ``run_payloads_spark`` run, so a
  driver-path gain that costs the Spark path shows. n >= 4096 so that
  the k-NN step fans out.

UniformFill's cost varies little from one input to the next, unlike
SS-varden's. Each run cycles through a small pool of inputs drawn from
its seed; ``job_s`` is the median over the run's jobs.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from repro import synth_data
from repro.core import dendrogram, hdbscan
from repro.graph.prim import is_valid_prim_order, mst_bruteforce_mutual

# Tolerance for weights and core distances against the references. The
# program and the references both take distances from coordinate
# differences, so they agree to a few ulps.
RTOL = 1e-9


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    n: int
    d: int
    pool: int  # distinct inputs per run, cycled by the closed loop
    min_pts: int
    spark: bool

    def inputs(self, seed: int) -> list[np.ndarray]:
        return [
            synth_data.uniform_fill(self.n, self.d, seed=seed * 1000 + i)
            for i in range(self.pool)
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hdbscan-uniform3d", 3000, 3, 8, 10, False),
        Workload("hdbscan-uniform3d-spark", 5000, 3, 3, 10, True),
    )
}


def run_job(w: Workload, pts: np.ndarray, spark):
    """One job: from the points to the HDBSCAN* MST, core distances and
    ordered dendrogram. Calls go through the module attributes so that a
    tracer's wrappers see them."""
    edges, cd, _ = hdbscan.hdbscan_mst(pts, w.min_pts, method="memogfk", spark=spark)
    return edges, cd, dendrogram.dendrogram_topdown(edges, spark=spark)


def brute_core_distances(pts: np.ndarray, k: int, rows: int = 128) -> np.ndarray:
    """k-th smallest distance per point, itself included, by brute force
    over row blocks; independent of repro.geometry.knn."""
    out = np.empty(pts.shape[0])
    for lo in range(0, pts.shape[0], rows):
        d2 = np.zeros((min(rows, pts.shape[0] - lo), pts.shape[0]))
        for x in pts.T:
            d2 += (x[lo : lo + rows, None] - x[None, :]) ** 2
        out[lo : lo + rows] = np.sqrt(np.partition(d2, k - 1, axis=1)[:, k - 1])
    return out


@dataclasses.dataclass
class Reference:
    weights: np.ndarray  # sorted MST weights from the Prim oracle
    cd: np.ndarray  # brute-force core distances


def reference(w: Workload, pts: np.ndarray) -> Reference:
    cd = brute_core_distances(pts, w.min_pts)
    return Reference(np.sort(mst_bruteforce_mutual(pts, cd)[:, 2]), cd)


def _is_spanning_tree(n: int, u: np.ndarray, v: np.ndarray) -> bool:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(u.tolist(), v.tolist()):
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return len(u) == n - 1


def check(w: Workload, pts, ref: Reference, out, prim_order: bool) -> str | None:
    """None if the job's output is correct, else the reason it is not.

    ``prim_order`` also runs the (slower) full Prim-order validation of
    the dendrogram's reachability plot."""
    edges, cd, dendro = out
    n = pts.shape[0]
    edges = np.asarray(edges, dtype=np.float64)
    if edges.shape != (n - 1, 3) or not np.all(np.isfinite(edges)):
        return f"edges have shape {edges.shape} or non-finite values"
    u, v = edges[:, 0], edges[:, 1]
    if not (np.array_equal(u, np.round(u)) and np.array_equal(v, np.round(v))):
        return "non-integer endpoint ids"
    u, v = u.astype(np.int64), v.astype(np.int64)
    if u.min() < 0 or v.min() < 0 or u.max() >= n or v.max() >= n:
        return "endpoint id out of range"
    if not _is_spanning_tree(n, u, v):
        return "edges do not form a spanning tree"
    if not np.allclose(cd, ref.cd, rtol=RTOL, atol=0.0):
        return "core distances differ from brute force"
    dist = np.linalg.norm(pts[u] - pts[v], axis=1)
    dist = np.maximum(dist, np.maximum(ref.cd[u], ref.cd[v]))
    if not np.allclose(edges[:, 2], dist, rtol=RTOL, atol=0.0):
        return "an edge weight differs from its endpoints' mutual reachability distance"
    if not np.allclose(np.sort(edges[:, 2]), ref.weights, rtol=RTOL, atol=0.0):
        return "MST weights differ from the Prim oracle"
    order, bars = dendro.reachability()
    if not np.array_equal(np.sort(order), np.arange(n)):
        return "reachability order is not a permutation of the points"
    if prim_order and not is_valid_prim_order(n, edges, order, bars):
        return "reachability plot is not a valid Prim order"
    return None
