"""Spark fan-out of the paper's shared-memory parallel loops.

The paper runs on a 48-core Cilk machine. Its parallel-for loops over
independent kernels (the k-NN of the core distances, the BCCP / BCCP*
batch of a GFK or MemoGFK round, the light-edge subproblems of the
top-down dendrogram) all map here onto one fan-out, ``_fan_out``:

* the driver cuts the batch into ``defaultParallelism`` contiguous
  chunks of about equal work and pickles each chunk into one row;
* Arrow ``createDataFrame`` slices those rows into ``defaultParallelism``
  partitions, so each chunk is one task and nothing is shuffled;
* ``mapInPandas`` runs the kernel the driver path uses, in one Spark
  job; shared state (the kd-tree) travels as a broadcast;
* ``toPandas`` brings the results back, returned in chunk order.

A batch fans out only when that pays (``fans_out``): its estimated
driver seconds, work count / the kernel's driver throughput, times the
share that parallel tasks save, 1 - 1/defaultParallelism, must exceed
the fixed cost of one fan-out. Otherwise the driver runs the same
kernel, with the same result.
"""
from __future__ import annotations

import pickle

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..core.bccp import bccp_pairs
from ..geometry.kdtree import KDTree

# Fixed cost of one fan-out: an empty createDataFrame -> mapInPandas ->
# toPandas job of 4 one-row chunks took 0.29-0.35 s warm on local[4]
# (4-vCPU VM; 0.32-0.39 s with a repartition).
_FANOUT_S = 0.3

# Driver throughput of each kernel in work items per second, measured
# on the same VM.
_DRIVER_PER_S = {
    # bccp_pairs: 19-27 M distance cells/s on MemoGFK rounds of small
    # pairs (33 M/s on a whole 3D WSPD, large pairs included).
    "bccp": 25e6,
    # kth_distances, 3D, k = 10: 36-61 K queries/s (n = 5,000-20,000).
    "knn": 50e3,
    # dendrogram_topdown: 20-30 K tree edges/s (n = 5,000-20,000).
    "dendrogram": 25e3,
}


def fans_out(spark: SparkSession, work: int, kernel: str) -> bool:
    """Whether a batch of ``work`` items of ``kernel`` ("bccp": distance
    cells, "knn": queries, "dendrogram": light-subproblem edges) should
    leave the driver: its driver seconds times 1 - 1/defaultParallelism
    exceed the fixed cost of one fan-out."""
    driver_s = work / _DRIVER_PER_S[kernel]
    return driver_s * (1 - 1 / spark.sparkContext.defaultParallelism) > _FANOUT_S


def _fan_out(spark: SparkSession, kernel, items, work: np.ndarray) -> list:
    """``kernel(chunk)`` for contiguous chunks of ``items`` (an array or
    list) of about equal total ``work`` (one number per item), run as
    one Spark job with one chunk per task; the results in chunk order."""
    parts = spark.sparkContext.defaultParallelism
    total = np.cumsum(work)
    cuts = np.searchsorted(total, total[-1] * np.arange(1, parts) / parts, side="right")
    bounds = np.unique(np.concatenate([[0], cuts, [len(items)]]))
    pdf = pd.DataFrame(
        {
            "i": np.arange(bounds.size - 1),
            "blob": [pickle.dumps(items[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])],
        }
    )

    def compute(batches):
        for b in batches:
            out = [pickle.dumps(kernel(pickle.loads(blob))) for blob in b["blob"]]
            yield pd.DataFrame({"i": b["i"].to_numpy(), "blob": out})

    res = (
        spark.createDataFrame(pdf)
        .mapInPandas(compute, schema="i long, blob binary")
        .toPandas()
        .sort_values("i")
    )
    return [pickle.loads(blob) for blob in res["blob"]]


def _bccp_edges(tree: KDTree, pairs: np.ndarray, star: bool) -> np.ndarray:
    cd = tree.cd if star else None
    return np.column_stack(bccp_pairs(tree, pairs[:, 0], pairs[:, 1], cd))


class SparkBccp:
    """Distributes BCCP / BCCP* batches for GFK and MemoGFK rounds.

    Construct once per MST run; ``bccp_many`` is called every round with
    that round's missing pairs. The tree is broadcast on the first batch
    that fans out; as a context manager it releases that broadcast on
    exit.
    """

    def __init__(self, spark: SparkSession, tree: KDTree):
        self.spark = spark
        self.tree = tree
        self._bc = None

    def __enter__(self) -> SparkBccp:
        return self

    def __exit__(self, *exc) -> None:
        self.unpersist()

    def unpersist(self) -> None:
        if self._bc is not None:
            self._bc.unpersist()
            self._bc = None

    def bccp_many(self, pairs: np.ndarray, star: bool = False, stats=None) -> np.ndarray:
        """BCCP (or BCCP*) of each (node_a, node_b) row of ``pairs``.

        Returns the (k, 3) [u, v, w] edges in pair order, u and v in
        original ids: the same values ``bccp_pairs`` gives on the driver.
        A batch that fans out adds one to ``stats.spark_fanouts``.
        """
        sz = self.tree.hi - self.tree.lo
        cells = sz[pairs[:, 0]] * sz[pairs[:, 1]]
        if not fans_out(self.spark, int(cells.sum()), "bccp"):
            return _bccp_edges(self.tree, pairs, star)
        if self._bc is None:
            self._bc = self.spark.sparkContext.broadcast(self.tree)
        if stats is not None:
            stats.spark_fanouts += 1
        bc = self._bc
        chunks = _fan_out(self.spark, lambda p: _bccp_edges(bc.value, p, star), pairs, cells)
        return np.concatenate(chunks)


def core_distances_spark(
    spark: SparkSession, points: np.ndarray, min_pts: int, leaf_size: int = 16
) -> np.ndarray:
    """Parallel core distances (the paper's parallel k-NN step, Section
    3.2.1): cd[i] for every original point id i.

    When the queries fan out, the driver builds the k-NN tree,
    broadcasts it and ships the queries in chunks; otherwise this is
    ``knn.core_distances``.
    """
    from ..geometry import kdtree as kdt
    from ..geometry.knn import core_distances, kth_distances

    pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
    n = pts.shape[0]
    if not fans_out(spark, n, "knn"):
        return core_distances(pts, min_pts, leaf_size)
    if min_pts > n:
        raise ValueError("minPts larger than the point set")
    bc = spark.sparkContext.broadcast(kdt.build(pts, leaf_size=leaf_size))
    k = int(min_pts)
    try:
        chunks = _fan_out(spark, lambda q: kth_distances(bc.value, q, k), pts, np.ones(n))
    finally:
        bc.unpersist()
    return np.concatenate(chunks)


def run_payloads_spark(spark: SparkSession, payloads: list[bytes], fn_name: str) -> list:
    """Pickled-payload fan-out, used for dendrogram light-edge
    subproblems: each payload is unpickled into the arguments of the
    named kernel from ``repro.core.dendrogram``, which runs in an
    executor. Returns the kernel results in payload order.
    """
    if not payloads:
        return []

    def kernel(blobs):
        from ..core import dendrogram as dmod

        fn = getattr(dmod, fn_name)
        return [fn(*pickle.loads(b)) for b in blobs]

    sizes = np.array([len(p) for p in payloads])
    return [r for chunk in _fan_out(spark, kernel, payloads, sizes) for r in chunk]
