"""Spark-parallel paths must produce the same results as the sequential
implementations — the reproduction's '48 cores' configuration is only
valid if it computes the identical MSTs/dendrograms."""
import itertools

import numpy as np
import pytest

from repro import synth_data as sd
from repro.core.dendrogram import dendrogram_sequential, dendrogram_topdown
from repro.core.emst import emst_delaunay, emst_gfk, emst_memogfk, emst_naive
from repro.core.hdbscan import core_distances, hdbscan_mst
from repro.engine import distribute
from repro.engine.distribute import SparkBccp, core_distances_spark
from repro.geometry import kdtree as kdt
from repro.geometry.knn import core_distances as cd_seq

_GROUPS = itertools.count()


@pytest.fixture(scope="module")
def midsize():
    return sd.uniform_fill(2000, 3, seed=55)


@pytest.fixture
def always_fan_out(monkeypatch):
    """A fan-out costs nothing, so every batch leaves the driver."""
    monkeypatch.setattr(distribute, "_FANOUT_S", 0.0)


def spark_jobs(spark, fn, /, *args, **kwargs):
    """(fn(*args, **kwargs), the number of Spark jobs it launched),
    counted through the status tracker on a job group of its own."""
    sc = spark.sparkContext
    group = f"test-spark-paths-{next(_GROUPS)}"
    sc.setJobGroup(group, group)
    try:
        out = fn(*args, **kwargs)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    return out, len(sc.statusTracker().getJobIdsForGroup(group))


@pytest.mark.parametrize(
    "fn", [emst_naive, emst_gfk, emst_memogfk], ids=["naive", "gfk", "memogfk"]
)
def test_emst_spark_equals_sequential(spark, midsize, fn, always_fan_out):
    e_seq, s_seq = fn(midsize)
    (e_par, s_par), jobs = spark_jobs(spark, fn, midsize, spark=spark)
    assert np.allclose(np.sort(e_seq[:, 2]), np.sort(e_par[:, 2]))
    assert np.isclose(e_seq[:, 2].sum(), e_par[:, 2].sum())
    # Every BCCP round shipped, one Spark job each.
    assert s_seq.spark_fanouts == 0
    assert s_par.spark_fanouts == s_par.rounds
    assert jobs == s_par.spark_fanouts >= 1


def test_delaunay_spark_equals_sequential(spark):
    pts = sd.uniform_fill(1500, 2, seed=8)
    e_seq, _ = emst_delaunay(pts)
    e_par, _ = emst_delaunay(pts, spark=spark)
    assert np.allclose(np.sort(e_seq[:, 2]), np.sort(e_par[:, 2]))


def test_core_distances_spark_equals_sequential(spark, always_fan_out):
    pts = sd.ss_varden(6000, 3, seed=5)
    got, jobs = spark_jobs(spark, core_distances_spark, spark, pts, 10)
    assert np.allclose(got, cd_seq(pts, 10))
    assert jobs >= 1


def test_core_distances_dispatch(spark):
    pts = sd.uniform_fill(500, 2, seed=3)  # below cutoff: driver path
    assert np.allclose(core_distances(pts, 5, spark=spark), cd_seq(pts, 5))


@pytest.mark.parametrize("method", ["memogfk", "gantao"])
def test_hdbscan_spark_equals_sequential(spark, midsize, method, always_fan_out):
    e_seq, cd1, _ = hdbscan_mst(midsize, 10, method=method)
    (e_par, cd2, stats), jobs = spark_jobs(
        spark, hdbscan_mst, midsize, 10, method=method, spark=spark
    )
    assert np.allclose(cd1, cd2)
    assert np.allclose(np.sort(e_seq[:, 2]), np.sort(e_par[:, 2]))
    # The k-NN fan-out plus one per BCCP round.
    assert stats.spark_fanouts == stats.rounds
    assert jobs == 1 + stats.spark_fanouts


def test_spark_bccp_many_matches_local(spark, midsize, always_fan_out):
    """The mapInPandas BCCP kernel must agree exactly with the driver
    kernel, pair by pair, for both metrics."""
    from repro.core import bccp as bccp_mod
    from repro.core.wspd import wspd

    cd = cd_seq(midsize, 10)
    tree = kdt.build(midsize, leaf_size=1)
    kdt.attach_core_distances(tree, cd)
    pairs = wspd(tree, "s2")[:3000]
    with SparkBccp(spark, tree) as ctx:
        for star in (False, True):
            got, jobs = spark_jobs(spark, ctx.bccp_many, pairs, star=star)
            assert jobs == 1
            local = bccp_mod.bccp_pairs(
                tree, pairs[:, 0], pairs[:, 1], tree.cd if star else None
            )
            assert np.array_equal(got, np.column_stack(local))
            fn = bccp_mod.bccp_star if star else bccp_mod.bccp
            for k in range(0, len(pairs), max(1, len(pairs) // 200)):
                assert tuple(got[k]) == fn(tree, *map(int, pairs[k]))


def test_dendrogram_spark_equals_driver(spark, always_fan_out):
    pts = sd.ss_varden(4000, 2, seed=12)
    edges, _ = emst_memogfk(pts)
    d_seq = dendrogram_sequential(edges, 0)
    d_par, jobs = spark_jobs(spark, dendrogram_topdown, edges, 0, spark=spark)
    assert jobs == 1
    o1, b1 = d_seq.reachability()
    o2, b2 = d_par.reachability()
    from repro.graph.prim import is_valid_prim_order

    assert is_valid_prim_order(4000, edges, o2, b2)
    assert np.allclose(np.sort(b1[1:]), np.sort(b2[1:]))
    # EMST weights are generically distinct -> orders must agree exactly.
    assert np.array_equal(o1, o2)
    # Shipping the light subproblems changes where they are solved, not
    # the dendrogram: every node array equals the driver-only solve's.
    d_drv = dendrogram_topdown(edges, 0)
    assert d_par.root == d_drv.root
    for name in ("left", "right", "weight"):
        assert np.array_equal(getattr(d_par, name), getattr(d_drv, name))


def test_spark_bccp_small_batch_runs_on_driver(spark, midsize):
    """Tiny batches short-circuit to the driver (granularity control);
    results must be identical either way."""
    tree = kdt.build(midsize[:200], leaf_size=1)
    with SparkBccp(spark, tree) as ctx:
        internal = np.flatnonzero(tree.left >= 0)
        pairs = np.column_stack([tree.left[internal[:5]], tree.right[internal[:5]]])
        got, jobs = spark_jobs(spark, ctx.bccp_many, pairs)
        assert jobs == 0
        from repro.core.bccp import bccp

        for k, p in enumerate(pairs):
            assert np.isclose(got[k][2], bccp(tree, *map(int, p))[2])


@pytest.mark.parametrize("entry", ["emst", "hdbscan"])
def test_spark_bccp_broadcast_released_on_error(spark, monkeypatch, entry):
    """The tree broadcast is released even when the MST run raises."""
    from repro.core import emst as emst_mod
    from repro.core import hdbscan as hdbscan_mod

    released = []
    unpersist = SparkBccp.unpersist

    def recording_unpersist(self):
        released.append(self)
        unpersist(self)

    def failing_mst(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(SparkBccp, "unpersist", recording_unpersist)
    monkeypatch.setattr(emst_mod, "memogfk_mst", failing_mst)
    monkeypatch.setattr(hdbscan_mod, "memogfk_mst", failing_mst)
    pts = sd.uniform_fill(300, 2, seed=4)
    with pytest.raises(RuntimeError, match="injected failure"):
        if entry == "emst":
            emst_memogfk(pts, spark=spark)
        else:
            hdbscan_mst(pts, 5, spark=spark)
    assert len(released) == 1


def test_fans_out_only_when_shipping_pays(spark):
    """A batch leaves the driver when its estimated driver time is well
    above the fixed cost of a fan-out, and stays below it."""
    assert spark.sparkContext.defaultParallelism > 1
    for kernel, per_s in distribute._DRIVER_PER_S.items():
        break_even = distribute._FANOUT_S * per_s  # driver seconds = cost
        assert distribute.fans_out(spark, int(10 * break_even), kernel)
        assert not distribute.fans_out(spark, int(break_even / 10), kernel)


def test_default_cutoffs_keep_small_hdbscan_on_driver(spark):
    """At the default cost model, an n = 5,000 3D HDBSCAN*-MemoGFK run
    plus its dendrogram is all driver work: no Spark job runs, and the
    output is exactly the driver path's."""
    pts = sd.uniform_fill(5000, 3, seed=101)
    e_seq, cd_seq_, s_seq = hdbscan_mst(pts, 10)
    d_seq = dendrogram_topdown(e_seq, 0)

    def run():
        e, cd, stats = hdbscan_mst(pts, 10, spark=spark)
        return e, cd, stats, dendrogram_topdown(e, 0, spark=spark)

    (e_par, cd_par, s_par, d_par), jobs = spark_jobs(spark, run)
    assert jobs == 0
    assert s_par.spark_fanouts == 0
    assert np.array_equal(cd_par, cd_seq_)
    assert np.array_equal(e_par, e_seq)
    assert d_par.root == d_seq.root
    for name in ("left", "right", "weight"):
        assert np.array_equal(getattr(d_par, name), getattr(d_seq, name))
