"""k-NN / core-distance correctness, including the DuckDB oracle check
required for every query-result test (core distance is the k-th
smallest pairwise distance — a window query DuckDB can verify)."""
import numpy as np
import pytest

from repro import synth_data as sd
from repro.geometry import kdtree as kdt
from repro.geometry.knn import core_distances, knn
from repro.oracle import assert_equivalent

DIMS = [1, 2, 3, 5]


def _pts(n, d, seed=0):
    return np.random.default_rng(seed).random((n, d)) * 20


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("k", [1, 2, 5, 10])
def test_knn_one_vs_bruteforce(d, k):
    pts = _pts(200, d, seed=d)
    tree = kdt.build(pts.copy(), leaf_size=8)
    rng = np.random.default_rng(1)
    for i in rng.integers(0, 200, 20):
        got = knn(tree, pts[i][None], k)[0]
        ref = np.sort(np.linalg.norm(pts - pts[i], axis=1))[:k]
        assert np.allclose(got, ref)


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("min_pts", [1, 3, 10])
def test_core_distances_vs_bruteforce(d, min_pts):
    pts = _pts(300, d, seed=d + 10)
    cd = core_distances(pts, min_pts)
    dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    ref = np.sort(dists, axis=1)[:, min_pts - 1]
    assert np.allclose(cd, ref)


def test_core_distance_of_point_itself_min_pts_1():
    pts = _pts(50, 2)
    assert np.allclose(core_distances(pts, 1), 0.0)


@pytest.mark.parametrize("min_pts", [2, 5, 10])
def test_core_distances_duckdb_oracle(spark, min_pts):
    """cd(p) must equal the minPts-th smallest pairwise distance
    (including the self-distance 0) — checked relationally in DuckDB."""
    pts = _pts(150, 3, seed=min_pts)
    cd = core_distances(pts, min_pts)
    pdf = sd.points_pdf(pts)
    got = spark.createDataFrame(
        sd.points_pdf(pts)[["id"]].assign(cd=np.round(cd, 9))
    )
    sql = f"""
        SELECT a.id AS id,
               round(
                 (SELECT sqrt((a.x0-b.x0)*(a.x0-b.x0)
                             +(a.x1-b.x1)*(a.x1-b.x1)
                             +(a.x2-b.x2)*(a.x2-b.x2))
                  FROM pts b
                  ORDER BY 1
                  LIMIT 1 OFFSET {min_pts - 1}), 9) AS cd
        FROM pts a
    """
    assert_equivalent(got, sql, pts=pdf)


def test_knn_duplicate_points():
    pts = np.vstack([np.zeros((5, 2)), np.ones((5, 2))])
    tree = kdt.build(pts.copy(), leaf_size=1)
    got = knn(tree, np.zeros(2)[None], 5)[0]
    assert np.allclose(got, 0.0)


def test_min_pts_too_large_raises():
    with pytest.raises(ValueError):
        core_distances(_pts(5, 2), 10)


def _brute_knn(pts, queries, k):
    """Sorted k smallest distances per query, from coordinate
    differences accumulated in the same order as the kernel."""
    d2 = np.zeros((queries.shape[0], pts.shape[0]))
    for j in range(pts.shape[1]):
        d2 += (queries[:, None, j] - pts[None, :, j]) ** 2
    return np.sqrt(np.sort(d2, axis=1)[:, :k])


@pytest.mark.parametrize("d", [1, 7])
@pytest.mark.parametrize("k", [1, 5, 10, 300])
def test_knn_all_points_vs_bruteforce(d, k):
    """Every tree point as a query, including k = n."""
    pts = _pts(300, d, seed=d + 30)
    tree = kdt.build(pts.copy(), leaf_size=8)
    assert np.array_equal(knn(tree, pts, k), _brute_knn(pts, pts, k))


@pytest.mark.parametrize("d", [1, 2, 7])
def test_knn_queries_off_the_tree_points(d):
    """Queries that are not tree points: inside the data's box, and
    far outside it."""
    pts = _pts(250, d, seed=d + 40)
    rng = np.random.default_rng(d)
    queries = np.vstack([rng.random((40, d)) * 20, rng.random((10, d)) * 400 - 200])
    tree = kdt.build(pts.copy(), leaf_size=16)
    for k in (1, 10, 250):
        assert np.array_equal(knn(tree, queries, k), _brute_knn(pts, queries, k))


def test_knn_all_identical_points():
    """More duplicates than a leaf holds, and k above the leaf size."""
    pts = np.full((200, 3), 2.5)
    tree = kdt.build(pts.copy(), leaf_size=4)
    assert np.array_equal(knn(tree, pts, 37), np.zeros((200, 37)))
    got = knn(tree, np.array([[2.5, 2.5, 3.5]]), 37)
    assert np.array_equal(got, np.ones((1, 37)))


def test_knn_k_out_of_range_raises():
    tree = kdt.build(_pts(20, 2), leaf_size=4)
    for k in (0, 21):
        with pytest.raises(ValueError):
            knn(tree, _pts(3, 2), k)
