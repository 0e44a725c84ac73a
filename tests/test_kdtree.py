"""kd-tree build invariants — the substrate every algorithm stands on."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wspd import v_gap, v_gap_max, v_well_separated
from repro.geometry import kdtree as kdt
from repro.geometry.knn import core_distances

DIMS = [1, 2, 3, 5, 7]
SIZES = [1, 2, 3, 17, 128, 500]


def _pts(n, d, seed=0, scale=10.0):
    return np.random.default_rng(seed).random((n, d)) * scale


@pytest.fixture(scope="module")
def tree_cases():
    cases = {}
    for d in DIMS:
        for n in SIZES:
            pts = _pts(n, d, seed=d * 100 + n)
            cases[(n, d)] = (pts, kdt.build(pts.copy(), leaf_size=1))
    return cases


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("n", SIZES)
def test_perm_is_permutation(tree_cases, n, d):
    _, t = tree_cases[(n, d)]
    assert np.array_equal(np.sort(t.perm), np.arange(n))


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("n", SIZES)
def test_reorder_consistent(tree_cases, n, d):
    pts, t = tree_cases[(n, d)]
    assert np.allclose(t.pts, pts[t.perm])


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("n", SIZES)
def test_root_covers_all_and_leaves_singleton(tree_cases, n, d):
    _, t = tree_cases[(n, d)]
    assert t.lo[0] == 0 and t.hi[0] == n
    leaves = t.left < 0
    assert np.all((t.hi - t.lo)[leaves] == 1)
    # leaf ranges partition [0, n)
    leaf_lo = np.sort(t.lo[leaves])
    assert np.array_equal(leaf_lo, np.arange(n))


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("n", SIZES)
def test_children_partition_parent(tree_cases, n, d):
    _, t = tree_cases[(n, d)]
    internal = np.flatnonzero(t.left >= 0)
    l, r = t.left[internal], t.right[internal]
    assert np.array_equal(t.lo[internal], t.lo[l])
    assert np.array_equal(t.hi[l], t.lo[r])
    assert np.array_equal(t.hi[internal], t.hi[r])


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("n", SIZES)
def test_bboxes_tight(tree_cases, n, d):
    _, t = tree_cases[(n, d)]
    for v in range(t.n_nodes):
        seg = t.pts[t.lo[v] : t.hi[v]]
        assert np.allclose(t.bb_min[v], seg.min(axis=0))
        assert np.allclose(t.bb_max[v], seg.max(axis=0))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_node_dist_bounds_cross_distances(d):
    pts = _pts(200, d, seed=7)
    t = kdt.build(pts, leaf_size=1)
    rng = np.random.default_rng(1)
    internal = np.flatnonzero(t.left >= 0)
    for _ in range(50):
        a, b = rng.choice(internal, 2)
        A = t.pts[t.lo[a] : t.hi[a]]
        B = t.pts[t.lo[b] : t.hi[b]]
        dmat = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)
        assert v_gap(t, [a], [b])[0] <= dmat.min() + 1e-9
        assert v_gap_max(t, [a], [b])[0] >= dmat.max() - 1e-9


def test_duplicate_points_build():
    pts = np.zeros((64, 3))
    t = kdt.build(pts, leaf_size=1)
    assert np.all((t.hi - t.lo)[t.left < 0] == 1)
    assert np.allclose(t.radius, 0.0)


def test_leaf_size_respected():
    pts = _pts(300, 3, seed=9)
    t = kdt.build(pts, leaf_size=16)
    sizes = (t.hi - t.lo)[t.left < 0]
    assert sizes.max() <= 16
    assert sizes.min() >= 1


@pytest.mark.parametrize("min_pts", [1, 2, 5])
def test_attach_core_distances_node_summaries(min_pts):
    pts = _pts(150, 3, seed=4)
    cd = core_distances(pts, min_pts)
    t = kdt.build(pts.copy(), leaf_size=1)
    kdt.attach_core_distances(t, cd)
    cd_re = cd[t.perm]
    for v in range(t.n_nodes):
        seg = cd_re[t.lo[v] : t.hi[v]]
        assert np.isclose(t.cd_min[v], seg.min())
        assert np.isclose(t.cd_max[v], seg.max())


def test_well_separated_scalar_definition():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
    t = kdt.build(pts.copy(), leaf_size=1)
    root_l, root_r = int(t.left[0]), int(t.right[0])
    # Clusters {0,1} and {10,11}: radius 0.5 each, center gap 10
    # => gap - 2*rmax = 9 >= 2 * 0.5: well separated at s=2.
    assert v_well_separated(t, [root_l], [root_r], 2.0)[0]
    assert not v_well_separated(t, [root_l], [root_r], 25.0)[0]


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    d=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_build_invariants_hypothesis(n, d, seed):
    pts = np.random.default_rng(seed).normal(size=(n, d)) * 5
    t = kdt.build(pts.copy(), leaf_size=1)
    assert np.array_equal(np.sort(t.perm), np.arange(n))
    assert t.n_nodes == 2 * n - 1
    leaves = t.left < 0
    assert leaves.sum() == n


def _skewed(n):
    """1-D points 1, 1/2, 1/4, ...: every midpoint split peels off
    one or two points, so the tree is about n levels deep."""
    return (2.0 ** -np.arange(n))[:, None]


def _piled(n, seed):
    """Most points exactly on the root's midpoint cut."""
    pts = np.full((n, 2), 0.5)
    pts[: n // 4] = np.random.default_rng(seed).random((n // 4, 2))
    pts[0], pts[1] = 0.0, 1.0
    return pts


def _adjacent_floats(n):
    """Two adjacent doubles: the midpoint rounds onto the lower one, so
    no key is below the cut and the object-median fallback applies."""
    x = np.array([1.0, np.nextafter(1.0, 2.0)])
    return x[np.arange(n) % 2][:, None]


SPLIT_CASES = {
    "identical": lambda: np.zeros((64, 3)),
    "piled_on_midpoint": lambda: _piled(200, 1),
    "adjacent_floats": lambda: _adjacent_floats(33),
    "one_dim": lambda: _pts(300, 1, seed=3),
    "skewed_deep": lambda: _skewed(1000),
    "uniform_3d": lambda: _pts(500, 3, seed=5),
}


@pytest.mark.parametrize("leaf_size", [1, 4])
@pytest.mark.parametrize("case", list(SPLIT_CASES))
def test_build_keeps_split_rule(case, leaf_size):
    """Every internal node cuts its widest box dimension at the
    midpoint: left keys below the cut, right keys at or above it. When
    that leaves a side empty (or all points are identical) it splits at
    the object median instead. Children partition their parent, leaves
    hold at most ``leaf_size`` points, and node ids are breadth-first."""
    pts = SPLIT_CASES[case]()
    t = kdt.build(pts, leaf_size=leaf_size)
    assert np.array_equal(t.pts, pts[t.perm])
    size = t.hi - t.lo
    internal = np.flatnonzero(t.left >= 0)
    assert np.all(size[t.left < 0] <= leaf_size) and np.all(size[internal] > leaf_size)
    l, r = t.left[internal], t.right[internal]
    assert np.array_equal(t.lo[internal], t.lo[l])
    assert np.array_equal(t.hi[l], t.lo[r])
    assert np.array_equal(t.hi[internal], t.hi[r])
    # Breadth-first ids: siblings adjacent, children after their parent,
    # depth non-decreasing in id order.
    assert np.array_equal(r, l + 1) and np.all(l > internal)
    depth = np.zeros(t.n_nodes, dtype=np.int64)
    for v in internal:
        depth[t.left[v]] = depth[t.right[v]] = depth[v] + 1
    assert np.all(np.diff(depth) >= 0)
    if case == "skewed_deep":
        assert depth.max() >= 500
    fallbacks = 0
    for v, a, b in zip(internal, l, r):
        width = t.bb_max[v] - t.bb_min[v]
        dim = int(np.argmax(width))
        seg = t.pts[t.lo[v] : t.hi[v]]
        assert np.array_equal(t.bb_min[v], seg.min(axis=0))
        assert np.array_equal(t.bb_max[v], seg.max(axis=0))
        keys = seg[:, dim]
        left_keys = t.pts[t.lo[a] : t.hi[a], dim]
        right_keys = t.pts[t.lo[b] : t.hi[b], dim]
        cut = 0.5 * (t.bb_min[v, dim] + t.bb_max[v, dim])
        n_below = int((keys < cut).sum())
        if width[dim] > 0 and 0 < n_below < keys.size:
            assert left_keys.size == n_below
            assert np.all(left_keys < cut) and np.all(right_keys >= cut)
        else:
            fallbacks += 1
            assert left_keys.size == keys.size // 2
            assert left_keys.max() <= right_keys.min()
    if case in ("identical", "adjacent_floats"):
        assert fallbacks == internal.size
