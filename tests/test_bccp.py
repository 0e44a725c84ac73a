"""BCCP / BCCP* kernels against brute force, the batched ``bccp_pairs``
against a per-pair dense reference, and the bounding-sphere bounds
MemoGFK prunes with (Figure 3a: lb <= BCCP <= ub)."""
import numpy as np
import pytest

from repro.core import bccp as bccp_mod
from repro.core.bccp import bccp, bccp_kernel, bccp_pairs, bccp_star
from repro.core.wspd import pair_bounds
from repro.geometry import kdtree as kdt


def _tree(n=150, d=3, seed=0, with_cd=True):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, d)) * 10
    t = kdt.build(pts, leaf_size=1)
    if with_cd:
        kdt.attach_core_distances(t, rng.random(n) * 4)
    return t


@pytest.mark.parametrize("a,b", [(1, 1), (1, 7), (6, 6), (40, 3), (33, 33)])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_bccp_kernel_vs_bruteforce(a, b, d):
    rng = np.random.default_rng(a * 100 + b + d)
    P = rng.random((a, d))
    Q = rng.random((b, d)) + 0.5
    i, j, w = bccp_kernel(P, Q)
    dmat = np.linalg.norm(P[:, None] - Q[None], axis=2)
    assert np.isclose(w, dmat.min())
    assert np.isclose(np.linalg.norm(P[i] - Q[j]), w)


@pytest.mark.parametrize("a,b", [(1, 1), (5, 9), (30, 30)])
def test_bccp_star_kernel_vs_bruteforce(a, b):
    rng = np.random.default_rng(a + b)
    P = rng.random((a, 3))
    Q = rng.random((b, 3)) + 0.2
    cdP = rng.random(a)
    cdQ = rng.random(b)
    i, j, w = bccp_kernel(P, Q, cdP, cdQ)
    dmat = np.linalg.norm(P[:, None] - Q[None], axis=2)
    dm = np.maximum(dmat, np.maximum(cdP[:, None], cdQ[None]))
    assert np.isclose(w, dm.min())
    assert np.isclose(
        max(np.linalg.norm(P[i] - Q[j]), cdP[i], cdQ[j]), w
    )


def test_bccp_kernel_chunking():
    """Force the row-chunked path (cells > _CHUNK_CELLS)."""
    from repro.core import bccp as m

    old = m._CHUNK_CELLS
    m._CHUNK_CELLS = 50
    try:
        rng = np.random.default_rng(3)
        P, Q = rng.random((40, 2)), rng.random((37, 2))
        i, j, w = bccp_kernel(P, Q)
        assert np.isclose(
            w, np.linalg.norm(P[:, None] - Q[None], axis=2).min()
        )
    finally:
        m._CHUNK_CELLS = old


def test_bccp_exact_for_coincident_points():
    """The expanded-form cancellation must not leak into the result."""
    P = np.array([[1.23456789, 9.87654321]])
    i, j, w = bccp_kernel(P, P.copy())
    assert w == 0.0


def test_tree_bccp_returns_original_ids():
    t = _tree(with_cd=False)
    internal = np.flatnonzero(t.left >= 0)
    for v in internal[:30]:
        a, b = int(t.left[v]), int(t.right[v])
        u, w_, dist = bccp(t, a, b)
        # u, w_ are ids into the *original* point order.
        assert u in t.points_of(a) and w_ in t.points_of(b)


def test_star_bounds_bracket_bccp_star():
    t = _tree(seed=5)
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b = rng.integers(0, t.n_nodes, 2)
        a, b = int(a), int(b)
        _, _, w = bccp_star(t, a, b)
        (lb,), (ub,) = pair_bounds(t, [a], [b], star=True)
        assert lb <= w + 1e-9
        assert ub >= w - 1e-9


def _dense(t, a, b, cd):
    """Per-pair reference: the full distance block of nodes a x b,
    from coordinate differences, under d_m when ``cd`` is given."""
    P = t.pts[t.lo[a] : t.hi[a]]
    Q = t.pts[t.lo[b] : t.hi[b]]
    d2 = np.zeros((P.shape[0], Q.shape[0]))
    for k in range(t.dim):
        d2 += (P[:, None, k] - Q[None, :, k]) ** 2
    d = np.sqrt(d2)
    if cd is not None:
        d = np.maximum(d, np.maximum(cd[t.lo[a] : t.hi[a], None], cd[None, t.lo[b] : t.hi[b]]))
    return d


def _ragged_batch(t, rng, count=300):
    """Random node pairs, plus 1x1 leaf pairs and pairs above the
    large-pair threshold, shuffled together."""
    sz = t.hi - t.lo
    A = rng.integers(0, t.n_nodes, count)
    B = rng.integers(0, t.n_nodes, count)
    leaves = np.flatnonzero(t.left < 0)
    big = np.flatnonzero(sz * sz[t.left[0]] > bccp_mod._LARGE_PAIR_CELLS)
    A = np.concatenate([A, rng.choice(leaves, 40), big])
    B = np.concatenate([B, rng.choice(leaves, 40), np.full(big.size, t.left[0])])
    perm = rng.permutation(A.size)
    return A[perm], B[perm]


def _check_against_dense(t, A, B, cd, exact_argmin):
    u, v, w = bccp_pairs(t, A, B, cd)
    sz = t.hi - t.lo
    pos = np.empty(t.n, dtype=np.int64)
    pos[t.perm] = np.arange(t.n)
    for k, (a, b) in enumerate(zip(A, B)):
        d = _dense(t, a, b, cd)
        i, j = pos[u[k]] - t.lo[a], pos[v[k]] - t.lo[b]
        assert 0 <= i < sz[a] and 0 <= j < sz[b]
        if exact_argmin or sz[a] * sz[b] <= bccp_mod._LARGE_PAIR_CELLS:
            # Ragged path: exact minimum, first in row-major order.
            assert w[k] == d.min()
            assert (i, j) == divmod(int(np.argmin(d)), d.shape[1])
        else:
            assert np.isclose(w[k], d.min())
            assert np.isclose(d[i, j], w[k])
    return u, v, w


@pytest.mark.parametrize("star", [False, True])
@pytest.mark.parametrize("d", [1, 2, 5, 7])
def test_bccp_pairs_vs_bruteforce(d, star):
    rng = np.random.default_rng(d)
    pts = rng.random((120, d)) * 10
    pts = np.vstack([pts, pts[:30]])  # coincident points
    t = kdt.build(pts, leaf_size=1)
    kdt.attach_core_distances(t, rng.random(t.n) * 2)
    A, B = _ragged_batch(t, rng)
    assert ((t.hi - t.lo)[A] * (t.hi - t.lo)[B] > bccp_mod._LARGE_PAIR_CELLS).any()
    _check_against_dense(t, A, B, t.cd if star else None, exact_argmin=False)


def test_bccp_pairs_coincident_points_exact_zero():
    rng = np.random.default_rng(4)
    base = rng.random((50, 3)) * 1e3 + 1e6
    t = kdt.build(np.vstack([base, base]), leaf_size=1)
    cd = rng.random(t.n)
    kdt.attach_core_distances(t, cd)
    leaves = np.flatnonzero(t.left < 0)
    of = np.empty(t.n, dtype=np.int64)  # leaf holding each original id
    of[t.perm[t.lo[leaves]]] = leaves
    A, B = of[:50], of[50:]
    u, v, w = bccp_pairs(t, A, B)
    assert np.all(w == 0.0)
    u, v, w = bccp_pairs(t, A, B, t.cd)
    assert np.array_equal(w, np.maximum(cd[:50], cd[50:]))


@pytest.mark.parametrize("star", [False, True])
def test_bccp_pairs_chunk_boundaries(monkeypatch, star):
    """Ragged passes split between pairs; results must not depend on
    where the splits fall."""
    rng = np.random.default_rng(8)
    t = _tree(n=200, d=3, seed=8)
    A, B = _ragged_batch(t, rng)
    cd = t.cd if star else None
    whole = bccp_pairs(t, A, B, cd)
    for cells in (1, 7, 50):
        monkeypatch.setattr(bccp_mod, "_RAGGED_CELLS", cells)
        got = _check_against_dense(t, A, B, cd, exact_argmin=False)
        for x, y in zip(got, whole):
            assert np.array_equal(x, y)


@pytest.mark.parametrize("star", [False, True])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_bccp_pairs_heavy_ties_first_argmin(d, star):
    """Integer grid with repeats: distances tie everywhere (exactly,
    since the arithmetic is exact); both paths must pick the first
    minimum in row-major order, as np.argmin does."""
    rng = np.random.default_rng(d + 20)
    pts = rng.integers(0, 3, (150, d)).astype(np.float64)
    t = kdt.build(pts, leaf_size=1)
    kdt.attach_core_distances(t, rng.integers(1, 3, t.n).astype(np.float64))
    A, B = _ragged_batch(t, rng)
    _check_against_dense(t, A, B, t.cd if star else None, exact_argmin=True)


def test_bccp_wrappers_match_bccp_pairs():
    t = _tree(seed=6)
    rng = np.random.default_rng(6)
    A, B = rng.integers(0, t.n_nodes, (2, 50))
    for cd, fn in ((None, bccp), (t.cd, bccp_star)):
        u, v, w = bccp_pairs(t, A, B, cd)
        for k, (a, b) in enumerate(zip(A, B)):
            assert fn(t, int(a), int(b)) == (u[k], v[k], w[k])
