"""Union-find and Kruskal substrates."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.kruskal import assert_spanning, kruskal_batch, mst
from repro.graph.prim import mst_bruteforce
from repro.graph.unionfind import UnionFind


def test_unionfind_basic():
    uf = UnionFind(5)
    assert uf.n_components == 5
    assert uf.union(0, 1)
    assert not uf.union(1, 0)
    assert uf.connected(0, 1)
    assert not uf.connected(0, 2)
    assert uf.n_components == 4


def test_unionfind_labels_consistent():
    uf = UnionFind(100)
    rng = np.random.default_rng(0)
    for _ in range(80):
        uf.union(int(rng.integers(100)), int(rng.integers(100)))
    lab = uf.labels()
    for i in range(100):
        assert lab[i] == uf.find(i)
    assert len(np.unique(lab)) == uf.n_components


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=60
    )
)
def test_unionfind_matches_naive(ops):
    uf = UnionFind(30)
    naive = list(range(30))

    def naive_root(x):
        while naive[x] != x:
            x = naive[x]
        return x

    for a, b in ops:
        ra, rb = naive_root(a), naive_root(b)
        if ra != rb:
            naive[ra] = rb
        uf.union(a, b)
    for a in range(30):
        for b in range(30):
            assert uf.connected(a, b) == (naive_root(a) == naive_root(b))


@pytest.mark.parametrize("n", [2, 5, 30, 120])
def test_kruskal_matches_prim_on_complete_graph(n):
    pts = np.random.default_rng(n).random((n, 3))
    iu, ju = np.triu_indices(n, k=1)
    ws = np.linalg.norm(pts[iu] - pts[ju], axis=1)
    got = mst(n, iu, ju, ws)
    ref = mst_bruteforce(pts)
    assert got.shape == ref.shape
    assert np.allclose(np.sort(got[:, 2]), np.sort(ref[:, 2]))


def test_kruskal_batched_equals_oneshot():
    """Feeding weight-ordered batches with a shared UF (the GFK calling
    convention) must equal one-shot Kruskal."""
    n = 80
    pts = np.random.default_rng(1).random((n, 2))
    iu, ju = np.triu_indices(n, k=1)
    ws = np.linalg.norm(pts[iu] - pts[ju], axis=1)
    order = np.argsort(ws)
    iu, ju, ws = iu[order], ju[order], ws[order]
    uf = UnionFind(n)
    out = []
    for lo in range(0, ws.size, 500):
        kruskal_batch(iu[lo : lo + 500], ju[lo : lo + 500], ws[lo : lo + 500], uf, out)
    got = np.asarray(out)
    ref = mst(n, iu, ju, ws)
    assert np.allclose(np.sort(got[:, 2]), np.sort(ref[:, 2]))


def test_kruskal_disconnected_graph():
    got = mst(4, np.array([0, 2]), np.array([1, 3]), np.array([1.0, 2.0]))
    assert got.shape[0] == 2  # spanning forest, not tree
    with pytest.raises(ValueError, match="2 edges for n = 4"):
        assert_spanning(4, got)
    tree = mst(4, np.array([0, 1, 2]), np.array([1, 2, 3]), np.ones(3))
    assert assert_spanning(4, tree) is tree


def _multigraph_batches(seed, n, n_batches):
    """Edge batches over few distinct vertices (many repeated edges and
    self-loops) with integer weights in {0, 1, 2} (heavy ties)."""
    rng = np.random.default_rng(seed)
    for _ in range(n_batches):
        m = int(rng.integers(0, 3 * n))
        yield (
            rng.integers(0, n, m),
            rng.integers(0, n, m),
            rng.integers(0, 3, m).astype(np.float64),
        )


def _partition(uf, n):
    """Component of each element as its smallest member (root-free)."""
    lab = uf.labels()
    low = np.full(n, n)
    np.minimum.at(low, lab, np.arange(n))
    return low[lab]


@pytest.mark.parametrize("seed", range(12))
def test_union_batch_equals_per_edge_union(seed):
    n = [1, 2, 7, 40][seed % 4]
    batch, ref = UnionFind(n), UnionFind(n)
    for us, vs, _ in _multigraph_batches(seed, n, n_batches=4):
        want = np.array([ref.union(int(u), int(v)) for u, v in zip(us, vs)], dtype=bool)
        got = batch.union_batch(us, vs)
        assert np.array_equal(got, want)
        assert batch.n_components == ref.n_components
        assert np.array_equal(_partition(batch, n), _partition(ref, n))
        roots = np.flatnonzero(batch.parent == np.arange(n))
        assert np.array_equal(batch.size[roots], np.bincount(batch.parent, minlength=n)[roots])
    # Per-edge calls keep working on the batch-built structure.
    rng = np.random.default_rng(seed + 100)
    for u, v in rng.integers(0, n, (3 * n, 2)):
        assert batch.union(int(u), int(v)) == ref.union(int(u), int(v))
        assert batch.n_components == ref.n_components
    assert np.array_equal(_partition(batch, n), _partition(ref, n))


def test_union_batch_empty_and_all_redundant():
    uf = UnionFind(4)
    assert uf.union_batch(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)).size == 0
    assert uf.union_batch([0, 1, 2], [1, 2, 3]).all()
    assert not uf.union_batch([3, 0, 2, 1], [0, 2, 2, 3]).any()
    assert uf.n_components == 1


@pytest.mark.parametrize("seed", range(8))
def test_kruskal_batch_equals_per_edge_reference(seed):
    """Same accepted edges, in the same order, and the same counts as a
    per-edge Kruskal over the stably weight-sorted batch, with one
    union-find shared across batches."""
    n = [5, 30][seed % 2]
    uf, ref_uf = UnionFind(n), UnionFind(n)
    out, ref_out = [], []
    for us, vs, ws in _multigraph_batches(seed, n, n_batches=3):
        got = kruskal_batch(us, vs, ws, uf, out)
        want = 0
        for i in np.argsort(ws, kind="stable"):
            if ref_uf.union(int(us[i]), int(vs[i])):
                ref_out.append((int(us[i]), int(vs[i]), float(ws[i])))
                want += 1
        assert got == want
        assert out == ref_out
