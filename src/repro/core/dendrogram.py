"""Ordered dendrogram and reachability plot (Section 4).

Given a weighted spanning tree (the EMST for single-linkage clustering,
or the HDBSCAN* mutual-reachability MST), build the *ordered
dendrogram* of a starting vertex s: the binary tree whose internal
nodes are the tree edges (split heights = edge weights) and whose
in-order leaf traversal is exactly Prim's visit order from s — i.e. the
reachability plot (Theorem 4.2).

Two constructions, which must agree (tests enforce it):

* ``dendrogram_sequential`` — the classic bottom-up agglomerative
  algorithm (sort edges, merge with union-find), ordering each internal
  node's children by the vertex distances of the edge endpoints.
* ``dendrogram_topdown`` — the paper's novel divide-and-conquer: take
  the heaviest ~n/10 edges ("heavy"), solve each light-edge component
  and the contracted heavy problem recursively, and graft light roots
  into the heavy dendrogram's leaves. With a SparkSession, the
  top-level light subproblems are solved in one Spark fan-out when
  they are large enough to pay for it (the paper's implementation
  note: parallelism across subproblems).

Node encoding: the dendrogram over n leaves has n-1 internal nodes in
flat arrays ``left``/``right``/``weight``. A child reference r is a
leaf vertex v when r < 0 (encoded -(v+1)) and an internal node index
otherwise.
"""
from __future__ import annotations

import pickle
from dataclasses import dataclass
from functools import partial

import numpy as np
from pyspark.sql import SparkSession

from ..graph.unionfind import UnionFind

# Subproblems at or below this edge count are solved bottom-up.
_SEQ_CUTOFF = 256
_HEAVY_FRAC = 0.1  # the paper's n/10 heavy edges


def leaf_ref(v):
    """Child ref of leaf vertex v (an int or an int array)."""
    return -(v + 1)


@dataclass
class Dendrogram:
    """Ordered dendrogram over n leaves (see module docstring)."""

    n: int
    left: np.ndarray    # (n-1,) child refs
    right: np.ndarray   # (n-1,)
    weight: np.ndarray  # (n-1,) split heights
    root: int           # ref of the root

    def reachability(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, bars): the reachability plot. bars[0] = inf; for
        i > 0, bars[i] is the weight of the internal node between
        leaves i-1 and i in the in-order traversal (their LCA), which
        equals min_{j<i} d_m(p_i, p_j) for an ordered dendrogram."""
        order = np.empty(self.n, dtype=np.int64)
        bars = np.empty(self.n)
        k = 0
        last_internal = np.inf
        stack: list[int] = []
        cur = self.root
        while True:
            while cur >= 0:  # internal node
                stack.append(cur)
                cur = int(self.left[cur])
            order[k] = -cur - 1  # the leaf's vertex
            bars[k] = last_internal
            k += 1
            if not stack:
                break
            node = stack.pop()
            last_internal = float(self.weight[node])
            cur = int(self.right[node])
        assert k == self.n
        return order, bars


def vertex_distances(n: int, edges: np.ndarray, s: int = 0) -> np.ndarray:
    """Unweighted hop distance from s in the tree (BFS) — the paper's
    'vertex distances', computed once and reused at every recursion
    level (their Euler-tour list-ranking step)."""
    heads = np.concatenate([edges[:, 0], edges[:, 1]]).astype(np.int64)
    tails = np.concatenate([edges[:, 1], edges[:, 0]]).astype(np.int64)
    order = np.argsort(heads, kind="stable")
    heads, tails = heads[order], tails[order]
    starts = np.searchsorted(heads, np.arange(n + 1))
    dist = np.full(n, -1, dtype=np.int64)
    dist[s] = 0
    frontier = [s]
    while frontier:
        nxt = []
        for u in frontier:
            for v in tails[starts[u] : starts[u + 1]]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(int(v))
        frontier = nxt
    if np.any(dist < 0):
        raise ValueError("edges do not form a spanning tree")
    return dist


class _Builder:
    """Accumulates global internal-node arrays across recursion."""

    def __init__(self, n: int):
        self.left = np.empty(n - 1, dtype=np.int64)
        self.right = np.empty(n - 1, dtype=np.int64)
        self.weight = np.empty(n - 1)
        self.next_id = 0

    def add(self, left: int, right: int, w: float) -> int:
        i = self.next_id
        self.left[i] = left
        self.right[i] = right
        self.weight[i] = w
        self.next_id += 1
        return i


def _bottom_up(
    edges: np.ndarray, refs: np.ndarray, builder: _Builder
) -> int:
    """Classic agglomerative construction on one subproblem.

    ``edges`` is (m, 5): [u, v, w, vdist_u, vdist_v] with u, v local
    vertex ids in [0, m]; ``refs[i]`` is the global child ref standing
    for local vertex i (a true leaf, or the root of an already-solved
    lighter subproblem — that is how the top-down recursion grafts
    light dendrograms into heavy leaves). Returns the root ref.
    """
    m = edges.shape[0]
    k = m + 1
    uf = UnionFind(k)
    comp_root = {i: int(refs[i]) for i in range(k)}
    order = np.argsort(edges[:, 2], kind="stable")
    root = int(refs[0])
    for idx in order:
        u, v, w, vdu, vdv = edges[idx]
        u, v = int(u), int(v)
        ru, rv = uf.find(u), uf.find(v)
        cu, cv = comp_root[ru], comp_root[rv]
        # Ordering rule (Theorem 4.2): the side holding the endpoint
        # with the smaller vertex distance goes left.
        if vdu <= vdv:
            node = builder.add(cu, cv, float(w))
        else:
            node = builder.add(cv, cu, float(w))
        uf.union(u, v)
        comp_root[uf.find(u)] = node
        root = node
    return root


def _n_heavy(m: int) -> int:
    """How many of m edges are heavy: the heaviest tenth (paper: n/10),
    at least one."""
    return max(1, int(np.ceil(m * _HEAVY_FRAC)))


def _split_subproblems(
    edges: np.ndarray,
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """One level of the top-down recursion.

    Splits ``edges`` (local ids 0..k-1) into the heavy subproblem and
    the light components. Returns (heavy_edges_localized, lights,
    comp_of_vertex) where ``lights`` is a list of (light_edges_localized,
    member_local_vertices); heavy edge endpoints are component ids and
    the per-edge endpoint vdists are preserved for the ordering rule.
    """
    m = edges.shape[0]
    k = m + 1
    h = _n_heavy(m)
    # The h heaviest edges are heavy; ties broken stably.
    order = np.argsort(-edges[:, 2], kind="stable")
    heavy_idx = order[:h]
    light_idx = order[h:]
    uf = UnionFind(k)
    uf.union_batch(edges[light_idx, 0], edges[light_idx, 1])
    labels = uf.labels()
    comp_ids, comp_of_vertex = np.unique(labels, return_inverse=True)

    # Light components -> localized subproblems (group light edges by
    # component with one sort; localize endpoints with searchsorted).
    lights: list[tuple[np.ndarray, np.ndarray]] = []
    if light_idx.size:
        le = edges[light_idx]
        comp_of_edge = comp_of_vertex[le[:, 0].astype(np.int64)]
        grp = np.argsort(comp_of_edge, kind="stable")
        le = le[grp]
        comp_sorted = comp_of_edge[grp]
        cuts = np.flatnonzero(np.diff(comp_sorted)) + 1
        for sub in np.split(le, cuts):
            members = np.unique(
                np.concatenate([sub[:, 0], sub[:, 1]]).astype(np.int64)
            )
            sub_local = sub.copy()
            sub_local[:, 0] = np.searchsorted(members, sub[:, 0].astype(np.int64))
            sub_local[:, 1] = np.searchsorted(members, sub[:, 1].astype(np.int64))
            lights.append((sub_local, members))

    he = edges[heavy_idx].copy()
    he[:, 0] = comp_of_vertex[he[:, 0].astype(np.int64)]
    he[:, 1] = comp_of_vertex[he[:, 1].astype(np.int64)]
    return he, lights, comp_of_vertex


def _solve_lights(lights, refs: np.ndarray, builder: _Builder) -> list[int]:
    """Root refs of the light subproblems, each solved on the driver."""
    return [_solve(sub_local, refs[members], builder) for sub_local, members in lights]


def _solve(
    edges: np.ndarray, refs: np.ndarray, builder: _Builder, solve_lights=_solve_lights
) -> int:
    """Recursive top-down solve; returns the root ref.

    ``solve_lights(lights, refs, builder)`` solves this level's light
    subproblems into ``builder`` and returns their root refs; deeper
    levels always solve theirs on the driver.
    """
    m = edges.shape[0]
    if m == 0:
        return int(refs[0])
    if m <= _SEQ_CUTOFF:
        return _bottom_up(edges, refs, builder)
    he, lights, comp_of_vertex = _split_subproblems(edges)
    n_comp = int(comp_of_vertex.max()) + 1
    comp_refs = np.empty(n_comp, dtype=np.int64)
    # Singleton components keep their original refs (vectorized).
    counts = np.bincount(comp_of_vertex, minlength=n_comp)
    singles = np.flatnonzero(counts[comp_of_vertex] == 1)
    comp_refs[comp_of_vertex[singles]] = refs[singles]
    # Light subproblems first (their roots become heavy leaves).
    for (_, members), root in zip(lights, solve_lights(lights, refs, builder)):
        comp_refs[comp_of_vertex[members[0]]] = root
    return _solve(he, comp_refs, builder)


def solve_subproblem_kernel(edges: np.ndarray, n_local: int):
    """Executor-side kernel for Spark-dispatched light subproblems.

    Solves one subproblem entirely locally (local leaf refs), returning
    (left, right, weight, root) with *local* encoding: leaves are
    -(local_vertex+1); internal nodes are local indices. The driver
    remaps both into the global builder.
    """
    builder = _Builder(n_local)
    root = _solve(edges, leaf_ref(np.arange(n_local)), builder)
    nn = builder.next_id
    return builder.left[:nn], builder.right[:nn], builder.weight[:nn], root


def _ship_lights(spark: SparkSession, lights, refs: np.ndarray, builder: _Builder) -> list[int]:
    """``_solve_lights`` in one Spark fan-out: each light subproblem is
    solved by ``solve_subproblem_kernel`` in an executor, and its nodes
    are grafted into ``builder`` in the order the driver would add them."""
    from ..engine.distribute import run_payloads_spark

    payloads = [pickle.dumps((sub_local, int(members.size))) for sub_local, members in lights]
    results = run_payloads_spark(spark, payloads, "solve_subproblem_kernel")
    roots = []
    for (_, members), (l_left, l_right, l_weight, l_root) in zip(lights, results):
        base, k = builder.next_id, l_left.shape[0]
        sub_refs = refs[members]

        def remap(r):
            # Local leaf -> its member's global ref; local internal node
            # -> its builder index. (For r >= 0, -r - 1 indexes sub_refs
            # from the end; np.where discards that value.)
            return np.where(r < 0, sub_refs[-r - 1], r + base)

        builder.left[base : base + k] = remap(l_left)
        builder.right[base : base + k] = remap(l_right)
        builder.weight[base : base + k] = l_weight
        builder.next_id += k
        roots.append(int(remap(l_root)))
    return roots


def _with_vertex_distances(edges: np.ndarray, s: int) -> np.ndarray:
    """(n-1, 5) [u, v, w, vdist_u, vdist_v] rows of a spanning tree's
    (n-1, 3) edges: the subproblem format of ``_bottom_up``."""
    vd = vertex_distances(edges.shape[0] + 1, edges, s)
    return np.column_stack([edges[:, :3], vd[edges[:, :2].astype(np.int64)]])


def dendrogram_sequential(
    edges: np.ndarray, s: int = 0
) -> Dendrogram:
    """Bottom-up ordered dendrogram over a spanning tree's (n-1, 3)
    [u, v, w] edges — the sequential baseline of Section 4."""
    n = edges.shape[0] + 1
    builder = _Builder(n)
    root = _bottom_up(_with_vertex_distances(edges, s), leaf_ref(np.arange(n)), builder)
    return Dendrogram(n, builder.left, builder.right, builder.weight, root)


def dendrogram_topdown(
    edges: np.ndarray, s: int = 0, spark: SparkSession | None = None
) -> Dendrogram:
    """The paper's top-down divide-and-conquer ordered dendrogram.

    With ``spark``, when the top level's light-edge subproblems hold
    enough edges to pay for a fan-out, they are solved in one Spark
    fan-out (each by the same kernel, in an executor) and grafted into
    the heavy-edge dendrogram computed on the driver.
    """
    n = edges.shape[0] + 1
    solve_lights = _solve_lights
    if spark is not None:
        from ..engine.distribute import fans_out

        if fans_out(spark, n - 1 - _n_heavy(n - 1), "dendrogram"):
            solve_lights = partial(_ship_lights, spark)
    builder = _Builder(n)
    root = _solve(
        _with_vertex_distances(edges, s), leaf_ref(np.arange(n)), builder, solve_lights
    )
    return Dendrogram(n, builder.left, builder.right, builder.weight, root)


def single_linkage_labels(
    emst_edges: np.ndarray, n: int, eps: float
) -> np.ndarray:
    """Flat single-linkage clustering: components under EMST edges with
    weight <= eps (the horizontal dendrogram cut at eps)."""
    e = np.asarray(emst_edges).reshape(-1, 3)
    cut = e[e[:, 2] <= eps]
    uf = UnionFind(n)
    uf.union_batch(cut[:, 0], cut[:, 1])
    roots = uf.labels()
    _, labels = np.unique(roots, return_inverse=True)
    return labels
