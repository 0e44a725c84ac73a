"""Union-find (disjoint set union) with path compression + union by size.

Shared across every Kruskal invocation of a GFK/MemoGFK run, exactly as
in Algorithms 2 and 3 where ``UF`` persists between rounds.

``union_batch`` joins a whole edge array at once: the result is the one
per-edge ``union`` calls in index order would give, computed in
O(log n) array rounds of Borůvka hooking with the edge index as the
priority (the deterministic-reservations idea behind PBBS's parallel
Kruskal).
"""
from __future__ import annotations

import numpy as np


class UnionFind:
    """Classic DSU over ``n`` elements.

    ``labels()`` returns a fully-compressed root array — the driver
    broadcasts it each GFK round so executors / vectorized filters can
    test connectivity without the structure itself.
    """

    def __init__(self, n: int):
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)
        self.n_components = n

    def find(self, x: int) -> int:
        root = x
        p = self.parent
        while p[root] != root:
            root = p[root]
        # Path compression.
        while p[x] != root:
            p[x], x = root, p[x]
        return int(root)

    def union(self, a: int, b: int) -> bool:
        """Join the components of a and b; True iff they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.n_components -= 1
        return True

    def union_batch(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Join the edges (us[i], vs[i]) in index order; returns the
        boolean mask of the edges whose ``union`` would have returned
        True (those that joined two distinct components).

        Edge i is accepted iff its endpoints are not yet connected by
        the current components plus the edges before it, so the accepted
        edges are the minimum spanning forest of the component graph
        under the edge index as a unique weight. Borůvka finds it: each
        component hooks to the other end of its lowest-index live edge.
        With unique priorities the only hook cycles are two components
        choosing the same edge; the lower id stays root. Pointer jumping
        then flattens the hooks, and every round at least halves the
        components that still have live edges. Leaves ``parent`` fully
        compressed, with root ``size`` and ``n_components`` updated.
        """
        us = np.asarray(us, dtype=np.int64).ravel()
        vs = np.asarray(vs, dtype=np.int64).ravel()
        m = us.size
        accepted = np.zeros(m, dtype=bool)
        roots = self.labels()
        ru, rv = roots[us], roots[vs]
        live = np.flatnonzero(ru != rv)
        if live.size == 0:
            return accepted
        # Compact ids for the components the live edges touch.
        ids, ends = np.unique(np.concatenate([ru[live], rv[live]]), return_inverse=True)
        cu, cv = ends[: live.size], ends[live.size :]
        k = ids.size
        hook = np.arange(k)
        while live.size:
            best = np.full(k, m)
            np.minimum.at(best, cu, live)
            np.minimum.at(best, cv, live)
            c = np.flatnonzero(best < m)
            e = best[c]
            at = np.searchsorted(live, e)
            other = np.where(cu[at] == c, cv[at], cu[at])
            moves = (best[other] != e) | (c > other)
            hook[c[moves]] = other[moves]
            accepted[e] = True
            while True:
                jumped = hook[hook]
                if np.array_equal(jumped, hook):
                    break
                hook = jumped
            cu, cv = hook[cu], hook[cv]
            keep = cu != cv
            live, cu, cv = live[keep], cu[keep], cv[keep]
        top = hook == np.arange(k)
        sizes = np.bincount(hook, weights=self.size[ids], minlength=k)
        self.size[ids[top]] = sizes[top].astype(np.int64)
        new_root = np.arange(roots.size)
        new_root[ids] = ids[hook]
        self.parent = new_root[roots]
        self.n_components -= int(accepted.sum())
        return accepted

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def labels(self) -> np.ndarray:
        """Root id for every element (fully compressed, vectorized)."""
        p = self.parent
        # Pointer-jump until fixpoint; O(n alpha) total in practice.
        while True:
            pp = p[p]
            if np.array_equal(pp, p):
                break
            p = pp
        self.parent = p.copy()
        return p
