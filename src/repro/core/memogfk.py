"""Parallel MemoGFK (Algorithm 3) — the memory-optimized GFK.

The full WSPD is never materialized. Each round:

* ``get_rho`` — first pruned kd-tree traversal: a WRITEMIN over the
  BCCP lower bounds of (implicit) well-separated pairs with cardinality
  > beta that are not yet connected, yielding rho_hi.
* ``get_pairs`` — second pruned traversal: retrieve only well-separated
  pairs whose BCCP lies in [rho_lo, rho_hi), pruning on the bounding-
  sphere bounds (Figure 3) and on union-find connectivity.
* the retrieved edges go to Kruskal; rho_lo = rho_hi; beta *= 2.

Both traversals are level-synchronous vectorized versions of the
FINDPAIR recursion (same visitation DAG, frontier kept in NumPy
arrays). ``get_pairs`` is ``wspd.find_pairs`` with a prune; ``get_rho``
keeps its own loop because its bound tightens inside it. Its WRITEMIN
is applied per level, which can only make rho_hi-based pruning
*weaker* than the sequential DFS, never wrong.

One function serves three paper variants:

* Euclidean BCCP, s=2 separation             -> EMST-MemoGFK
* BCCP*, s=2 separation                      -> HDBSCAN*-GanTao (exact)
* BCCP*, the paper's new well-separation     -> HDBSCAN*-MemoGFK

``spark_ctx`` (repro.engine.distribute.SparkBccp) fans a round's BCCP
batch out to executors when it is large enough to pay for the fan-out —
the "48 cores" configuration.
"""
from __future__ import annotations

import numpy as np

from ..geometry.kdtree import KDTree
from ..graph.kruskal import kruskal_batch
from ..graph.unionfind import UnionFind
from .gfk import BccpCache, GfkStats, mono_labels, pair_bccps
from .wspd import find_pairs, pair_bounds, root_seeds, split_frontier, v_well_separated


def get_rho(
    tree: KDTree,
    beta: int,
    mono: np.ndarray,
    kind: str | float,
    star: bool,
) -> float:
    """GETRHO (Algorithm 3, Line 4): lower bound on the lightest edge
    any not-yet-connected pair with cardinality > beta can produce."""
    sz = (tree.hi - tree.lo).astype(np.int64)
    rho_hi = np.inf
    A, B = root_seeds(tree)
    while A.size:
        keep = sz[A] + sz[B] > beta  # S_l pairs (and descendants) pruned
        keep &= ~((mono[A] != -1) & (mono[A] == mono[B]))
        A, B = A[keep], B[keep]
        if not A.size:
            break
        lb, _ = pair_bounds(tree, A, B, star)
        live = lb < rho_hi
        A, B, lb = A[live], B[live], lb[live]
        if not A.size:
            break
        ws = v_well_separated(tree, A, B, kind)
        if np.any(ws):
            rho_hi = min(rho_hi, float(lb[ws].min()))  # WRITEMIN
        A, B, stuck = split_frontier(tree, A[~ws], B[~ws])
        # ``stuck`` = coincident singleton pairs: zero-weight edges that
        # the first get_pairs round will pick up; they never bound rho.
    return float(rho_hi)


def get_pairs(
    tree: KDTree,
    rho_lo: float,
    rho_hi: float,
    mono: np.ndarray,
    kind: str | float,
    star: bool,
    cache: BccpCache,
    stats: GfkStats,
    spark_ctx=None,
) -> np.ndarray:
    """GETPAIRS (Algorithm 3, Line 5): edges of well-separated pairs
    with BCCP in [rho_lo, rho_hi), via a bounds-pruned traversal.

    Prunes (Figure 3b): d_max(A,B) < rho_lo (descendants' BCCPs below
    range), lb >= rho_hi (descendants' BCCPs above range), or A, B
    already in one component. Well-separated survivors get their BCCP
    computed (one batched driver call, or one Spark fan-out) and cached;
    only in-range ones are materialized as edges.
    """

    def prune(A, B):
        keep = ~((mono[A] != -1) & (mono[A] == mono[B]))
        lb, ub = pair_bounds(tree, A[keep], B[keep], star)
        keep[keep] = (ub >= rho_lo) & (lb < rho_hi)
        return keep

    cand = find_pairs(tree, *root_seeds(tree), kind, prune)
    stats.pairs_materialized = max(stats.pairs_materialized, cand.shape[0])
    edges = pair_bccps(tree, cand[:, 0], cand[:, 1], cache, star, stats, spark_ctx)
    # Select on w clipped to the pair's own [lb, ub], the values the
    # traversal prunes with. lb <= BCCP <= ub exactly, but a computed w
    # can fall an ulp outside (for two single-point nodes lb = ub = their
    # distance, computed another way); such a pair would be pruned while
    # lb >= rho_hi and then fail w >= rho_lo in the next round.
    lb, ub = pair_bounds(tree, cand[:, 0], cand[:, 1], star)
    key = np.clip(edges[:, 2], lb, ub)
    return edges[(key >= rho_lo) & (key < rho_hi)]


def memogfk_mst(
    tree: KDTree,
    star: bool = False,
    separation: str | float = "s2",
    spark_ctx=None,
    max_rounds: int = 128,
) -> tuple[np.ndarray, GfkStats]:
    """Run Algorithm 3. Returns ((n-1, 3) [u, v, w] MST edges, stats).

    ``separation="hdbscan"`` + ``star=True`` is HDBSCAN*-MemoGFK;
    ``separation="s2"`` + ``star=True`` is the exact GanTao baseline;
    ``separation="s2"`` + ``star=False`` is EMST-MemoGFK.
    """
    n = tree.n
    uf = UnionFind(n)
    out_edges: list[tuple[int, int, float]] = []
    cache = BccpCache()
    stats = GfkStats()
    beta = 2
    rho_lo = 0.0
    while len(out_edges) < n - 1:
        stats.rounds += 1
        if stats.rounds > max_rounds:
            raise RuntimeError("MemoGFK failed to converge (bug)")
        mono = mono_labels(tree, uf)
        rho_hi = get_rho(tree, beta, mono, separation, star)
        batch = get_pairs(
            tree,
            rho_lo,
            rho_hi,
            mono,
            separation,
            star,
            cache,
            stats,
            spark_ctx,
        )
        if batch.size:
            kruskal_batch(
                batch[:, 0].astype(np.int64),
                batch[:, 1].astype(np.int64),
                batch[:, 2],
                uf,
                out_edges,
            )
        if (
            not np.isfinite(rho_hi)
            and batch.size == 0
            and len(out_edges) < n - 1
        ):
            raise RuntimeError("MemoGFK exhausted pairs before spanning (bug)")
        rho_lo = rho_hi
        beta *= 2
    return np.asarray(out_edges, dtype=np.float64).reshape(-1, 3), stats
