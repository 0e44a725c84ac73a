"""Compute the HDBSCAN* MST + ordered dendrogram + reachability plot on
a named data set. Usage:

    spark-submit jobs/hdbscan.py --method memogfk --minpts 10 \
        --dataset 3D-SS-varden
"""
import argparse

from _common import get_spark


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--method", default="memogfk", choices=["memogfk", "gantao"])
    p.add_argument("--minpts", type=int, default=10)
    p.add_argument("--dataset", default="3D-SS-varden")
    p.add_argument("--sequential", action="store_true")
    args = p.parse_args()

    from repro.core.dendrogram import dendrogram_topdown
    from repro.core.hdbscan import hdbscan_mst
    from repro.experiments import datasets

    pts = datasets.load(args.dataset)
    spark = None if args.sequential else get_spark("hdbscan")
    edges, cd, stats = hdbscan_mst(pts, args.minpts, method=args.method, spark=spark)
    dend = dendrogram_topdown(edges, 0, spark=spark)
    order, bars = dend.reachability()
    finite = bars[1:]
    print(
        f"{args.dataset}: n={pts.shape[0]} MST weight={edges[:, 2].sum():.4f} "
        f"pairs={stats.pairs_materialized} spark_fanouts={stats.spark_fanouts} "
        f"reachability bars "
        f"min/median/max = {finite.min():.3f}/"
        f"{sorted(finite)[len(finite) // 2]:.3f}/{finite.max():.3f}"
    )
    if spark is not None:
        spark.stop()


if __name__ == "__main__":
    main()
