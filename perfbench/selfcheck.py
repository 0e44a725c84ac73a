"""Self-check of the benchmark itself, on small inputs.

    python3 perfbench/selfcheck.py

For every workload, at small n, it runs one end-to-end and one traced
pass and asserts that:

* every metric listed in BENCHMARK.json is reported, with its unit;
* every job passes the correctness check;
* the layer-separation zeros hold: no Spark on the sequential
  workload, and on the Spark workload Spark jobs and no driver-side
  k-NN (core distances go through ``core_distances_spark``);
* a job whose output has one corrupted edge weight is counted as
  failed.

Exits non-zero on the first failed assertion.
"""
from __future__ import annotations

import dataclasses
import json
import sys
import time

import run

SMALL_N = 600
SPARK_METRICS = [m for m in run.PER_LAYER_UNITS if m.startswith("spark.")]


def require(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {what}")


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        require(listed == units, f"BENCHMARK.json {key} {listed} != reported {units}")
    require(
        [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
        "BENCHMARK.json workloads differ from workloads.py",
    )


def corrupt(w, pts, spark):
    edges, cd, dendro = workloads.run_job(w, pts, spark)
    edges = edges.copy()
    edges[len(edges) // 2, 2] *= 1.0 + 1e-6
    return edges, cd, dendro


def main() -> int:
    check_benchmark_json()
    for name, w in workloads.WORKLOADS.items():
        small = dataclasses.replace(w, n=SMALL_N, pool=2)
        e2e, loop = run.run_workload(small, 1, 0.0, False, t0=time.perf_counter())
        require(set(e2e) == set(run.END_TO_END_UNITS), f"{name}: end-to-end metrics {sorted(e2e)}")
        require(loop.failed == 0, f"{name}: failures {loop.failures}")
        require(all(v > 0 for v in e2e.values()), f"{name}: a zero end-to-end metric {e2e}")

        m, loop = run.run_workload(small, 1, 0.0, True, t0=time.perf_counter())
        require(set(m) == set(run.PER_LAYER_UNITS), f"{name}: per-layer metrics {sorted(m)}")
        require(loop.failed == 0, f"{name}: failures {loop.failures}")
        for k in ("kdtree.build_calls", "kdtree.attach_cd_s", "memogfk.rounds", "dendrogram.topdown_s"):
            require(m[k] > 0, f"{name}: {k} = {m[k]}, expected > 0")
        knn = m["knn.core_distances_s"]
        require((knn > 0) != w.spark, f"{name}: knn.core_distances_s = {knn}")
        if w.spark:
            for k in ("spark.jobs", "spark.bccp_many_calls", "spark.payloads_s"):
                require(m[k] > 0, f"{name}: {k} = {m[k]}, expected > 0")
        else:
            for k in SPARK_METRICS:
                require(m[k] == 0, f"{name}: {k} = {m[k]}, expected 0")
        print(f"selfcheck {name}: ok ({loop.attempted} traced-run jobs)")

    small = dataclasses.replace(workloads.WORKLOADS["hdbscan-uniform3d"], n=SMALL_N, pool=2)
    _, loop = run.run_workload(small, 1, 0.0, False, job=corrupt, t0=time.perf_counter())
    require(
        loop.attempted >= 1 and loop.failed == loop.attempted,
        f"corrupted weight: {loop.failed} of {loop.attempted} jobs failed",
    )
    print(f"selfcheck corrupted weight: ok ({loop.failures[0]})")
    return 0


if __name__ == "__main__":
    run.prepare_environment()
    import workloads

    sys.exit(main())
