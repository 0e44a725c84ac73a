"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop: one client, one job at a time, each job
taking the next input of a pool generated from ``--seed``. Every timed
job's output is checked against the Prim oracles (see workloads.py).

``--trace 0`` prints the end-to-end metrics (setup_s, job_s,
points_per_s, peak_rss_mb). Times are scaled to a reference machine
speed by a calibration block timed right before and after each job (see
calibrate.py); the unscaled wall times are printed on the config line.
``--trace 1`` runs each of the first half of the pool once untraced and
once traced and prints the per-layer metrics, averaged per traced job,
with the tracing overhead. The last line of standard output is one JSON
object: correct, attempted, failed and metrics. Run from the root of a
source checkout; the program is imported from its ``src/``.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"  # Spark and temp files stay in the checkout

END_TO_END_UNITS = {"setup_s": "s", "job_s": "s", "points_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "kdtree.build_s": "s",
    "kdtree.build_calls": "count",
    "kdtree.attach_cd_s": "s",
    "knn.core_distances_s": "s",
    "memogfk.rounds": "count",
    "memogfk.get_rho_s": "s",
    "memogfk.get_pairs_self_s": "s",
    "memogfk.pairs_peak": "count",
    "memogfk.edges_in_range": "count",
    "bccp.calls": "count",
    "bccp.cells": "count",
    "bccp.driver_s": "s",
    "bccp.useful_ratio": "ratio",
    "kruskal.s": "s",
    "kruskal.edges_in": "count",
    "kruskal.accept_ratio": "ratio",
    "mono_labels.s": "s",
    "dendrogram.topdown_s": "s",
    "spark.jobs": "count",
    "spark.bccp_many_calls": "count",
    "spark.bccp_many_s": "s",
    "spark.rows_shipped": "count",
    "spark.core_distances_s": "s",
    "spark.payloads_s": "s",
    "spark.payload_bytes": "B",
    "trace.overhead_frac": "ratio",
}

# Per-layer self-time metrics and the tracer layer each one reads. The
# "count" and "B" metrics are the tracer's counts of the same name.
SELF_TIME_OF = {
    "kdtree.build_s": "kdtree.build",
    "kdtree.attach_cd_s": "kdtree.attach_cd",
    "knn.core_distances_s": "knn.core_distances",
    "memogfk.get_rho_s": "memogfk.get_rho",
    "memogfk.get_pairs_self_s": "memogfk.get_pairs",
    "bccp.driver_s": "bccp",
    "kruskal.s": "kruskal",
    "mono_labels.s": "mono_labels",
    "dendrogram.topdown_s": "dendrogram.topdown",
    "spark.bccp_many_s": "spark.bccp_many",
    "spark.core_distances_s": "spark.core_distances",
    "spark.payloads_s": "spark.payloads",
}


def spark_cores() -> int:
    return min(4, os.cpu_count() or 1)


def prepare_environment() -> None:
    """Point the program's imports (driver and Spark workers) at the
    checkout's src/ and keep temp files inside the checkout."""
    WORK.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(WORK)
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark-local")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    sys.path.insert(0, str(SRC))


def start_spark():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.master(f"local[{spark_cores()}]")
        .appName("perfbench")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", str(WORK / "spark-warehouse"))
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={WORK}")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the JVM it launched, and wait for it."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    # Let a later session in this process launch a fresh JVM.
    SparkContext._gateway = None
    SparkContext._jvm = None


class Loop:
    """Closed-loop job runner: time each job, then check its output."""

    def __init__(self, w, pool, spark, calibrator, job=None):
        import workloads

        self.w, self.pool, self.spark = w, pool, spark
        self.calibrator = calibrator
        self.refs: list = []  # one oracle reference per input, set after set-up
        self.job = job or workloads.run_job
        self.attempted = 0
        self.failed = 0
        self.times: list[float] = []  # wall seconds of every job run
        self.scaled: list[float] = []  # the same, scaled to the reference speed
        self.failures: list[str] = []
        self.setup_wall_s = 0.0

    def run(self, i: int, prim_order: bool = False) -> float:
        """Run the job on pool input i; return its scaled seconds."""
        import workloads

        pts, ref = self.pool[i], self.refs[i]
        self.attempted += 1
        before_s = self.calibrator.block_s()
        t = time.perf_counter()
        try:
            out = self.job(self.w, pts, self.spark)
        except Exception as e:  # a failed job is counted, not fatal
            out, reason = None, f"raised {type(e).__name__}: {e}"
        secs = time.perf_counter() - t
        scaled = self.calibrator.scale(secs, before_s)
        if out is not None:
            reason = workloads.check(self.w, pts, ref, out, prim_order)
        if reason is not None:
            self.failed += 1
            self.failures.append(f"input {i}: {reason}")
        self.times.append(secs)
        self.scaled.append(scaled)
        return scaled


def end_to_end(loop: Loop, seconds: float) -> dict[str, float]:
    times = []
    t_start = time.perf_counter()
    while not times or time.perf_counter() - t_start < seconds:
        i = len(times) % len(loop.pool)
        times.append(loop.run(i, prim_order=len(times) == 0))
    job_s = statistics.median(times)
    return {
        "setup_s": loop.calibrator.scale_by_run(loop.setup_wall_s),
        "job_s": job_s,
        "points_per_s": loop.w.n / job_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_inputs(w) -> int:
    return max(1, w.pool // 2)


def per_layer(loop: Loop) -> dict[str, float]:
    """Pairs of (untraced, traced) jobs over the first half of the pool,
    a fixed set of inputs, so that counts repeat exactly at a seed."""
    from tracing import Tracer

    untraced, traced = [], []
    tracer = Tracer(loop.spark)
    for i in range(traced_inputs(loop.w)):
        untraced.append(loop.run(i, prim_order=i == 0))
        tracer.job = i
        tracer.install()
        try:
            traced.append(loop.run(i))
        finally:
            tracer.restore()
    times = tracer.self_times()
    jobs = range(len(traced))

    def mean(values) -> float:
        return sum(values) / len(jobs)

    m = {name: mean(times[j][layer] for j in jobs) for name, layer in SELF_TIME_OF.items()}
    c = tracer.counts
    for name, unit in PER_LAYER_UNITS.items():
        if unit in ("count", "B"):
            m[name] = mean(c[j][name] for j in jobs)
    n = loop.w.n
    m["bccp.useful_ratio"] = mean(
        (n - 1) / c[j]["bccp.calls"] if c[j]["bccp.calls"] else 0.0 for j in jobs
    )
    m["kruskal.accept_ratio"] = mean(
        c[j]["kruskal.accepted"] / c[j]["kruskal.edges_in"] if c[j]["kruskal.edges_in"] else 0.0
        for j in jobs
    )
    m["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return m


def run_workload(w, seed: int, seconds: float, trace: bool, job=None, t0: float = T0):
    """Set up, warm up, measure and check one workload. Returns
    (metrics, loop); ``job`` replaces the workload's job (self-check)."""
    import workloads
    from calibrate import Calibrator

    calibrator = Calibrator(spark_cores() if w.spark else 1)
    spark = None
    try:
        pool = w.inputs(seed)
        spark = start_spark() if w.spark else None
        loop = Loop(w, pool, spark, calibrator, job)
        try:
            loop.job(w, pool[0], spark)  # untimed warm-up
        except Exception as e:  # the timed jobs count the failure
            print(f"perfbench: warm-up job raised {e!r}", file=sys.stderr)
        loop.setup_wall_s = time.perf_counter() - t0
        used = traced_inputs(w) if trace else w.pool
        loop.refs = [workloads.reference(w, p) for p in pool[:used]]
        metrics = per_layer(loop) if trace else end_to_end(loop, seconds)
    finally:
        if spark is not None:
            stop_spark(spark)
        calibrator.close()
    return metrics, loop


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    prepare_environment()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    metrics, loop = run_workload(w, args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    config = {
        "workload": w.name,
        "n": w.n,
        "d": w.d,
        "seed": args.seed,
        "pool": w.pool,
        "min_pts": w.min_pts,
        "cores": spark_cores() if w.spark else 1,
        "spark_master": f"local[{spark_cores()}]" if w.spark else None,
        "trace": args.trace,
        "jobs": loop.attempted,
        "setup_wall_s": round(loop.setup_wall_s, 4),
        "job_wall_s": [round(t, 4) for t in loop.times],
        "job_scaled_s": [round(t, 4) for t in loop.scaled],
        "failed_frac": loop.failed / loop.attempted,
    }
    print(json.dumps(config))
    for reason in loop.failures:
        print(f"FAILED {reason}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
