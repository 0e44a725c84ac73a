"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each layer's public function, at the module
attribute its caller looks up at call time, with a wrapper that records
a span (job id, span id, parent span id, layer, start, end) and the
layer's counts. ``Tracer.restore`` puts every original back. Nothing
under ``src/`` is changed.

Self time of a span is its duration minus the durations of its direct
child spans, so the layer times add up without double counting (the
k-NN tree build, for example, is counted under ``kdtree.build_s`` and
not again under ``knn.core_distances_s``).
"""
from __future__ import annotations

import time
from collections import defaultdict

# (layer, module path, attribute, class name or None). Each entry names
# the attribute the calling code resolves at call time: memogfk binds
# kruskal_batch, mono_labels, get_rho and get_pairs by name, hdbscan
# binds core_distances_seq by name, while kdtree, bccp, dendrogram and
# the Spark helpers are looked up on their modules.
LAYERS = [
    ("kdtree.build", "repro.geometry.kdtree", "build", None),
    ("kdtree.attach_cd", "repro.geometry.kdtree", "attach_core_distances", None),
    ("knn.core_distances", "repro.core.hdbscan", "core_distances_seq", None),
    ("memogfk.get_rho", "repro.core.memogfk", "get_rho", None),
    ("memogfk.get_pairs", "repro.core.memogfk", "get_pairs", None),
    ("kruskal", "repro.core.memogfk", "kruskal_batch", None),
    ("mono_labels", "repro.core.memogfk", "mono_labels", None),
    ("bccp", "repro.core.bccp", "bccp", None),
    ("bccp", "repro.core.bccp", "bccp_star", None),
    ("dendrogram.topdown", "repro.core.dendrogram", "dendrogram_topdown", None),
    ("spark.bccp_many", "repro.engine.distribute", "bccp_many", "SparkBccp"),
    ("spark.core_distances", "repro.engine.distribute", "core_distances_spark", None),
    ("spark.payloads", "repro.engine.distribute", "run_payloads_spark", None),
]

SPARK_LAYERS = ("spark.bccp_many", "spark.core_distances", "spark.payloads")


class Tracer:
    """Spans and counts for the jobs run while installed.

    ``spark`` (a SparkSession or None) lets the tracer tag each Spark
    layer call with its own job group and read back, through the status
    tracker, how many Spark jobs that call launched.
    """

    def __init__(self, spark=None):
        self.spark = spark
        self.job = 0  # id of the job whose spans are being recorded
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        # counts[job][name]: counts taken at the layer boundaries.
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- install / restore -------------------------------------------------

    def install(self) -> None:
        import importlib

        for layer, mod_name, attr, cls_name in LAYERS:
            owner = importlib.import_module(mod_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            orig = owner.__dict__[attr]
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(layer, orig))

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, layer: str, fn):
        spark_layer = layer in SPARK_LAYERS
        counter = _COUNTERS.get(layer)

        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((self.job, sid, parent, layer, 0.0, 0.0))
            group = f"perfbench-{self.job}-{sid}-{layer}" if spark_layer else None
            if group is not None and self.spark is not None:
                self.spark.sparkContext.setJobGroup(group, f"{layer} (job {self.job})")
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (self.job, sid, parent, layer, t0, t1)
            jobs = 0
            if group is not None and self.spark is not None:
                sc = self.spark.sparkContext
                sc.setLocalProperty("spark.jobGroup.id", None)
                sc.setLocalProperty("spark.job.description", None)
                jobs = len(sc.statusTracker().getJobIdsForGroup(group))
                self.counts[self.job]["spark.jobs"] += jobs
            if counter is not None:
                counter(self.counts[self.job], args, result, jobs)
            return result

        return traced

    def self_times(self) -> dict[int, dict[str, float]]:
        """Self seconds per job and layer over all recorded spans."""
        child = [0.0] * len(self.spans)
        for _, _, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for job, sid, _, layer, t0, t1 in self.spans:
            out[job][layer] += (t1 - t0) - child[sid]
        return out


# -- counts recorded at the layer boundaries -----------------------------------


def _count_build(c, args, result, jobs):
    c["kdtree.build_calls"] += 1


def _count_get_rho(c, args, result, jobs):
    c["memogfk.rounds"] += 1


def _count_get_pairs(c, args, result, jobs):
    # get_pairs(tree, rho_lo, rho_hi, mono, kind, star, cache, stats, ...)
    stats = args[7]
    c["memogfk.pairs_peak"] = max(c["memogfk.pairs_peak"], stats.pairs_materialized)
    c["memogfk.edges_in_range"] += result.shape[0]


def _count_kruskal(c, args, result, jobs):
    c["kruskal.edges_in"] += len(args[0])
    c["kruskal.accepted"] += result


def _count_bccp(c, args, result, jobs):
    tree, a, b = args[0], args[1], args[2]
    c["bccp.calls"] += 1
    c["bccp.cells"] += int(tree.hi[a] - tree.lo[a]) * int(tree.hi[b] - tree.lo[b])


def _count_bccp_many(c, args, result, jobs):
    c["spark.bccp_many_calls"] += 1
    if jobs:
        c["spark.rows_shipped"] += len(args[1])  # (self, pairs, ...)


def _count_core_distances_spark(c, args, result, jobs):
    if jobs:
        c["spark.rows_shipped"] += len(args[1])  # (spark, points, ...)


def _count_payloads(c, args, result, jobs):
    if jobs:
        c["spark.rows_shipped"] += len(args[1])  # (spark, payloads, ...)
        c["spark.payload_bytes"] += sum(len(p) for p in args[1])


_COUNTERS = {
    "kdtree.build": _count_build,
    "memogfk.get_rho": _count_get_rho,
    "memogfk.get_pairs": _count_get_pairs,
    "kruskal": _count_kruskal,
    "bccp": _count_bccp,
    "spark.bccp_many": _count_bccp_many,
    "spark.core_distances": _count_core_distances_spark,
    "spark.payloads": _count_payloads,
}
