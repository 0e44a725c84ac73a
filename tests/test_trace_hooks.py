"""The benchmark's tracer (perfbench/tracing.py) patches each layer at
the module attribute its caller looks up. A refactor that routes a call
around that attribute silently zeroes the layer's metrics; this test
runs one small driver job under the tracer and requires every driver
layer to record time, with Kruskal's counts consistent."""
from perfbench.tracing import Tracer
from repro import synth_data as sd
from repro.core import dendrogram
from repro.core.hdbscan import hdbscan_mst

DRIVER_LAYERS = [
    "kdtree.build",
    "kdtree.attach_cd",
    "knn.core_distances",
    "memogfk.get_rho",
    "memogfk.get_pairs",
    "kruskal",
    "mono_labels",
    "dendrogram.topdown",
]


def test_tracer_sees_every_driver_layer():
    n = 800
    pts = sd.uniform_fill(n, 3, seed=21)
    tracer = Tracer()
    tracer.install()
    try:
        edges, _, _ = hdbscan_mst(pts, 10, method="memogfk")
        dendrogram.dendrogram_topdown(edges, 0)
    finally:
        tracer.restore()
    spans: dict[str, float] = {}
    for _, _, _, layer, t0, t1 in tracer.spans:
        spans[layer] = spans.get(layer, 0.0) + (t1 - t0)
    for layer in DRIVER_LAYERS:
        assert spans.get(layer, 0.0) > 0.0, layer
    counts = tracer.counts[0]
    assert counts["kruskal.accepted"] == n - 1 <= counts["kruskal.edges_in"]
