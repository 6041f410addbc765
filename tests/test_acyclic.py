"""Artifacts are plain trees: a dropped artifact is freed by reference counting.

A reference cycle keeps its objects alive until a full garbage collection,
which walks the whole heap.  Nothing a preprocessed artifact holds may form
one: the hierarchy has no parent pointers, and no graph it owns carries the
views networkx caches on a graph (``graph.edges``, ``graph.degree``), which
refer back to the graph.  Each test runs its action once to warm up (lazy
imports leave garbage of their own), then again under ``gc.DEBUG_SAVEALL``,
and requires that a collection finds nothing.
"""

from __future__ import annotations

import collections
import gc

import pytest

from repro import ExpanderRouter
from repro.core.router import PreprocessArtifact
from repro.graphs.generators import random_regular_expander
from repro.metrics import MetricsRegistry
from repro.service import ArtifactCache, RoutingService
from repro.service.cache import artifact_path, read_artifact, write_artifact
from repro.workloads import permutation_workload


def _cyclic_garbage(action) -> collections.Counter:
    """The objects, by type name, that only a cycle collection frees after ``action()``."""
    action()
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        action()
        gc.collect()
        return collections.Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def _requests(graph):
    return list(permutation_workload(graph, shift=5).requests)


@pytest.mark.parametrize(("n", "levels"), [(64, 2), (128, 2), (256, 3)])
def test_a_dropped_fresh_artifact_leaves_no_cyclic_garbage(n, levels):
    graph = random_regular_expander(n, degree=8, seed=0)
    requests = _requests(graph)
    built = []

    def build_route_drop():
        router = ExpanderRouter(graph)
        router.preprocess()
        assert router.route(requests).all_delivered
        built.append(router.decomposition.levels())

    assert _cyclic_garbage(build_route_drop) == {}
    assert built == [levels, levels]


def test_a_dropped_loaded_artifact_leaves_no_cyclic_garbage(tmp_path):
    graph = random_regular_expander(128, degree=8, seed=0)
    requests = _requests(graph)
    router = ExpanderRouter(graph)
    expected = router.route(requests).query_rounds
    path = artifact_path(tmp_path, "f" * 64)
    # The graph the artifact holds is the caller's, and the caller's own
    # networkx reads cache views on it (first access to ``graph.edges`` and
    # ``graph.degree``); the file must not carry them.
    assert graph.edges is graph.edges and graph.degree is graph.degree
    assert {"edges", "degree"} <= set(vars(graph))
    write_artifact(path, router.export_artifact(fingerprint="f" * 64))

    def load_route_drop():
        artifact = read_artifact(path, "f" * 64)
        assert "edges" not in vars(artifact.decomposition.graph)
        loaded = ExpanderRouter.from_artifact(graph, artifact)
        assert loaded.route(requests).query_rounds == expected

    assert _cyclic_garbage(load_route_drop) == {}


def test_routing_and_fingerprinting_cache_no_views_on_the_callers_graph():
    graph = random_regular_expander(128, degree=8, seed=0)
    router = ExpanderRouter(graph)
    assert router.route(_requests(graph)).all_delivered
    with RoutingService(metrics=MetricsRegistry()) as service:
        service.fingerprint(graph)
        assert service.route(graph, _requests(graph)).all_delivered
    assert "edges" not in vars(graph)
    assert "degree" not in vars(graph)


def test_a_churning_service_makes_no_cyclic_garbage_per_query():
    graphs = [random_regular_expander(48 + 8 * i, degree=6, seed=i) for i in range(6)]
    requests = [_requests(graph) for graph in graphs]
    metrics = MetricsRegistry()
    service = RoutingService(cache=ArtifactCache(capacity=2, metrics=metrics), metrics=metrics)

    def serve_every_graph():
        # Cold lookups of every graph in turn: each build either evicts the
        # LRU entry or is refused admission.
        for graph, batch in zip(graphs, requests):
            service.submit(graph, batch)
            assert service.route_batch().all_delivered

    with service:
        garbage = _cyclic_garbage(serve_every_graph)
        stats = service.cache.stats
    assert garbage == {}
    assert stats.misses == 12
    assert stats.evictions > 0 and stats.rejections > 0


def _version_1_file(tmp_path, graph):
    artifact = ExpanderRouter(graph).export_artifact(fingerprint="a" * 64)
    stale = PreprocessArtifact(**{**vars(artifact), "format_version": 1})
    path = artifact_path(tmp_path, "a" * 64)
    write_artifact(path, stale)
    return path


def test_a_format_version_1_file_is_refused_by_the_disk_tier(tmp_path):
    graph = random_regular_expander(48, degree=6, seed=0)
    path = _version_1_file(tmp_path, graph)
    cache = ArtifactCache(capacity=2, disk_dir=tmp_path)
    assert cache.get("a" * 64) is None
    assert cache.stats.disk_rejects == 1
    assert not path.exists()


def test_a_format_version_1_file_is_refused_by_adopt_artifact(tmp_path):
    from repro.cluster.worker import ShardWorker

    graph = random_regular_expander(48, degree=6, seed=0)
    path = _version_1_file(tmp_path, graph)
    worker = ShardWorker("shard-0", cache_capacity=2, metrics=MetricsRegistry())
    try:
        assert worker.adopt_artifact("a" * 64, path) is False
        assert worker.service.cache.peek("a" * 64) is None
    finally:
        worker.close()
