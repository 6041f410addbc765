"""In-process execution: threads-mode batches and local dispatch stay on the caller's thread.

The array engine is serialized per process, so handing builds and routes to
other threads adds only hand-offs.  These tests pin the contract: a
``"threads"`` batch and a local cluster dispatch start no thread, and both
the cold build and the engine run on the calling thread.  Failover keeps its
semantics under the sequential scatter: a shard that raises
``ConnectionError`` has its whole slice requeued, and the other shard's
report still merges.
"""

import threading

import pytest

from repro.cluster import ClusterCoordinator
from repro.core.router import ExpanderRouter
from repro.graphs.generators import random_regular_expander
from repro.metrics import MetricsRegistry
from repro.planner import ExecutionPlan
from repro.service import RoutingService
from repro.workloads import permutation_workload

FUSED = ExecutionPlan(backend="deterministic", parallelism="threads", max_workers=2, fused=True)


@pytest.fixture(scope="module")
def graphs():
    return [random_regular_expander(24, degree=6, seed=seed) for seed in range(6)]


@pytest.fixture
def spy(monkeypatch):
    """Record thread starts and the threads that build and run the engine."""
    seen = {"started": [], "build": set(), "engine": set()}
    start = threading.Thread.start
    build = RoutingService._build_runner
    engine = ExpanderRouter._route_arrays

    def spy_start(thread, *args, **kwargs):
        seen["started"].append(thread.name)
        return start(thread, *args, **kwargs)

    def spy_build(self, query):
        seen["build"].add(threading.get_ident())
        return build(self, query)

    def spy_engine(self, *args, **kwargs):
        seen["engine"].add(threading.get_ident())
        return engine(self, *args, **kwargs)

    monkeypatch.setattr(threading.Thread, "start", spy_start)
    monkeypatch.setattr(RoutingService, "_build_runner", spy_build)
    monkeypatch.setattr(ExpanderRouter, "_route_arrays", spy_engine)
    return seen


def test_threads_batch_builds_and_routes_on_the_callers_thread(graphs, spy):
    with RoutingService(epsilon=0.5, metrics=MetricsRegistry()) as service:
        # Two cold graphs, a fused group of two and a lone query.
        for shift in (1, 2):
            service.submit(graphs[0], permutation_workload(graphs[0], shift=shift), plan=FUSED)
        service.submit(graphs[1], permutation_workload(graphs[1], shift=1))
        report = service.route_batch()
    assert report.all_delivered and report.cache_misses == 3
    assert spy["started"] == []
    assert spy["build"] == spy["engine"] == {threading.get_ident()}


def _two_busy_shards(coordinator, graphs):
    """Submit until both shards of a 2-shard cluster hold queued work."""
    owners = {}
    for graph in graphs:
        for shift in (1, 2):
            decision = coordinator.submit(graph, permutation_workload(graph, shift=shift))
            assert decision.accepted
            owners.setdefault(decision.shard_id, 0)
            owners[decision.shard_id] += 1
    assert sorted(owners) == ["shard-0", "shard-1"]
    return owners


def test_local_dispatch_serves_every_shard_on_the_callers_thread(graphs, spy):
    with ClusterCoordinator(
        shard_count=2, cache_capacity=8, default_plan=FUSED, metrics=MetricsRegistry()
    ) as coordinator:
        _two_busy_shards(coordinator, graphs)
        report = coordinator.dispatch()
    assert report.all_delivered and report.query_count == 2 * len(graphs)
    assert sorted(report.shard_reports) == ["shard-0", "shard-1"]
    assert spy["started"] == []
    assert spy["build"] == spy["engine"] == {threading.get_ident()}


def test_local_dispatch_requeues_a_failed_shards_slice_and_merges_the_other(graphs):
    with ClusterCoordinator(
        shard_count=2, cache_capacity=8, default_plan=FUSED, metrics=MetricsRegistry()
    ) as coordinator:
        owners = _two_busy_shards(coordinator, graphs)
        # shard-0 is served first; its ConnectionError must not stop shard-1.
        coordinator.workers["shard-0"].inject_fault("partition")
        survivor = coordinator.workers["shard-1"]
        report = coordinator.dispatch()
        assert report.all_delivered and report.query_count == 2 * len(graphs)
        assert report.lost_batches == 0
        assert report.requeued_batches == owners["shard-0"]
        assert coordinator.failovers == 1 and coordinator.shard_ids == ["shard-1"]
        # shard-1's own slice merged, then the requeued slice in a second cycle.
        assert survivor.batches_served == 2
        assert survivor.queries_served == report.query_count
        assert list(report.shard_reports) == ["shard-1"]
