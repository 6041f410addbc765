"""The service's lifecycle: one execution path, ``close()`` and context managers.

Covers:

* every batch routes in-process on the calling thread; the service takes no
  ``parallelism`` or ``max_workers`` knob;
* ``close()`` / context-manager support on services, shard workers, and the
  cluster coordinator.
"""

import pytest

from repro.cluster import ClusterCoordinator
from repro.graphs.generators import random_regular_expander
from repro.metrics import MetricsRegistry
from repro.planner import ExecutionPlan
from repro.service import RoutingService
from repro.workloads import permutation_workload


@pytest.fixture(scope="module")
def graphs():
    return (
        random_regular_expander(24, degree=6, seed=1),
        random_regular_expander(24, degree=6, seed=2),
    )


def test_closed_service_rejects_new_batches(graphs):
    g1, _ = graphs
    service = RoutingService(epsilon=0.5)
    service.submit(g1, permutation_workload(g1, shift=3))
    service.route_batch()
    service.close()
    service.close()  # idempotent
    service.submit(g1, permutation_workload(g1, shift=3))
    with pytest.raises(RuntimeError):
        service.route_batch()
    # close() promises pending submissions survive for inspection.
    assert service.pending_count == 1


def test_invalid_parallelism_rejected():
    # The execution-mode knobs are gone: passing one is an error.
    with pytest.raises(TypeError):
        RoutingService(parallelism="threads")
    with pytest.raises(TypeError):
        RoutingService(max_workers=2)


def test_cluster_coordinator_parallelism_passthrough_and_close(graphs):
    g1, g2 = graphs
    with ClusterCoordinator(
        shard_count=2,
        cache_capacity=4,
        default_plan=ExecutionPlan(backend="deterministic", parallelism="threads", max_workers=2),
        metrics=MetricsRegistry(),
    ) as coordinator:
        for graph in (g1, g2):
            coordinator.submit(graph, permutation_workload(graph, shift=3))
        report = coordinator.dispatch()
        assert report.all_delivered
        for worker in coordinator.workers.values():
            assert not hasattr(worker.service, "parallelism")
    # After close, every shard service rejects new work.
    coordinator.submit(g1, permutation_workload(g1, shift=3))
    with pytest.raises(RuntimeError):
        coordinator.dispatch()
