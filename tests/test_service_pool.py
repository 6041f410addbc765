"""The service's execution modes: persistent pools, process workers, lifecycle.

Covers the execution-mode contract:

* ``parallelism="threads"`` runs in-process and starts no pool; process mode
  keeps one long-lived pool per service instance, reused across batches (no
  per-batch pool churn);
* ``parallelism="processes"`` produces byte-identical
  :meth:`BatchReport.signature` to ``parallelism="threads"`` — the pool is a
  wall-clock choice, not a semantic one;
* artifacts reach process workers through the spill directory, one file
  per fingerprint in the cache's disk-tier format, and a spill file that
  fails the format's checks is treated as missing;
* ``close()`` / context-manager support on services, shard workers, and the
  cluster coordinator.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster import ClusterCoordinator
from repro.graphs.generators import random_regular_expander
from repro.metrics import MetricsRegistry
from repro.planner import ExecutionPlan
from repro.service import RoutingService, pool
from repro.service.cache import artifact_path
from repro.service.pool import RouteTask
from repro.workloads import hotspot_workload, permutation_workload


def _counter_value(metrics, name, **labels):
    for family in metrics.families():
        if family.name == name:
            return family.labels(**labels).value
    return 0.0


@pytest.fixture(scope="module")
def graphs():
    return (
        random_regular_expander(24, degree=6, seed=1),
        random_regular_expander(24, degree=6, seed=2),
    )


def _run_two_batches(parallelism, graphs, metrics):
    g1, g2 = graphs
    with RoutingService(
        epsilon=0.5, max_workers=2, parallelism=parallelism, metrics=metrics
    ) as service:
        service.submit(g1, permutation_workload(g1, shift=3))
        service.submit(g2, hotspot_workload(g2, load=2, seed=7))
        service.submit(g1, permutation_workload(g1, shift=5))
        first = service.route_batch()
        service.submit(g1, permutation_workload(g1, shift=3))
        service.submit(g2, permutation_workload(g2, shift=9))
        second = service.route_batch()
    return first, second


def test_processes_signature_byte_identical_to_threads(graphs):
    threads_first, threads_second = _run_two_batches("threads", graphs, MetricsRegistry())
    processes_first, processes_second = _run_two_batches(
        "processes", graphs, MetricsRegistry()
    )
    assert threads_first.signature() == processes_first.signature()
    assert threads_second.signature() == processes_second.signature()
    # Sanity on the shared shape: batch 2 is fully warm in both modes.
    assert processes_second.cache_hits == processes_second.query_count
    assert processes_second.preprocess_rounds_incurred == 0
    assert processes_first.all_delivered and processes_second.all_delivered


def test_pool_is_created_once_and_reused_across_batches(graphs):
    g1, _ = graphs
    metrics = MetricsRegistry()
    with RoutingService(epsilon=0.5, max_workers=1, metrics=metrics) as service:
        for _ in range(2):
            service.submit(g1, permutation_workload(g1, shift=3))
            service.route_batch()
    # The in-process mode never creates a pool.
    assert _counter_value(metrics, "repro_service_pool_created_total", kind="threads") == 0
    assert _counter_value(metrics, "repro_service_pool_created_total", kind="processes") == 0

    metrics = MetricsRegistry()
    with RoutingService(
        epsilon=0.5, max_workers=1, parallelism="processes", metrics=metrics
    ) as service:
        for _ in range(3):
            service.submit(g1, permutation_workload(g1, shift=3))
            service.route_batch()
    assert _counter_value(metrics, "repro_service_pool_created_total", kind="processes") == 1
    assert _counter_value(metrics, "repro_service_pool_tasks_total", kind="build") == 1
    assert _counter_value(metrics, "repro_service_pool_tasks_total", kind="route") == 3


def test_closed_service_rejects_new_batches(graphs):
    g1, _ = graphs
    service = RoutingService(epsilon=0.5, parallelism="threads")
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
    with pytest.raises(ValueError):
        RoutingService(parallelism="fibers")


def test_worker_process_runner_cache_warms_up(graphs):
    """Across process batches, each worker loads an artifact at most once."""
    g1, _ = graphs
    metrics = MetricsRegistry()
    with RoutingService(
        epsilon=0.5, max_workers=1, parallelism="processes", metrics=metrics
    ) as service:
        for _ in range(3):
            for shift in (3, 5, 7):
                service.submit(g1, permutation_workload(g1, shift=shift))
            report = service.route_batch()
            assert report.all_delivered
    loads = _counter_value(metrics, "repro_service_pool_runner_loads_total", state="cold")
    warm = _counter_value(metrics, "repro_service_pool_runner_loads_total", state="warm")
    # One worker, one graph: exactly one cold resolution (the build itself
    # warms the builder), everything else served from the worker's cache.
    assert loads + warm == 9
    assert warm >= 8


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
            assert worker.service.parallelism == "threads"
    # After close, every shard service rejects new work.
    coordinator.submit(g1, permutation_workload(g1, shift=3))
    with pytest.raises(RuntimeError):
        coordinator.dispatch()


_PROCESS_BATCH_SCRIPT = """
import json
from repro.graphs.generators import random_regular_expander
from repro.metrics import MetricsRegistry
from repro.planner import ExecutionPlan
from repro.service import RoutingService, leaked_segments
from repro.workloads import permutation_workload

graph = random_regular_expander(32, degree=6, seed=3)
fused = ExecutionPlan(backend="deterministic", parallelism="processes", fused=True)
delivered = []
with RoutingService(max_workers=2, parallelism="processes", metrics=MetricsRegistry()) as service:
    for plan in (None, fused):
        for shift in (1, 2, 3, 4):
            service.submit(graph, permutation_workload(graph, shift=shift), plan=plan)
        delivered.append(service.route_batch().all_delivered)
print(json.dumps({"delivered": delivered, "leaked": leaked_segments()}))
"""


def test_process_batches_leave_stderr_and_dev_shm_clean():
    """A 2-worker process-mode run prints no traceback and leaks no segment."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", _PROCESS_BATCH_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stderr == ""
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result == {"delivered": [True, True], "leaked": []}


def test_refused_spill_file_is_rebuilt_like_a_missing_one(graphs, tmp_path, monkeypatch):
    """A truncated spill file reads as missing: the worker preprocesses afresh."""
    graph = graphs[0]
    workload = permutation_workload(graph, shift=1)
    with RoutingService(metrics=MetricsRegistry()) as service:
        service.submit(graph, workload)
        expected = service.route_batch().results[0]
        fingerprint = expected.fingerprint
    path = artifact_path(tmp_path, fingerprint)
    path.write_bytes(b"\x80\x05truncated")
    task = RouteTask(
        fingerprint=fingerprint,
        graph=graph,
        requests=tuple(workload.requests),
        load=None,
        backend="deterministic",
        spill_dir=str(tmp_path),
    )
    monkeypatch.setattr(pool, "_RUNNERS", {})  # a fresh worker: no warm runner
    runner, warm = pool._runner_for(task)
    assert warm is False
    outcome = runner.route(list(task.requests))
    assert outcome.delivered == expected.outcome.delivered
    assert outcome.query_rounds == expected.outcome.query_rounds

