"""Process mode without a shared-memory plane.

Artifacts reach process-pool workers through the spill directory alone: one
file per fingerprint, in the cache's disk-tier format, written once and then
reused.  No ``repro-shm*`` segment is created in ``/dev/shm`` and no shm
metric is registered.
"""

from __future__ import annotations

import random

import networkx as nx

from repro.core.tokens import RoutingRequest
from repro.metrics import MetricsRegistry
from repro.planner import ExecutionPlan
from repro.service import RoutingService, leaked_segments
from repro.service.cache import read_artifact


def _workload(graph, seed):
    nodes = sorted(graph.nodes())
    rng = random.Random(seed)
    destinations = nodes[:]
    rng.shuffle(destinations)
    return [RoutingRequest(source=s, destination=d) for s, d in zip(nodes, destinations)]


def test_service_falls_back_when_shm_disabled():
    """Process-mode batches reach their workers without any shm segment.

    The pickle spill directory is the only artifact transport to pool
    workers, so a process-mode batch routes, registers no shm metric and
    leaves ``/dev/shm`` as it found it.
    """
    graph = nx.random_regular_graph(4, 48, seed=2)
    plan = ExecutionPlan(backend="deterministic", parallelism="processes")
    metrics = MetricsRegistry()
    before = leaked_segments()
    with RoutingService(metrics=metrics) as service:
        for seed in range(2):
            service.submit(graph, _workload(graph, seed), plan=plan)
        report = service.route_batch()
        spilled = list(service._spill_dir.iterdir())
    assert report.all_delivered
    assert len(spilled) == 1
    assert metrics.get("repro_shm_published_total") is None
    assert leaked_segments() == before


def test_process_batches_spill_each_fingerprint_once():
    """Every artifact is written to the spill directory once, then reused."""
    graphs = [nx.random_regular_graph(4, 48, seed=seed) for seed in (4, 5)]
    plan = ExecutionPlan(backend="deterministic", parallelism="processes")
    spills = []
    with RoutingService(max_workers=2, metrics=MetricsRegistry()) as service:
        for _ in range(2):
            for graph in graphs:
                for seed in range(2):
                    service.submit(graph, _workload(graph, seed), plan=plan)
            assert service.route_batch().all_delivered
            for path in service._spill_dir.iterdir():
                fingerprint = path.name.removesuffix(".pkl")
                assert read_artifact(path, fingerprint) is not None
            # An atomic re-spill would replace the file: new inode, new mtime.
            spills.append(
                {
                    path.name: (path.stat().st_ino, path.stat().st_mtime_ns)
                    for path in service._spill_dir.iterdir()
                }
            )
    assert len(spills[0]) == len(graphs)
    assert all(name.endswith(".pkl") for name in spills[0])
    assert spills[1] == spills[0]
