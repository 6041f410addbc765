"""The sharded cluster serving tier above :class:`~repro.service.RoutingService`.

The ROADMAP's north star — serving heavy traffic — needs more than one
process: this package adds the placement tier that maps work onto workers,
instrumented end to end and validated under generated load.

* :mod:`repro.cluster.ring` — consistent-hash placement of graph
  fingerprints onto shards (virtual nodes, deterministic rebalance with
  artifact-locality stats);
* :mod:`repro.cluster.worker` — each shard owns an isolated
  :class:`~repro.service.RoutingService` and
  :class:`~repro.service.ArtifactCache`, so the cluster's cache capacity
  scales with the shard count;
* :mod:`repro.cluster.admission` — bounded per-shard queues with ``reject``
  and ``shed-oldest`` overload policies;
* :mod:`repro.cluster.coordinator` — fingerprint, place, admit,
  scatter/gather, and merge into a :class:`ClusterReport`;
* :mod:`repro.cluster.loadgen` — seeded open-loop traffic (Poisson or
  bursty) that drives the coordinator and emits an :class:`SLOReport` with
  latency percentiles, shed rate, and per-shard cache hit rates — and can
  carry a :class:`~repro.elastic.FaultPlan` and
  :class:`~repro.elastic.Autoscaler` for chaos and elasticity runs.

See ``examples/cluster_load_test.py`` for the end-to-end tour and
``benchmarks/bench_cluster.py`` for the shard-scaling measurement.
"""

from repro.cluster.admission import (
    ADMISSION_POLICIES,
    AdmissionController,
    AdmissionDecision,
    AdmissionStats,
)
from repro.cluster.coordinator import (
    TRANSPORTS,
    ClusterCoordinator,
    ClusterReport,
    merge_batch_reports,
)
from repro.cluster.loadgen import DEFAULT_WORKLOAD_MIX, OpenLoopLoadGenerator, SLOReport
from repro.cluster.ring import ConsistentHashRing, RebalanceStats
from repro.cluster.worker import FAULT_KINDS, ShardCrashed, ShardQuery, ShardWorker

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionStats",
    "ClusterCoordinator",
    "ClusterReport",
    "ConsistentHashRing",
    "DEFAULT_WORKLOAD_MIX",
    "FAULT_KINDS",
    "OpenLoopLoadGenerator",
    "RebalanceStats",
    "SLOReport",
    "ShardCrashed",
    "ShardQuery",
    "ShardWorker",
    "TRANSPORTS",
    "merge_batch_reports",
]
