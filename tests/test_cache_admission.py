"""Cost-weighted cache admission seen from the serving layers.

The admission rule itself is unit-tested in ``test_service.py``.  Here it is
engaged for real, with three times more graphs than cache slots and skewed
draws: the service's runner memo never holds a runner whose artifact the
cache refused or evicted, and hit/miss decisions, hence every report
signature, are the same whichever transport or pool mode serves them.
"""

import random

import pytest

from repro.cluster import ClusterCoordinator
from repro.graphs.generators import random_regular_expander
from repro.metrics import MetricsRegistry
from repro.planner import ExecutionPlan
from repro.service import ArtifactCache, RoutingService
from repro.workloads import permutation_workload

PLAN = ExecutionPlan(backend="deterministic", max_workers=2)


@pytest.fixture(scope="module")
def graphs():
    # Six graphs of three sizes, so their preprocessing rounds differ.
    return [
        random_regular_expander(16 + 4 * (index % 3), degree=6, seed=index)
        for index in range(6)
    ]


def _draws(count: int, graphs: int) -> list[int]:
    """Skewed graph indices: rank r is drawn with weight 1 / (r + 1)."""
    rng = random.Random(24)
    weights = [1.0 / (rank + 1) for rank in range(graphs)]
    return rng.choices(range(graphs), weights=weights, k=count)


def _service_batches(graphs, check=None):
    draws = _draws(40, len(graphs))
    signatures = []
    with RoutingService(
        epsilon=0.5,
        cache=ArtifactCache(capacity=2),
        metrics=MetricsRegistry(),
    ) as service:
        for first, second in zip(draws[::2], draws[1::2]):
            for index in (first, second):
                graph = graphs[index]
                service.submit(graph, permutation_workload(graph, shift=1 + index))
            report = service.route_batch()
            assert report.all_delivered
            signatures.append(report.signature())
            if check is not None:
                check(service)
        stats = service.cache.stats
    return signatures, stats


def test_runner_memo_holds_only_cached_artifacts(graphs):
    def memo_within_cache(service):
        memoized = {
            fingerprint
            for fingerprint, (_, info) in service._runner_memo.items()
            if info is None
        }
        assert memoized <= set(service.cache.fingerprints())

    _, stats = _service_batches(graphs, check=memo_within_cache)
    assert stats.rejections > 0 and stats.evictions > 0


def _cluster_run(transport, graphs):
    draws = _draws(30, len(graphs))
    with ClusterCoordinator(
        shard_count=2,
        cache_capacity=1,
        default_plan=PLAN,
        metrics=MetricsRegistry(),
        transport=transport,
    ) as coordinator:
        signatures = []
        for index in draws:
            graph = graphs[index]
            coordinator.submit(graph, permutation_workload(graph, shift=1 + index))
            report = coordinator.dispatch()
            assert report.all_delivered
            signatures.append(report.signature())
        rows = coordinator.shard_rows()
    return signatures, rows


def test_admission_signatures_identical_local_vs_tcp(graphs):
    local, local_rows = _cluster_run("local", graphs)
    tcp, tcp_rows = _cluster_run("tcp", graphs)
    assert local == tcp

    def cache_columns(rows):
        return [
            (
                row["shard"],
                row["cache_evictions"],
                row["cache_admissions"],
                row["cache_rejections"],
            )
            for row in rows
        ]

    assert cache_columns(local_rows) == cache_columns(tcp_rows)
    assert sum(row["cache_rejections"] for row in tcp_rows) > 0
