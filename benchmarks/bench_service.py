"""E5: the serving layer — warm-cache batched routing vs cold per-query rebuilds.

The paper's tradeoff (Theorem 1.1) buys expensive preprocessing once and
amortizes it over many cheap queries.  This benchmark exercises exactly that
at the serving layer: a batch of permutation queries on the benchmark
expander, served warm through :class:`repro.service.RoutingService` (artifact
cached, zero additional preprocessing, queries fanned out over the worker
pool) against a cold sequential loop that rebuilds the full preprocessing for
every query — the way a service without the cache would behave.
"""

import time

from conftest import QUICK

from repro.analysis.experiments import shifted_destination
from repro.analysis.reporting import format_kv
from repro.core.router import ExpanderRouter
from repro.core.tokens import RoutingRequest
from repro.service import RoutingService

BATCH_QUERIES = 8 if QUICK else 32


def _batch_workloads(graph, queries):
    """One load-1 permutation instance per query, each with a different shift."""
    n = graph.number_of_nodes()
    return [
        [
            RoutingRequest(source=v, destination=shifted_destination(v, n, shift))
            for v in sorted(graph.nodes())
        ]
        for shift in range(1, queries + 1)
    ]


def test_service_warm_batch_amortizes_preprocessing(benchmark, bench_graph):
    workloads = _batch_workloads(bench_graph, BATCH_QUERIES)

    # Cold baseline: a fresh router — full preprocess included — per query.
    cold_start = time.perf_counter()
    cold_rounds = []
    for requests in workloads:
        router = ExpanderRouter(bench_graph, epsilon=0.5)
        router.preprocess()
        cold_rounds.append(router.route(requests).query_rounds)
    cold_seconds = time.perf_counter() - cold_start

    # Warm service: the artifact is cached once, then the batch reuses it.
    service = RoutingService(epsilon=0.5)
    service.route(bench_graph, workloads[0])
    assert service.cache.stats.misses == 1

    def warm_batch():
        for requests in workloads:
            service.submit(bench_graph, requests)
        return service.route_batch()

    report = benchmark.pedantic(warm_batch, rounds=1, iterations=1)

    speedup = cold_seconds / report.wall_seconds
    print("\n[E5] warm-cache batch vs cold sequential rebuild loop")
    print(
        format_kv(
            {
                "n": bench_graph.number_of_nodes(),
                "batch_queries": BATCH_QUERIES,
                "cold_seconds": cold_seconds,
                "warm_seconds": report.wall_seconds,
                "speedup": speedup,
                "cache_hit_rate": report.cache_hit_rate,
                "preprocess_rounds_incurred": report.preprocess_rounds_incurred,
                "preprocess_rounds_reused": report.preprocess_rounds_reused,
                "total_query_rounds": report.total_query_rounds,
            },
            title="E5",
        )
    )

    assert report.query_count == BATCH_QUERIES
    assert report.all_delivered
    # The whole batch is served from the cached artifact: no new preprocessing.
    assert report.cache_hits == BATCH_QUERIES
    assert report.preprocess_rounds_incurred == 0
    assert report.preprocess_rounds_reused > 0
    # Batched results are the same instances the cold loop solved, so the
    # round counts must agree query by query (routing is deterministic).
    warm_rounds = [
        result.outcome.query_rounds
        for result in sorted(report.results, key=lambda result: result.query_id)
    ]
    assert warm_rounds == cold_rounds
    # The amortization headline: >= 3x wall-clock over rebuild-per-query.
    assert speedup >= 3.0
