"""Serving-layer tour: fingerprinted artifact cache + batched routing.

The paper's headline tradeoff — expensive one-time preprocessing, cheap
queries — only pays off when the preprocessing is reused.  The
:class:`repro.service.RoutingService` makes that reuse operational:

1. a cold batch preprocesses each distinct expander once and
   caches the resulting artifact by canonical graph fingerprint;
2. a warm batch routes entirely from the cache — zero preprocessing rounds;
3. artifacts can persist on disk and be picked up by a later process;
4. changing the graph changes its fingerprint, so stale artifacts are never
   served.

Run with ``PYTHONPATH=src python examples/serving_demo.py`` (or after
``pip install -e .``).
"""

import tempfile

from repro.analysis.experiments import permutation_requests
from repro.graphs.generators import circulant_expander, random_regular_expander
from repro.service import ArtifactCache, RoutingService


def main() -> None:
    graph = random_regular_expander(96, degree=8, seed=7)
    other = circulant_expander(64)

    with tempfile.TemporaryDirectory() as store:
        service = RoutingService(
            epsilon=0.5,
            cache=ArtifactCache(capacity=4, disk_dir=store),
        )

        print("== cold batch: 3 queries on one expander + 1 on another ==")
        for shift in (1, 2, 3):
            service.submit(graph, permutation_requests(graph, load=1))
        service.submit(other, permutation_requests(other, load=1))
        print(service.route_batch().render())

        print("\n== warm batch: same graphs, preprocessing served from cache ==")
        for _ in range(4):
            service.submit(graph, permutation_requests(graph, load=2))
        report = service.route_batch()
        print(report.render(per_query=False))
        assert report.preprocess_rounds_incurred == 0

        print("\n== a new service process reuses the on-disk artifacts ==")
        revived = RoutingService(
            epsilon=0.5, cache=ArtifactCache(capacity=4, disk_dir=store)
        )
        outcome = revived.route(graph, permutation_requests(graph, load=1))
        stats = revived.cache.stats
        print(
            f"delivered {outcome.delivered}/{outcome.total_tokens} "
            f"with disk_hits={stats.disk_hits}, misses={stats.misses}"
        )

        print("\n== editing the graph invalidates its cache entry ==")
        mutated = graph.copy()
        mutated.add_edge(0, 43)
        print("fingerprint changed:", service.fingerprint(mutated) != service.fingerprint(graph))
        service.submit(mutated, permutation_requests(mutated, load=1))
        report = service.route_batch()
        print(
            f"mutated graph: cache_hits={report.cache_hits}, "
            f"new preprocess rounds={report.preprocess_rounds_incurred}"
        )


if __name__ == "__main__":
    main()
