"""Tests for the metrics subsystem: primitives, registry, exposition, wiring."""

import math
import threading

import pytest

from repro.metrics import (
    MetricsRegistry,
    default_registry,
    quantile,
    set_default_registry,
)


@pytest.fixture()
def registry():
    return MetricsRegistry()


# -- counters and gauges ----------------------------------------------------------


def test_counter_increments_and_rejects_negative(registry):
    counter = registry.counter("jobs_total", "Jobs.")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_moves_both_ways(registry):
    gauge = registry.gauge("depth", "Queue depth.")
    gauge.set(10)
    gauge.dec(3)
    gauge.inc(1)
    assert gauge.value == 8.0


def test_labeled_family_fans_out_and_validates(registry):
    family = registry.counter("hits_total", "Hits.", labels=("shard",))
    family.labels(shard="a").inc()
    family.labels(shard="a").inc()
    family.labels(shard="b").inc(5)
    assert family.labels(shard="a").value == 2
    assert family.labels(shard="b").value == 5
    with pytest.raises(ValueError):
        family.labels(wrong="a")
    with pytest.raises(ValueError):
        family.inc()  # labeled family cannot be used unlabeled


def test_registry_is_idempotent_but_rejects_kind_mismatch(registry):
    first = registry.counter("x_total", "X.")
    again = registry.counter("x_total", "X.")
    assert first is again
    with pytest.raises(ValueError):
        registry.gauge("x_total", "X as gauge.")
    with pytest.raises(ValueError):
        registry.counter("x_total", "X.", labels=("other",))


# -- histograms -------------------------------------------------------------------


def test_histogram_counts_sum_and_extremes(registry):
    histogram = registry.histogram("lat", "Latency.", buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 0.5, 5.0):
        histogram.observe(value)
    summary = histogram.summary()
    assert summary["count"] == 4
    assert summary["sum"] == pytest.approx(6.05)
    assert summary["min"] == pytest.approx(0.05)
    assert summary["max"] == pytest.approx(5.0)


def test_histogram_quantiles_land_in_the_right_bucket(registry):
    histogram = registry.histogram("lat", "Latency.", buckets=(1.0, 2.0, 4.0, 8.0))
    for _ in range(90):
        histogram.observe(0.5)
    for _ in range(10):
        histogram.observe(5.0)
    # p50 is inside the first bucket, p99 inside the (4, 8] bucket.
    assert 0.0 < histogram.quantile(0.50) <= 1.0
    assert 4.0 < histogram.quantile(0.99) <= 8.0
    # Estimates are clamped to the observed range.
    assert histogram.quantile(0.0) >= 0.5
    assert histogram.quantile(1.0) <= 5.0


def test_histogram_overflow_bucket_reports_max(registry):
    histogram = registry.histogram("lat", "Latency.", buckets=(1.0,))
    histogram.observe(100.0)
    assert histogram.quantile(0.99) == pytest.approx(100.0)


def test_empty_histogram_is_all_zero(registry):
    histogram = registry.histogram("lat", "Latency.")
    assert histogram.quantile(0.5) == 0.0
    assert histogram.summary()["count"] == 0


def test_histogram_is_thread_safe(registry):
    histogram = registry.histogram("lat", "Latency.", buckets=(0.5, 1.0))
    counter = registry.counter("n_total", "N.")

    def work():
        for _ in range(500):
            histogram.observe(0.25)
            counter.inc()

    threads = [threading.Thread(target=work) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert histogram.count == 2000
    assert counter.value == 2000


# -- the list quantile helper -----------------------------------------------------


def test_quantile_interpolates_exactly():
    values = [1.0, 2.0, 3.0, 4.0]
    assert quantile(values, 0.0) == 1.0
    assert quantile(values, 1.0) == 4.0
    assert quantile(values, 0.5) == pytest.approx(2.5)
    assert quantile([], 0.5) == 0.0
    assert quantile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        quantile(values, 1.5)


# -- exposition -------------------------------------------------------------------


def test_render_text_exposition_format(registry):
    registry.counter("reqs_total", "Requests.", labels=("backend",)).labels(
        backend="deterministic"
    ).inc(3)
    registry.gauge("depth", "Depth.").set(2)
    registry.histogram("lat", "Latency.", buckets=(1.0,)).observe(0.5)
    text = registry.render_text()
    assert "# HELP reqs_total Requests." in text
    assert "# TYPE reqs_total counter" in text
    assert 'reqs_total{backend="deterministic"} 3' in text
    assert "depth 2" in text
    assert 'lat_bucket{le="1"} 1' in text
    assert 'lat_bucket{le="+Inf"} 1' in text
    assert "lat_count 1" in text


def test_as_dict_snapshot(registry):
    registry.counter("a_total", "A.").inc(2)
    registry.histogram("b", "B.", buckets=(1.0,)).observe(0.5)
    snapshot = registry.as_dict()
    assert snapshot["a_total"][""] == 2
    assert snapshot["b"][""]["count"] == 1


def test_default_registry_swap():
    fresh = MetricsRegistry()
    previous = set_default_registry(fresh)
    try:
        assert default_registry() is fresh
    finally:
        set_default_registry(previous)
    assert default_registry() is previous


# -- wiring through the serving stack ---------------------------------------------


def test_service_records_metrics_into_injected_registry():
    from repro.graphs.generators import circulant_expander
    from repro.service import RoutingService
    from repro.workloads import permutation_workload

    registry = MetricsRegistry()
    service = RoutingService(epsilon=0.5, metrics=registry)
    graph = circulant_expander(32)
    service.submit(graph, permutation_workload(graph))
    report = service.route_batch()
    assert report.query_count == 1

    snapshot = registry.as_dict()
    assert snapshot["repro_service_queries_total"]["backend=deterministic"] == 1
    assert snapshot["repro_service_batches_total"][""] == 1
    assert snapshot["repro_service_query_seconds"]["backend=deterministic"]["count"] == 1
    assert snapshot["repro_service_preprocess_rounds_total"]["kind=incurred"] > 0
    # The default-constructed cache inherited the same registry.
    assert snapshot["repro_cache_lookups_total"]["result=miss"] == 1
    assert snapshot["repro_cache_stores_total"][""] == 1


def test_backend_adapters_record_into_default_registry():
    from repro.backends import get_backend
    from repro.core.tokens import RoutingRequest
    from repro.graphs.generators import circulant_expander

    fresh = MetricsRegistry()
    previous = set_default_registry(fresh)
    try:
        graph = circulant_expander(16)
        backend = get_backend("direct", graph)
        backend.preprocess()
        backend.route([RoutingRequest(source=0, destination=5)])
        snapshot = fresh.as_dict()
        assert snapshot["repro_backend_route_seconds"]["backend=direct"]["count"] == 1
        assert snapshot["repro_backend_route_rounds_total"]["backend=direct"] >= 1
        assert "repro_backend_preprocess_rounds_total" in snapshot
    finally:
        set_default_registry(previous)


def _series_total(registry, name, **labels):
    """A family's value (counters) or observation count (histograms), summed over
    the children whose labels include ``labels``."""
    family = registry.get(name)
    if family is None:
        return 0
    total = 0
    for key, child in family.children():
        bound = dict(zip(family.label_names, key))
        if all(bound[label] == value for label, value in labels.items()):
            total += child.count if family.kind == "histogram" else child.value
    return total


def test_a_fused_cluster_run_records_one_observation_per_query_in_every_layer():
    """Per-query metric families stay exact across layers and a default-registry swap."""
    import random

    from repro.cluster import ClusterCoordinator
    from repro.graphs.generators import random_regular_expander
    from repro.planner import ExecutionPlan
    from repro.workloads import permutation_workload

    rng = random.Random(3201)
    graphs = [random_regular_expander(48, degree=6, seed=seed) for seed in (1, 2)]
    cluster_registry = MetricsRegistry()
    before_swap, after_swap = MetricsRegistry(), MetricsRegistry()
    previous = set_default_registry(before_swap)
    coordinator = ClusterCoordinator(
        shard_count=2,
        cache_capacity=4,
        default_plan=ExecutionPlan(backend="deterministic", fused=True),
        metrics=cluster_registry,
    )
    served_before_swap = submitted = 0
    served_rounds = []
    try:
        for dispatch in range(3):
            if dispatch == 2:
                set_default_registry(after_swap)
                served_before_swap = len(served_rounds)
            for graph in graphs:
                for _ in range(3):
                    workload = permutation_workload(graph, shift=rng.randrange(1, len(graph)))
                    assert coordinator.submit(graph, workload).accepted
                    submitted += 1
            report = coordinator.dispatch()
            assert report.all_delivered
            served_rounds += [
                result.outcome.query_rounds
                for shard in report.shard_reports.values()
                for result in shard.results
            ]
    finally:
        set_default_registry(previous)
        coordinator.close()

    served = len(served_rounds)
    assert served == submitted == 18
    assert _series_total(cluster_registry, "repro_cluster_queries_total") == served
    assert _series_total(cluster_registry, "repro_cluster_query_seconds") == served
    assert (
        _series_total(cluster_registry, "repro_service_query_seconds", backend="deterministic")
        == served
    )
    assert (
        _series_total(cluster_registry, "repro_cluster_admission_total", decision="accepted")
        == submitted
    )
    # Every dispatch fused each graph's three queries.
    assert _series_total(cluster_registry, "repro_service_fused_batches_total") == 6
    depths = cluster_registry.get("repro_cluster_queue_depth").children()
    assert depths and all(child.value == 0 for _, child in depths)
    # The backend families follow the default registry, call by call.
    for registry, rounds in (
        (before_swap, served_rounds[:served_before_swap]),
        (after_swap, served_rounds[served_before_swap:]),
    ):
        assert rounds
        assert (
            _series_total(registry, "repro_backend_route_seconds", backend="deterministic")
            == len(rounds)
        )
        assert (
            _series_total(registry, "repro_backend_route_rounds_total", backend="deterministic")
            == sum(rounds)
        )


def test_histogram_bucket_counts_are_cumulative(registry):
    histogram = registry.histogram("lat", "Latency.", buckets=(1.0, 2.0))
    for value in (0.5, 1.5, 3.0):
        histogram.observe(value)
    rows = histogram.bucket_counts()
    assert rows == [(1.0, 1), (2.0, 2), (math.inf, 3)]


def test_histogram_reregistration_with_different_buckets_raises(registry):
    registry.histogram("lat2", "Latency.", buckets=(1.0,))
    with pytest.raises(ValueError):
        registry.histogram("lat2", "Latency.", buckets=(0.001, 0.01))
    # Same buckets (or the same default) stay idempotent.
    assert registry.histogram("lat2", "Latency.", buckets=(1.0,)) is registry.get("lat2")
    default = registry.histogram("lat3", "Latency.")
    assert registry.histogram("lat3", "Latency.") is default
