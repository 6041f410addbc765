"""Tests for the serving layer: fingerprints, artifact cache, batched routing."""

import pickle
import sys
import threading

import pytest

from repro.core.router import ExpanderRouter, PreprocessArtifact
from repro.core.tokens import RoutingRequest
from repro.graphs.generators import circulant_expander, weighted_expander
from repro.metrics import MetricsRegistry
from repro.service import (
    ArtifactCache,
    BatchReport,
    RoutingService,
    graph_fingerprint,
)


def _permutation(graph, shift=5):
    n = graph.number_of_nodes()
    return [RoutingRequest(source=v, destination=(v + shift) % n) for v in graph.nodes()]


@pytest.fixture(scope="module")
def small_graph():
    return circulant_expander(48)


@pytest.fixture(scope="module")
def small_artifact(small_graph):
    return ExpanderRouter(small_graph, epsilon=0.5).export_artifact(fingerprint="small")


@pytest.fixture(scope="module")
def cheap_artifact():
    # circulant_expander(24) preprocesses in about half the rounds of the
    # 48-vertex small_graph, which is what the admission tests lean on.
    return ExpanderRouter(circulant_expander(24), epsilon=0.5).export_artifact(
        fingerprint="cheap"
    )


# -- fingerprints -----------------------------------------------------------------


def test_fingerprint_is_stable_across_edge_order(small_graph):
    import networkx as nx

    shuffled = nx.Graph()
    shuffled.add_nodes_from(reversed(sorted(small_graph.nodes())))
    shuffled.add_edges_from(reversed(list(small_graph.edges())))
    assert graph_fingerprint(shuffled) == graph_fingerprint(small_graph)


def test_fingerprint_changes_with_topology_weights_and_parameters(small_graph):
    base = graph_fingerprint(small_graph, {"epsilon": 0.5})

    mutated = small_graph.copy()
    mutated.add_edge(0, small_graph.number_of_nodes() // 2 + 1)
    assert graph_fingerprint(mutated, {"epsilon": 0.5}) != base

    weighted = weighted_expander(48, degree=6, seed=2)
    reweighted = weighted.copy()
    u, v = next(iter(reweighted.edges()))
    reweighted[u][v]["weight"] = reweighted[u][v].get("weight", 1.0) + 1.0
    assert graph_fingerprint(reweighted) != graph_fingerprint(weighted)

    assert graph_fingerprint(small_graph, {"epsilon": 0.7}) != base
    assert graph_fingerprint(small_graph) != base


# -- artifact cache ---------------------------------------------------------------


def test_cache_miss_then_hit(small_artifact):
    cache = ArtifactCache(capacity=2)
    assert cache.get("small") is None
    cache.put("small", small_artifact)
    assert cache.get("small") is small_artifact
    assert cache.stats.misses == 1
    assert cache.stats.hits == 1
    assert cache.stats.hit_rate == 0.5


def test_cache_lru_evicts_least_recently_used(small_artifact):
    cache = ArtifactCache(capacity=2)
    cache.put("a", small_artifact)
    cache.put("b", small_artifact)
    assert cache.get("a") is not None  # refresh "a"; "b" is now the LRU entry
    cache.put("c", small_artifact)
    assert cache.stats.evictions == 1
    assert "b" not in cache
    assert cache.get("a") is not None and cache.get("c") is not None


def test_cache_rejects_a_colder_cheaper_newcomer(tmp_path, small_artifact, cheap_artifact):
    assert cheap_artifact.preprocessing_rounds < small_artifact.preprocessing_rounds
    registry = MetricsRegistry()
    cache = ArtifactCache(capacity=1, disk_dir=tmp_path, metrics=registry)
    assert cache.put("hot", small_artifact)
    assert cache.get("hot") is not None and cache.get("hot") is not None
    assert cache.get("new") is None  # 1 lookup x cheap rounds < 2 x the victim's
    assert not cache.put("new", cheap_artifact)
    assert cache.fingerprints() == ["hot"]
    assert cache.stats.rejections == 1 and cache.stats.evictions == 0
    assert cache.stats.stores == 2
    assert cache.stats.as_dict()["rejections"] == 1
    assert (tmp_path / "new.pkl").exists()  # the disk tier still gets it
    admissions = registry.as_dict()["repro_cache_admissions_total"]
    assert admissions == {"result=admitted": 1, "result=rejected": 1}


def test_cache_admission_weighs_lookups_by_preprocessing_rounds(small_artifact, cheap_artifact):
    cache = ArtifactCache(capacity=1)
    cache.put("cheap", cheap_artifact)
    assert cache.get("cheap") is not None and cache.get("cheap") is not None
    assert cache.get("costly") is None
    # Colder (1 lookup against 2) but more than twice as costly to rebuild.
    assert cache.put("costly", small_artifact)
    assert cache.fingerprints() == ["costly"]
    assert cache.stats.evictions == 1 and cache.stats.rejections == 0


def test_cache_admission_tie_admits(small_artifact):
    cache = ArtifactCache(capacity=1)
    cache.put("a", small_artifact)
    assert cache.get("a") is not None
    assert cache.get("b") is None
    assert cache.put("b", small_artifact)  # equal lookups, equal rounds
    assert cache.fingerprints() == ["b"]
    assert cache.stats.evictions == 1 and cache.stats.rejections == 0


def test_cache_admission_counts_halve_and_stay_bounded():
    cache = ArtifactCache(capacity=2)  # counts halve every 20 lookups
    for _ in range(20):
        cache.get("x")
    assert cache._frequency == {"x": 10}
    for index in range(1000):
        cache.get(f"cold-{index}")
    # Single lookups drop at the next halving; "x" has decayed away too.
    assert len(cache._frequency) <= 20
    assert "x" not in cache._frequency


def test_cache_admission_counts_survive_concurrent_lookups(small_artifact):
    cache = ArtifactCache(capacity=1000)  # no halving within 10,000 lookups
    workers, lookups = 8, 1000
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:

        def hammer():
            for index in range(lookups):
                fingerprint = f"graph-{index % 16}"
                if cache.get(fingerprint) is None:
                    cache.put(fingerprint, small_artifact)

        threads = [threading.Thread(target=hammer) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert sum(cache._frequency.values()) == cache.stats.lookups == workers * lookups
    assert cache.stats.stores == cache.stats.misses
    assert cache.stats.rejections == 0 and len(cache) == 16


def test_cache_adopt_and_disk_promotion_bypass_admission(
    tmp_path, small_artifact, cheap_artifact
):
    cache = ArtifactCache(capacity=1)
    cache.put("hot", small_artifact)
    for _ in range(3):
        cache.get("hot")
    cache.adopt("handed-off", cheap_artifact)
    assert cache.fingerprints() == ["handed-off"]
    assert cache.stats.rejections == 0 and cache.stats.evictions == 1

    tiered = ArtifactCache(capacity=1, disk_dir=tmp_path)
    tiered.put("on-disk", cheap_artifact)
    tiered.put("hot", small_artifact)  # evicts "on-disk" from memory only
    for _ in range(3):
        tiered.get("hot")
    assert tiered.get("on-disk") is not None
    assert tiered.stats.disk_hits == 1
    assert tiered.fingerprints() == ["on-disk"]  # promoted over the hotter entry
    assert tiered.stats.rejections == 0


def test_cache_disk_tier_survives_a_new_cache(tmp_path, small_artifact):
    first = ArtifactCache(capacity=2, disk_dir=tmp_path / "store")
    first.put("small", small_artifact)
    assert (tmp_path / "store" / "small.pkl").exists()

    second = ArtifactCache(capacity=2, disk_dir=tmp_path / "store")
    restored = second.get("small")
    assert restored is not None
    assert second.stats.disk_hits == 1
    assert restored.preprocessing_rounds == small_artifact.preprocessing_rounds
    # Promoted into memory: the next lookup is a plain hit.
    assert second.get("small") is restored
    assert second.stats.hits == 1


def test_cache_rejects_corrupt_and_mismatched_disk_entries(tmp_path, small_artifact):
    cache = ArtifactCache(capacity=2, disk_dir=tmp_path)
    (tmp_path / "bad.pkl").write_bytes(b"not a pickle")
    assert cache.get("bad") is None
    assert not (tmp_path / "bad.pkl").exists()

    # A valid pickle stored under the wrong fingerprint must not be served.
    with open(tmp_path / "other.pkl", "wb") as handle:
        pickle.dump(small_artifact, handle)
    assert cache.get("other") is None

    # A valid pickle cut short (a crash mid-write) is rejected the same way.
    payload = pickle.dumps(small_artifact)
    (tmp_path / "small.pkl").write_bytes(payload[: len(payload) // 2])
    assert cache.get("small") is None
    assert not (tmp_path / "small.pkl").exists()

    # A flipped byte inside a pickled string fails to decode, not to unpickle.
    (tmp_path / "flipped.pkl").write_bytes(b"\x80\x04\x8c\x01\xff.")
    assert cache.get("flipped") is None
    assert cache.stats.disk_rejects == 4


# -- artifact export / restore ----------------------------------------------------


def test_artifact_pickle_round_trip_routes_identically(small_graph, small_artifact):
    clone = pickle.loads(pickle.dumps(small_artifact))
    assert isinstance(clone, PreprocessArtifact)
    assert clone.fingerprint == "small"
    assert clone.preprocessing_rounds == small_artifact.preprocessing_rounds

    original = ExpanderRouter.from_artifact(small_graph, small_artifact)
    restored = ExpanderRouter.from_artifact(small_graph, clone)
    requests = _permutation(small_graph)
    first = original.route(requests)
    second = restored.route(requests)
    assert second.all_delivered
    assert second.query_rounds == first.query_rounds
    assert second.preprocessing_rounds == first.preprocessing_rounds
    assert [t.current_vertex for t in second.tokens] == [t.current_vertex for t in first.tokens]


def test_from_artifact_rejects_wrong_graph_and_version(small_graph, small_artifact):
    other = circulant_expander(32)
    with pytest.raises(ValueError, match="vertex set"):
        ExpanderRouter.from_artifact(other, small_artifact)

    stale = pickle.loads(pickle.dumps(small_artifact))
    stale.format_version = 999
    with pytest.raises(ValueError, match="format version"):
        ExpanderRouter.from_artifact(small_graph, stale)


# -- routing service --------------------------------------------------------------


def test_batch_results_match_sequential_route(small_graph):
    service = RoutingService(epsilon=0.5)
    workloads = [_permutation(small_graph, shift) for shift in (1, 5, 9, 13)]
    for requests in workloads:
        service.submit(small_graph, requests)
    report = service.route_batch()
    assert isinstance(report, BatchReport)
    assert report.query_count == 4
    assert report.all_delivered

    router = ExpanderRouter(small_graph, epsilon=0.5)
    router.preprocess()
    for result, requests in zip(sorted(report.results, key=lambda r: r.query_id), workloads):
        sequential = router.route(requests)
        assert result.outcome.query_rounds == sequential.query_rounds
        assert result.outcome.delivered == sequential.delivered
        assert [t.current_vertex for t in result.outcome.tokens] == [
            t.current_vertex for t in sequential.tokens
        ]


def test_batch_preprocesses_each_distinct_graph_once(small_graph):
    service = RoutingService(epsilon=0.5)
    other = circulant_expander(32)
    for _ in range(3):
        service.submit(small_graph, _permutation(small_graph))
    service.submit(other, _permutation(other))
    report = service.route_batch()
    assert report.distinct_graphs == 2
    assert report.cache_misses == 4  # every query of a cold batch waits on a build
    assert service.cache.stats.stores == 2  # but each graph is preprocessed once
    assert report.preprocess_rounds_incurred > 0

    warm = service.route_batch([])  # empty batch is a no-op
    assert warm.query_count == 0


def test_warm_batch_skips_preprocessing_entirely(small_graph):
    service = RoutingService(epsilon=0.5)
    service.route(small_graph, _permutation(small_graph))
    for shift in (2, 4, 6):
        service.submit(small_graph, _permutation(small_graph, shift))
    report = service.route_batch()
    assert report.cache_hits == 3
    assert report.cache_hit_rate == 1.0
    assert report.preprocess_rounds_incurred == 0
    assert report.preprocess_rounds_reused > 0
    assert report.all_delivered


def test_route_returns_its_own_outcome_not_a_pending_query(small_graph):
    service = RoutingService(epsilon=0.5)
    pending = _permutation(small_graph)
    service.submit(small_graph, pending)
    single = [RoutingRequest(source=0, destination=1)]
    outcome = service.route(small_graph, single)
    assert outcome.total_tokens == 1  # not the 48-token pending query
    assert service.pending_count == 1  # submit()ed work is still queued
    report = service.route_batch()
    assert report.query_count == 1
    assert report.results[0].outcome.total_tokens == len(pending)


def test_graph_change_invalidates_the_cache_entry(small_graph):
    service = RoutingService(epsilon=0.5)
    service.route(small_graph, _permutation(small_graph))

    mutated = small_graph.copy()
    mutated.add_edge(0, 17)
    assert service.fingerprint(mutated) != service.fingerprint(small_graph)
    service.submit(mutated, _permutation(mutated))
    report = service.route_batch()
    # The mutated graph is a different key: preprocessed fresh, not served stale.
    assert report.cache_hits == 0
    assert report.preprocess_rounds_incurred > 0
    assert report.all_delivered


def test_services_with_different_parameters_do_not_share_artifacts(small_graph, tmp_path):
    store = tmp_path / "artifacts"
    coarse = RoutingService(epsilon=0.7, cache=ArtifactCache(disk_dir=store))
    fine = RoutingService(epsilon=0.34, cache=ArtifactCache(disk_dir=store))
    coarse.route(small_graph, _permutation(small_graph))
    fine.route(small_graph, _permutation(small_graph))
    assert coarse.fingerprint(small_graph) != fine.fingerprint(small_graph)
    assert fine.cache.stats.disk_hits == 0  # the shared disk tier never cross-serves


def test_submit_memoizes_graph_canonicalization_per_object(small_graph, monkeypatch):
    import repro.service.service as service_module

    calls = {"count": 0}
    real_payload = service_module.graph_payload

    def counting_payload(graph):
        calls["count"] += 1
        return real_payload(graph)

    monkeypatch.setattr(service_module, "graph_payload", counting_payload)
    service = RoutingService(epsilon=0.5)
    for shift in (1, 2, 3, 4):
        service.submit(small_graph, _permutation(small_graph, shift))
    assert calls["count"] == 1  # canonicalized once, not per submit
    assert service.fingerprint_memo_size == 1

    # A distinct object — even an identical copy — is canonicalized afresh,
    # which is what keeps mutated copies from reusing a stale payload.
    copied = small_graph.copy()
    service.submit(copied, _permutation(copied))
    assert calls["count"] == 2
    assert service.fingerprint_memo_size == 2
    assert service.fingerprint(copied) == service.fingerprint(small_graph)


def test_submit_accepts_workload_objects(small_graph):
    from repro.workloads import multi_token_workload

    workload = multi_token_workload(small_graph, load=2)
    service = RoutingService(epsilon=0.5)
    service.submit(small_graph, workload)
    report = service.route_batch()
    result = report.results[0]
    assert result.workload == "multi-token"
    assert result.outcome.load == 2
    assert result.outcome.total_tokens == len(workload.requests)
    assert report.all_delivered


def test_batch_report_renders_through_reporting_helpers(small_graph):
    service = RoutingService(epsilon=0.5)
    service.submit(small_graph, _permutation(small_graph))
    report = service.route_batch()
    rendered = report.render()
    assert "cache_hit_rate" in rendered
    assert "query_rounds" in rendered
    summary = report.summary()
    assert summary["queries"] == 1
    assert summary["all_delivered"] is True


# -- disk-tier capacity -----------------------------------------------------------


def test_disk_tier_evicts_oldest_first(tmp_path, small_artifact):
    import time

    cache = ArtifactCache(capacity=8, disk_dir=tmp_path, disk_capacity=2)
    for key in ("fp-a", "fp-b", "fp-c"):
        cache.put(key, small_artifact)
        time.sleep(0.005)  # keep mtimes strictly ordered on coarse filesystems

    remaining = sorted(path.stem for path in tmp_path.glob("*.pkl"))
    assert remaining == ["fp-b", "fp-c"]
    assert cache.stats.evictions_disk == 1
    # The disk cap does not touch the memory tier.
    assert cache.stats.evictions == 0
    assert len(cache) == 3

    # A fresh cache over the same directory misses the evicted key and still
    # serves the survivors.
    revived = ArtifactCache(capacity=8, disk_dir=tmp_path)
    assert revived.get("fp-a") is None
    assert revived.get("fp-b") is not None
    assert revived.get("fp-c") is not None


def test_disk_capacity_validation_and_stats_dict(tmp_path):
    import pytest as _pytest

    with _pytest.raises(ValueError):
        ArtifactCache(disk_dir=tmp_path, disk_capacity=0)
    cache = ArtifactCache(disk_dir=tmp_path, disk_capacity=4)
    assert "evictions_disk" in cache.stats.as_dict()


def test_disk_evictions_recorded_in_metrics(tmp_path, small_artifact):
    from repro.metrics import MetricsRegistry

    registry = MetricsRegistry()
    cache = ArtifactCache(capacity=8, disk_dir=tmp_path, disk_capacity=1, metrics=registry)
    cache.put("fp-1", small_artifact)
    cache.put("fp-2", small_artifact)
    snapshot = registry.as_dict()
    assert snapshot["repro_cache_evictions_total"]["tier=disk"] == 1
    assert snapshot["repro_cache_stores_total"][""] == 2


# -- batch wall-clock timings -----------------------------------------------------


def test_batch_report_carries_per_query_and_per_batch_timings(small_graph):
    service = RoutingService(epsilon=0.5)
    for shift in (1, 2, 3):
        service.submit(small_graph, _permutation(small_graph, shift))
    report = service.route_batch()

    assert len(report.query_seconds) == 3
    assert all(seconds > 0 for seconds in report.query_seconds)
    assert report.route_seconds > 0
    assert report.wall_seconds >= report.route_seconds
    assert report.query_seconds_total == sum(report.query_seconds)
    assert report.query_seconds_max == max(report.query_seconds)
    assert (
        0
        < report.query_seconds_quantile(0.50)
        <= report.query_seconds_quantile(0.95)
        <= report.query_seconds_max
    )


def test_batch_timings_are_exposed_in_format_kv_output(small_graph):
    service = RoutingService(epsilon=0.5)
    service.submit(small_graph, _permutation(small_graph))
    report = service.route_batch()
    summary = report.summary()
    for key in (
        "route_seconds",
        "query_seconds_mean",
        "query_seconds_p50",
        "query_seconds_p95",
        "query_seconds_max",
    ):
        assert key in summary
    rendered = report.render(per_query=False)
    assert "query_seconds_p95" in rendered


def test_empty_batch_report_has_zero_timings():
    report = BatchReport()
    assert report.query_seconds == []
    assert report.query_seconds_mean == 0.0
    assert report.query_seconds_quantile(0.99) == 0.0
