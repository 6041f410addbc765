"""Tests for the pluggable backend layer: registry, adapters, compare_batch."""

import pytest

from repro.applications.clique import enumerate_cliques
from repro.applications.mst import boruvka_mst
from repro.applications.sorting_equivalence import (
    routing_oracle_from_backend,
    sorting_via_routing,
)
from repro.backends import (
    DeterministicBackend,
    PreprocessInfo,
    RouteResult,
    RoutingBackend,
    available_backends,
    get_backend,
    register_backend,
    supports_artifacts,
)
from repro.graphs.generators import circulant_expander, planted_clique_graph
from repro.service import RoutingService
from repro.workloads import (
    hotspot_workload,
    make_workload,
    permutation_workload,
)

ALL_BACKENDS = ["deterministic", "direct", "randomized-gks", "rebuild-per-query"]


@pytest.fixture(scope="module")
def graph():
    return circulant_expander(48)


@pytest.fixture(scope="module")
def workloads(graph):
    return [
        permutation_workload(graph, shift=3),
        hotspot_workload(graph, load=2, seed=1),
        make_workload("adversarial-bipartite", graph, seed=2),
    ]


# -- registry ----------------------------------------------------------------------


def test_all_four_backends_are_registered():
    assert available_backends() == ALL_BACKENDS


def test_get_backend_rejects_unknown_names(graph):
    with pytest.raises(ValueError, match="unknown backend"):
        get_backend("nonexistent", graph)


def test_register_backend_rejects_name_collisions():
    with pytest.raises(ValueError, match="already registered"):
        register_backend("direct", lambda graph: None)


def test_artifact_capability_detection(graph):
    assert supports_artifacts(DeterministicBackend(graph))
    assert not supports_artifacts(get_backend("direct", graph))
    assert not supports_artifacts(get_backend("randomized-gks", graph))
    assert not supports_artifacts(get_backend("rebuild-per-query", graph))


# -- adapter equivalence -----------------------------------------------------------


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_every_backend_delivers_on_permutation_and_hotspot(name, graph):
    backend = get_backend(name, graph)
    assert isinstance(backend, RoutingBackend)
    info = backend.preprocess()
    assert isinstance(info, PreprocessInfo)
    assert info.backend == name
    assert info.rounds >= 0

    for workload in (permutation_workload(graph, shift=5), hotspot_workload(graph, load=2)):
        result = backend.route(list(workload.requests), load=workload.load)
        assert isinstance(result, RouteResult)
        assert result.backend == name
        assert result.all_delivered
        assert result.total_tokens == len(workload.requests)
        assert result.query_rounds > 0
        # The shared schema: every row has the four comparison columns.
        row = result.as_row()
        assert {"backend", "delivered", "total", "query_rounds", "preprocess_rounds"} <= set(row)


def test_only_the_deterministic_backend_has_preprocess_rounds(graph):
    for name in ALL_BACKENDS:
        backend = get_backend(name, graph)
        info = backend.preprocess()
        if name == "deterministic":
            assert info.rounds > 0
        else:
            assert info.rounds == 0


def test_deterministic_backend_matches_raw_router(graph, preprocessed_router):
    backend = DeterministicBackend(preprocessed_router.graph, router=preprocessed_router)
    workload = permutation_workload(preprocessed_router.graph, shift=2)
    result = backend.route(list(workload.requests))
    direct = preprocessed_router.route(list(workload.requests))
    assert result.query_rounds == direct.query_rounds
    assert result.preprocess_rounds == direct.preprocessing_rounds
    assert result.raw.breakdown == direct.breakdown
    assert [t.current_vertex for t in result.tokens] == [
        t.current_vertex for t in direct.tokens
    ]


# -- service integration -----------------------------------------------------------


def test_service_routes_through_named_backends(graph):
    service = RoutingService(epsilon=0.5)
    workload = permutation_workload(graph, shift=7)
    for name in ALL_BACKENDS:
        outcome = service.route(graph, workload, backend=name)
        assert outcome.backend == name
        assert outcome.all_delivered


def test_backend_queries_never_share_cache_keys(graph):
    service = RoutingService(epsilon=0.5)
    fingerprints = {service.fingerprint(graph, backend=name) for name in ALL_BACKENDS}
    assert len(fingerprints) == len(ALL_BACKENDS)
    with_params = service.fingerprint(graph, backend="randomized-gks", backend_params={"seed": 3})
    assert with_params not in fingerprints


def test_compare_batch_round_counts_match_direct_routing(graph, workloads):
    service = RoutingService(epsilon=0.5)
    comparison = service.compare_batch(graph, workloads)
    assert comparison.backends == ALL_BACKENDS
    assert comparison.all_delivered
    assert len(comparison.entries) == len(ALL_BACKENDS) * len(workloads)

    for name in ALL_BACKENDS:
        backend = get_backend(name, graph)
        backend.preprocess()
        for entry in (e for e in comparison.entries if e.backend == name):
            workload = workloads[entry.workload_index]
            assert entry.workload == workload.name
            direct = backend.route(list(workload.requests), load=workload.load)
            assert entry.result.query_rounds == direct.query_rounds
            assert entry.result.delivered == direct.delivered


def test_compare_batch_warm_repeat_preprocesses_nothing_deterministic(graph, workloads):
    service = RoutingService(epsilon=0.5)
    cold = service.compare_batch(graph, workloads)
    assert cold.batch_reports["deterministic"].preprocess_rounds_incurred > 0
    warm = service.compare_batch(graph, workloads)
    assert warm.batch_reports["deterministic"].preprocess_rounds_incurred == 0
    assert warm.batch_reports["deterministic"].preprocess_rounds_reused > 0
    # Round counts are reproducible across the cold and warm comparison.
    assert [e.result.query_rounds for e in warm.entries] == [
        e.result.query_rounds for e in cold.entries
    ]


def test_comparison_report_renders_side_by_side_tables(graph, workloads):
    service = RoutingService(epsilon=0.5)
    comparison = service.compare_batch(graph, workloads[:2], backends=["direct", "deterministic"])
    rendered = comparison.render()
    assert "query_rounds" in rendered
    assert "direct" in rendered and "deterministic" in rendered
    pivot = comparison.pivot("query_rounds")
    assert len(pivot) == 2
    assert {"workload", "direct", "deterministic"} <= set(pivot[0])
    summary = comparison.summary_rows()
    assert {row["backend"] for row in summary} == {"direct", "deterministic"}


# -- applications accept any backend -----------------------------------------------


def test_boruvka_mst_same_tree_under_every_backend(weighted_graph):
    import networkx as nx

    expected = sorted(
        (min(u, v), max(u, v)) for u, v in nx.minimum_spanning_tree(weighted_graph).edges()
    )
    expected_weight = sum(
        weighted_graph[u][v].get("weight", 1) for u, v in expected
    )
    rounds_by_backend = {}
    for name in ("deterministic", "direct", "randomized-gks"):
        result = boruvka_mst(weighted_graph, backend=name)
        assert result.total_weight == pytest.approx(expected_weight)
        rounds_by_backend[name] = result.rounds
    assert all(rounds > 0 for rounds in rounds_by_backend.values())


def test_boruvka_mst_string_backend_respects_epsilon_and_router(weighted_graph):
    fine = boruvka_mst(weighted_graph, epsilon=0.7, backend="deterministic")
    default = boruvka_mst(weighted_graph, epsilon=0.5, backend="deterministic")
    assert fine.preprocessing_rounds != default.preprocessing_rounds

    router = DeterministicBackend(weighted_graph, epsilon=0.5).router
    router.preprocess()
    reused = boruvka_mst(weighted_graph, router=router, backend="deterministic")
    assert reused.preprocessing_rounds == router.preprocess_ledger.total("preprocess")
    assert reused.total_weight == default.total_weight


def test_enumerate_cliques_accepts_a_measured_backend(graph):
    planted = planted_clique_graph(32, 4, p=0.1, seed=1)
    estimated = enumerate_cliques(planted, k=3)
    measured = enumerate_cliques(planted, k=3, backend=get_backend("direct", graph))
    assert measured.cliques == estimated.cliques
    assert measured.rounds != estimated.rounds  # measured cost, not the polylog estimate


def test_sorting_via_routing_through_a_backend_oracle(graph):
    vertices = sorted(graph.nodes())[:8]
    items_at = {vertex: [(vertex * 31 % 7, f"item-{vertex}")] for vertex in vertices}
    oracle = routing_oracle_from_backend(get_backend("direct", graph))
    record = sorting_via_routing(items_at, oracle, load=1)
    assert record.routing_calls == record.network_depth
    assert oracle.query_rounds > 0
    keys = [key for vertex in vertices for key, _ in record.placement[vertex]]
    assert keys == sorted(keys)
