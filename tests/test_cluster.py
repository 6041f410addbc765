"""Tests for the cluster tier: ring, admission, coordinator, load generator."""

import pytest

from repro.cluster import (
    AdmissionController,
    ClusterCoordinator,
    ConsistentHashRing,
    OpenLoopLoadGenerator,
)
from repro.graphs.generators import circulant_expander, random_regular_expander
from repro.metrics import MetricsRegistry
from repro.planner import ExecutionPlan
from repro.service import service as service_module
from repro.workloads import permutation_workload


@pytest.fixture(scope="module")
def graphs():
    return [random_regular_expander(48, degree=6, seed=seed) for seed in range(3)]


def _coordinator(**overrides):
    defaults = dict(
        shard_count=4,
        cache_capacity=4,
        default_plan=ExecutionPlan(backend="deterministic", max_workers=2),
        metrics=MetricsRegistry(),
    )
    defaults.update(overrides)
    return ClusterCoordinator(**defaults)


# -- the consistent-hash ring -----------------------------------------------------


def test_ring_assignment_is_deterministic_across_instances():
    keys = [f"fingerprint-{index}" for index in range(200)]
    first = ConsistentHashRing(["a", "b", "c"], vnodes=32)
    second = ConsistentHashRing(["c", "a", "b"], vnodes=32)  # order must not matter
    assert first.placement(keys) == second.placement(keys)


def test_ring_spreads_keys_over_every_shard():
    ring = ConsistentHashRing([f"shard-{i}" for i in range(4)], vnodes=64)
    keys = [f"key-{index}" for index in range(1000)]
    spread = ring.spread(keys)
    assert set(spread) == set(ring.shard_ids)
    # Virtual nodes keep the split from collapsing onto a few shards.
    assert min(spread.values()) > 0
    assert max(spread.values()) < 1000 // 2


def test_adding_a_shard_only_moves_keys_to_the_new_shard():
    keys = [f"key-{index}" for index in range(1000)]
    ring = ConsistentHashRing(["a", "b", "c", "d"], vnodes=64)
    before = ring.placement(keys)
    ring.add_shard("e")
    after = ring.placement(keys)
    moved = {key for key in keys if before[key] != after[key]}
    assert moved, "a new shard must capture some keys"
    assert all(after[key] == "e" for key in moved)


def test_removing_a_shard_only_moves_its_own_keys():
    keys = [f"key-{index}" for index in range(1000)]
    ring = ConsistentHashRing(["a", "b", "c", "d"], vnodes=64)
    before = ring.placement(keys)
    ring.remove_shard("d")
    after = ring.placement(keys)
    for key in keys:
        if before[key] == "d":
            assert after[key] != "d"
        else:
            assert after[key] == before[key]


def test_rebalance_moves_at_most_the_expected_fraction_with_slack():
    keys = [f"key-{index}" for index in range(2000)]
    before = ConsistentHashRing([f"s{i}" for i in range(4)], vnodes=128)
    after = ConsistentHashRing([f"s{i}" for i in range(5)], vnodes=128)
    stats = after.rebalance_stats(before, keys)
    assert stats.expected_fraction == pytest.approx(1 / 5)
    # Consistent hashing moves about 1/(N+1); double is a generous variance
    # allowance and far below the ~4/5 a naive modulo rehash would move.
    assert 0 < stats.moved_fraction <= 2 * stats.expected_fraction


def test_ring_rejects_duplicates_and_empty_lookups():
    ring = ConsistentHashRing(["a"], vnodes=8)
    with pytest.raises(ValueError):
        ring.add_shard("a")
    with pytest.raises(ValueError):
        ConsistentHashRing(vnodes=8).assign("key")
    with pytest.raises(ValueError):
        ring.remove_shard("missing")


# -- admission control ------------------------------------------------------------


def test_reject_policy_refuses_arrivals_when_full():
    controller = AdmissionController(capacity=2, policy="reject")
    outcomes = [controller.offer("s", index) for index in range(5)]
    assert [decision.accepted for decision in outcomes] == [True, True, False, False, False]
    stats = controller.stats_for("s")
    assert (stats.offered, stats.accepted, stats.rejected, stats.shed) == (5, 2, 3, 0)
    assert controller.drain("s") == [0, 1]


def test_shed_oldest_policy_keeps_the_freshest_work():
    controller = AdmissionController(capacity=2, policy="shed-oldest")
    shed = []
    for index in range(5):
        decision = controller.offer("s", index)
        assert decision.accepted
        shed.extend(decision.shed)
    assert shed == [0, 1, 2]
    assert controller.drain("s") == [3, 4]
    stats = controller.stats_for("s")
    assert (stats.accepted, stats.shed, stats.rejected) == (5, 3, 0)
    assert stats.drop_rate == pytest.approx(3 / 5)


def test_unbounded_controller_never_drops():
    controller = AdmissionController(capacity=None)
    for index in range(100):
        assert controller.offer("s", index).accepted
    assert controller.depth("s") == 100
    assert controller.total_stats().dropped == 0


def test_admission_validates_configuration():
    with pytest.raises(ValueError):
        AdmissionController(capacity=0)
    with pytest.raises(ValueError):
        AdmissionController(policy="drop-table")


# -- the coordinator --------------------------------------------------------------


def test_cluster_serves_a_batch_and_merges_reports(graphs):
    coordinator = _coordinator()
    for graph in graphs:
        for shift in (1, 2):
            decision = coordinator.submit(graph, permutation_workload(graph, shift=shift))
            assert decision.accepted
    report = coordinator.dispatch()
    assert report.query_count == len(graphs) * 2
    assert report.all_delivered
    assert report.lost_batches == 0 and report.requeued_batches == 0
    assert report.preprocess_rounds_incurred > 0
    # Merged totals equal the per-shard sums.
    assert report.query_count == sum(r.query_count for r in report.shard_reports.values())
    assert set(report.shard_reports) <= set(coordinator.shard_ids)
    rendered = report.render()
    assert "[cluster]" in rendered and "p99_seconds" in rendered


def test_warm_dispatch_reuses_every_artifact(graphs):
    coordinator = _coordinator()
    workloads = [permutation_workload(graph) for graph in graphs]
    for graph, workload in zip(graphs, workloads):
        coordinator.submit(graph, workload)
    cold = coordinator.dispatch()
    for graph, workload in zip(graphs, workloads):
        coordinator.submit(graph, workload)
    warm = coordinator.dispatch()
    assert cold.preprocess_rounds_incurred > 0
    assert warm.preprocess_rounds_incurred == 0
    assert warm.cache_hit_rate == 1.0
    assert warm.preprocess_rounds_reused > 0


def test_artifact_locality_one_fingerprint_one_shard_cache(graphs):
    coordinator = _coordinator()
    for graph in graphs:
        coordinator.submit(graph, permutation_workload(graph))
    coordinator.dispatch()
    fingerprints = {coordinator.fingerprint(graph) for graph in graphs}
    stores_by_shard = {
        shard_id: worker.cache_stats.stores for shard_id, worker in coordinator.workers.items()
    }
    # Every artifact is built exactly once, on the shard the ring assigned it.
    assert sum(stores_by_shard.values()) == len(fingerprints)
    for fingerprint in fingerprints:
        owner = coordinator.ring.assign(fingerprint)
        assert fingerprint in coordinator.workers[owner].service.cache


@pytest.mark.parametrize(
    "policy, backend",
    [(None, None), ("cost", None), (None, "randomized-gks")],
    ids=["fixed", "planner", "backend-override"],
)
def test_a_local_cluster_canonicalises_each_graph_once(graphs, monkeypatch, policy, backend):
    """Shards key with the coordinator's fingerprint instead of recomputing it."""
    canonicalised = []
    real_payload = service_module.graph_payload

    def counting_payload(graph):
        canonicalised.append(graph)
        return real_payload(graph)

    monkeypatch.setattr(service_module, "graph_payload", counting_payload)
    coordinator = _coordinator(shard_count=2, policy=policy)
    for graph in graphs:
        for shift in (1, 2):
            workload = permutation_workload(graph, shift=shift)
            assert coordinator.submit(graph, workload, backend=backend).accepted
    report = coordinator.dispatch()
    assert report.all_delivered and report.query_count == 2 * len(graphs)
    assert sorted(map(id, canonicalised)) == sorted(map(id, graphs))
    keyed = set()
    for shard in report.shard_reports.values():
        for result in shard.results:
            plan = result.plan
            if backend is not None:
                assert plan.backend == backend
            keys = {
                coordinator.fingerprint(
                    graph, backend=plan.backend, backend_params=plan.backend_params
                ): index
                for index, graph in enumerate(graphs)
            }
            keyed.add(keys[result.fingerprint])
    assert keyed == set(range(len(graphs)))
    assert len(canonicalised) == len(graphs)


def test_same_shard_submissions_share_one_placed_default_plan(graphs):
    coordinator = _coordinator(shard_count=2)
    for graph in graphs:
        for shift in (1, 2, 3):
            assert coordinator.submit(graph, permutation_workload(graph, shift=shift)).accepted
    slices = coordinator.drain_slices()
    assert slices
    for shard_id, items in slices.items():
        plan = items[0].plan
        assert all(item.plan is plan for item in items)
        assert plan.shard_hint == shard_id
        assert plan.reason == "cluster default plan"
        assert plan.backend == coordinator.default_plan.backend
    coordinator.close()


def test_reassigning_the_default_plan_takes_effect_on_the_next_submit(graphs):
    coordinator = _coordinator(shard_count=2)
    graph = graphs[0]
    coordinator.submit(graph, permutation_workload(graph, shift=1))
    coordinator.default_plan = ExecutionPlan(backend="deterministic", fused=True)
    coordinator.submit(graph, permutation_workload(graph, shift=2))
    [items] = coordinator.drain_slices().values()
    assert [item.plan.fused for item in items] == [False, True]
    assert items[1].plan.shard_hint == items[0].plan.shard_hint
    assert coordinator.plan(graph, permutation_workload(graph)).fused
    report = coordinator.route_batch(graph, [permutation_workload(graph, shift=3)])
    assert report.all_delivered
    coordinator.close()


def test_a_planner_still_plans_every_submission(graphs, monkeypatch):
    coordinator = _coordinator(shard_count=2, policy="cost")
    planned = []
    real_plan = coordinator.planner.plan

    def counting_plan(*args, **kwargs):
        planned.append(real_plan(*args, **kwargs))
        return planned[-1]

    monkeypatch.setattr(coordinator.planner, "plan", counting_plan)
    for graph in graphs:
        assert coordinator.submit(graph, permutation_workload(graph)).accepted
    assert len(planned) == len(graphs)
    items = [item for items in coordinator.drain_slices().values() for item in items]
    for item, plan in zip(sorted(items, key=lambda item: graphs.index(item.graph)), planned):
        assert item.plan == plan.with_shard(item.plan.shard_hint)
    coordinator.close()


def test_journaled_admits_recover_to_the_submitted_placed_plans(tmp_path, graphs):
    from repro.durability import CoordinatorJournal, recover

    kwargs = dict(
        shard_count=2,
        cache_capacity=4,
        default_plan=ExecutionPlan(backend="deterministic", max_workers=2),
        metrics=MetricsRegistry(),
    )
    journal = CoordinatorJournal(tmp_path, metrics=MetricsRegistry())
    coordinator = ClusterCoordinator(**kwargs, journal=journal)
    submitted = {}
    for index, graph in enumerate(graphs):
        for shift in (1, 2):
            key = f"key-{index}-{shift}"
            workload = permutation_workload(graph, shift=shift)
            decision = coordinator.submit(graph, workload, idempotency_key=key)
            submitted[key] = coordinator.plan(graph, workload).with_shard(decision.shard_id)
    # Crash: abandon the journal and drop the coordinator unclosed.
    journal.abandon()
    for worker in coordinator.workers.values():
        worker.close()

    recovered, _ = recover(tmp_path, kwargs, rewarm=False)
    try:
        items = [item for items in recovered.drain_slices().values() for item in items]
        assert {item.idempotency_key: item.plan for item in items} == submitted
    finally:
        recovered.close()


def test_same_config_same_submissions_identical_cluster_reports(graphs):
    signatures = []
    for _ in range(2):
        coordinator = _coordinator()
        generator = OpenLoopLoadGenerator(
            graphs,
            rate=80.0,
            duration=0.3,
            dispatch_interval=0.1,
            seed=42,
        )
        slo = generator.run(coordinator)
        signatures.append([report.signature() for report in slo.cluster_reports])
    assert signatures[0] == signatures[1]


def test_add_shard_reports_rebalance_over_seen_fingerprints(graphs):
    coordinator = _coordinator(shard_count=2)
    for graph in graphs:
        coordinator.submit(graph, permutation_workload(graph))
    coordinator.dispatch()
    stats = coordinator.add_shard()
    assert coordinator.shard_count == 3
    assert stats.total == len(graphs)
    assert stats.expected_fraction == pytest.approx(1 / 3)
    assert 0 <= stats.moved <= stats.total
    # The cluster still serves correctly after the topology change.
    for graph in graphs:
        coordinator.submit(graph, permutation_workload(graph))
    report = coordinator.dispatch()
    assert report.all_delivered


def test_remove_shard_requeues_stranded_work(graphs):
    coordinator = _coordinator(shard_count=3)
    for graph in graphs:
        coordinator.submit(graph, permutation_workload(graph))
    victim = coordinator.shard_ids[0]
    pending_before = coordinator.pending_count
    coordinator.remove_shard(victim)
    assert victim not in coordinator.workers
    assert coordinator.pending_count == pending_before
    report = coordinator.dispatch()
    assert report.query_count == len(graphs)
    assert report.all_delivered
    # A planned rebalance requeues the stranded batches, never loses them.
    assert report.lost_batches == 0
    assert report.requeued_batches > 0
    with pytest.raises(ValueError):
        one = _coordinator(shard_count=1)
        one.remove_shard(one.shard_ids[0])


# -- the load generator -----------------------------------------------------------


def test_arrival_times_are_seeded_and_rate_shaped(graphs):
    generator = OpenLoopLoadGenerator(graphs, rate=500.0, duration=2.0, seed=3)
    first = generator.arrival_times()
    second = OpenLoopLoadGenerator(graphs, rate=500.0, duration=2.0, seed=3).arrival_times()
    assert first == second
    assert all(0 <= t < 2.0 for t in first)
    assert first == sorted(first)
    # ~1000 expected arrivals; 5 sigma is ~160.
    assert 750 <= len(first) <= 1250
    different = OpenLoopLoadGenerator(graphs, rate=500.0, duration=2.0, seed=4).arrival_times()
    assert first != different


def test_bursty_arrivals_concentrate_in_the_on_window(graphs):
    generator = OpenLoopLoadGenerator(
        graphs,
        rate=400.0,
        duration=2.0,
        arrival="bursty",
        burst_factor=3.0,
        burst_period=0.5,
        burst_fraction=0.25,
        seed=9,
    )
    times = generator.arrival_times()
    in_burst = sum(1 for t in times if (t % 0.5) < 0.5 * 0.25)
    # The ON quarter of each period runs at 3x the average rate, so it should
    # hold about 75% of the arrivals; a uniform process would hold 25%.
    assert in_burst / len(times) > 0.5


def test_loadgen_validates_configuration(graphs):
    with pytest.raises(ValueError):
        OpenLoopLoadGenerator([], rate=10, duration=1)
    with pytest.raises(ValueError):
        OpenLoopLoadGenerator(graphs, rate=0, duration=1)
    with pytest.raises(ValueError):
        OpenLoopLoadGenerator(graphs, arrival="uniformish")
    with pytest.raises(ValueError):
        OpenLoopLoadGenerator(graphs, arrival="bursty", burst_fraction=1.5)


def test_saturating_load_sheds_and_reports_the_drop_rate():
    graph = circulant_expander(32)
    coordinator = _coordinator(
        shard_count=2,
        queue_capacity=2,
        admission_policy="reject",
        cache_capacity=2,
    )
    generator = OpenLoopLoadGenerator(
        [graph],
        workload_mix=(("permutation", {"shift": 1}),),
        rate=400.0,
        duration=0.25,
        dispatch_interval=0.25,
        seed=5,
    )
    slo = generator.run(coordinator)
    # One dispatch window, ~100 arrivals, one shard owns the single
    # fingerprint, and its queue holds 2: overload must shed.
    assert slo.offered > 10
    assert slo.rejected > 0
    assert slo.drop_rate > 0.5
    assert slo.completed == slo.admitted
    assert slo.completed <= 2 * len(slo.cluster_reports)
    rendered = slo.render()
    assert "[slo]" in rendered and "drop_rate" in rendered


def test_shed_oldest_under_saturation_counts_shed_not_rejected():
    graph = circulant_expander(32)
    coordinator = _coordinator(
        shard_count=2,
        queue_capacity=2,
        admission_policy="shed-oldest",
        cache_capacity=2,
    )
    generator = OpenLoopLoadGenerator(
        [graph],
        workload_mix=(("permutation", {"shift": 1}),),
        rate=300.0,
        duration=0.2,
        dispatch_interval=0.2,
        seed=6,
    )
    slo = generator.run(coordinator)
    assert slo.shed > 0
    assert slo.rejected == 0
    assert slo.completed == slo.admitted


def test_slo_report_has_latency_percentiles_and_shard_hit_rates(graphs):
    coordinator = _coordinator(shard_count=2)
    generator = OpenLoopLoadGenerator(
        graphs, rate=60.0, duration=0.3, dispatch_interval=0.1, seed=1
    )
    slo = generator.run(coordinator)
    assert slo.completed == slo.offered  # no bounds, nothing dropped
    assert slo.all_delivered
    assert slo.lost_batches == 0 and slo.failovers == 0
    summary = slo.summary()
    assert 0 < summary["p50_seconds"] <= summary["p95_seconds"] <= summary["p99_seconds"]
    assert summary["throughput_qps"] > 0
    hit_rates = slo.cache_hit_rate_by_shard()
    assert hit_rates and all(0.0 <= rate <= 1.0 for rate in hit_rates.values())


def test_remove_shard_requeues_even_into_full_queues():
    controller_graphs = [circulant_expander(32), circulant_expander(36)]
    coordinator = _coordinator(shard_count=2, queue_capacity=1, admission_policy="reject")
    for graph in controller_graphs:
        coordinator.submit(graph, permutation_workload(graph))
    pending_before = coordinator.pending_count
    offered_before = coordinator.admission.total_stats().offered
    coordinator.remove_shard(coordinator.shard_ids[0])
    # Nothing lost, and the move is not a second admission decision.
    assert coordinator.pending_count == pending_before
    assert coordinator.admission.total_stats().offered == offered_before
    report = coordinator.dispatch()
    assert report.query_count == pending_before
    assert report.all_delivered
    assert report.lost_batches == 0


def test_loadgen_rejects_nonpositive_burst_parameters(graphs):
    with pytest.raises(ValueError):
        OpenLoopLoadGenerator(graphs, arrival="bursty", burst_period=0.0)
    with pytest.raises(ValueError):
        OpenLoopLoadGenerator(graphs, arrival="bursty", burst_factor=-1.0)
