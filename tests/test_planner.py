"""Tests for the cost-model query planner (ISSUE 5).

Covers the planner determinism guarantee — same fingerprint + workload
signature + calibration state produces the byte-identical
:class:`ExecutionPlan` and ``explain()`` output — the hypothesis property
that the cost model's estimates are monotone in graph size for every
backend, and the plan-driven execution paths through the service and the
cluster tier (compat shims, plan identity in reports, adaptive
convergence, cluster-wide shared calibration).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import available_backends
from repro.cluster import ClusterCoordinator
from repro.graphs.generators import random_regular_expander
from repro.metrics import MetricsRegistry
from repro.planner import (
    PLAN_POLICIES,
    CostModel,
    ExecutionPlan,
    QueryPlanner,
    size_bucket,
    workload_signature,
)
from repro.service import RoutingService
from repro.workloads import make_workload


@pytest.fixture(scope="module")
def graph():
    return random_regular_expander(48, degree=6, seed=3)


def _calibrated_planner(**kwargs) -> QueryPlanner:
    """A planner with a reproducible, hand-fed calibration state."""
    planner = QueryPlanner(policy="adaptive", metrics=MetricsRegistry(), **kwargs)
    model = planner.cost_model
    observations = [
        ("deterministic", 0.004),
        ("deterministic", 0.0035),
        ("direct", 0.002),
        ("direct", 0.0022),
        ("randomized-gks", 0.006),
        ("randomized-gks", 0.0065),
        ("rebuild-per-query", 0.04),
        ("rebuild-per-query", 0.041),
    ]
    for backend, seconds in observations:
        model.observe_query(backend, "numpy", 48, seconds, workload="permutation")
    return planner


# -- ExecutionPlan -----------------------------------------------------------


def test_plan_identities_split_semantic_from_physical():
    base = ExecutionPlan(backend="deterministic", backend_params={"epsilon": 0.5})
    threads = ExecutionPlan(
        backend="deterministic", backend_params={"epsilon": 0.5}, parallelism="threads"
    )
    fused = ExecutionPlan(
        backend="deterministic", backend_params={"epsilon": 0.5}, fused=True
    )
    # Semantic identity ignores physical fields; full identity does not.
    assert threads.semantic_id == fused.semantic_id == base.semantic_id
    assert threads.plan_id == base.plan_id != fused.plan_id
    # Placement annotation changes neither identity.
    placed = threads.with_shard("shard-2")
    assert placed.shard_hint == "shard-2"
    assert placed.plan_id == threads.plan_id
    assert placed.semantic_id == threads.semantic_id


def test_plan_validates_execution_mode():
    with pytest.raises(ValueError):
        ExecutionPlan(backend="direct", parallelism="fibers")
    # Process mode is gone: "threads" is the only execution mode.
    with pytest.raises(ValueError):
        ExecutionPlan(backend="direct", parallelism="processes")


def test_plan_canonical_json_is_stable():
    plan = ExecutionPlan(backend="direct", backend_params={"b": 2, "a": 1})
    again = ExecutionPlan(backend="direct", backend_params={"a": 1, "b": 2})
    assert plan.canonical_json() == again.canonical_json()


# -- CostModel ---------------------------------------------------------------


def test_cost_model_prefers_workload_specific_curve():
    model = CostModel()
    model.observe_query("direct", "numpy", 64, 0.010)
    model.observe_query("direct", "numpy", 64, 0.010)
    model.observe_query("direct", "numpy", 64, 0.010)
    model.observe_query("direct", "numpy", 64, 0.001, workload="broadcast")
    model.observe_query("direct", "numpy", 64, 0.001, workload="broadcast")
    aggregate = model.estimate("direct", "numpy", 64)
    specific = model.estimate("direct", "numpy", 64, workload="broadcast")
    assert specific.scope == "workload"
    assert specific.cost < aggregate.cost
    # Unknown workload classes fall back to the aggregate curve.
    fallback = model.estimate("direct", "numpy", 64, workload="hotspot")
    assert fallback.scope == "aggregate"
    assert fallback.cost == aggregate.cost


def test_cost_model_cold_start_sample_is_provisional():
    model = CostModel(alpha=0.3)
    model.observe_query("deterministic", "numpy", 64, 1.0)  # cold outlier
    model.observe_query("deterministic", "numpy", 64, 0.01)  # steady state
    estimate = model.estimate("deterministic", "numpy", 64)
    # The second observation replaces the cold outlier outright.
    assert estimate.cost == pytest.approx(0.01)
    model.observe_query("deterministic", "numpy", 64, 0.02)
    blended = model.estimate("deterministic", "numpy", 64)
    assert blended.cost == pytest.approx(0.3 * 0.02 + 0.7 * 0.01)


def test_cost_model_version_and_signature_track_state():
    model = CostModel()
    v0, s0 = model.version, model.state_signature()
    model.observe_query("direct", "numpy", 64, 0.002)
    assert model.version == v0 + 1
    assert model.state_signature() != s0
    twin = CostModel()
    twin.observe_query("direct", "numpy", 64, 0.002)
    assert twin.state_signature() == model.state_signature()


@settings(max_examples=60, deadline=None)
@given(
    backend=st.sampled_from(
        ["deterministic", "rebuild-per-query", "randomized-gks", "direct", "unknown"]
    ),
    n_small=st.integers(min_value=8, max_value=4096),
    growth=st.integers(min_value=0, max_value=4096),
    load=st.integers(min_value=1, max_value=8),
)
def test_cost_model_priors_monotone_in_graph_size(backend, n_small, growth, load):
    """ISSUE 5: the cost model is monotone in graph size for each backend."""
    model = CostModel(epsilon=0.5)
    n_large = n_small + growth
    small = model.estimate(backend, "numpy", n_small, load=load).cost
    large = model.estimate(backend, "numpy", n_large, load=load).cost
    assert small <= large + 1e-12
    pre_small = model.estimate(backend, "numpy", n_small, phase="preprocess").cost
    pre_large = model.estimate(backend, "numpy", n_large, phase="preprocess").cost
    assert pre_small <= pre_large + 1e-12


# -- QueryPlanner determinism ------------------------------------------------


def test_same_state_produces_byte_identical_plan_and_explain():
    """ISSUE 5: fingerprint + signature + calibration state => identical output."""
    outputs = []
    for _ in range(2):  # two planners, independently but identically calibrated
        planner = _calibrated_planner()
        plan = planner.plan(
            "f" * 64, 48, request_count=48, load=1, workload="permutation"
        )
        explanation = planner.explain(
            "f" * 64, 48, request_count=48, load=1, workload="permutation"
        )
        outputs.append((plan.canonical_json(), explanation.render()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    # And within one planner, the cached decision is literally the same bytes.
    planner = _calibrated_planner()
    first = planner.explain("f" * 64, 48, request_count=48, load=1, workload="permutation")
    second = planner.explain("f" * 64, 48, request_count=48, load=1, workload="permutation")
    assert first.render() == second.render()


def test_explicit_backend_pins_fixed_plan_under_any_policy():
    for policy in PLAN_POLICIES:
        planner = QueryPlanner(policy=policy, metrics=MetricsRegistry())
        plan = planner.plan("a" * 64, 64, request_count=64, backend="randomized-gks")
        assert plan.backend == "randomized-gks"
        assert plan.policy == "fixed"


def test_cost_policy_is_deterministic_and_uses_priors_cold():
    planner = QueryPlanner(policy="cost", metrics=MetricsRegistry())
    plan = planner.plan("b" * 64, 64, request_count=64, load=1)
    # With no calibration the asymptotic priors decide: the paper's
    # deterministic router has the smallest warm-query bound.
    assert plan.backend == "deterministic"
    assert plan.policy == "cost"


def test_adaptive_explores_then_converges():
    planner = QueryPlanner(policy="adaptive", metrics=MetricsRegistry())
    probed = []
    # Each round: plan, feed one observation, until exploration is done.
    for _ in range(2 * len(planner.candidates)):
        plan = planner.plan("c" * 64, 48, request_count=48, load=1, workload="permutation")
        if not plan.reason.startswith("exploring"):
            break
        probed.append(plan.backend)
        planner.record_query(
            plan, 48, {"direct": 0.001}.get(plan.backend, 0.05), workload="permutation"
        )
    assert set(probed) == set(planner.candidates)
    final = planner.plan("c" * 64, 48, request_count=48, load=1, workload="permutation")
    assert final.backend == "direct"
    assert "lowest" in final.reason


def test_plan_cache_reuses_converged_decisions_within_interval():
    planner = _calibrated_planner(replan_interval=8)
    plan = planner.plan("d" * 64, 48, request_count=48, load=1, workload="permutation")
    assert not plan.reason.startswith("exploring")
    for _ in range(3):  # fewer than replan_interval observations
        planner.record_query(plan, 48, 0.002, workload="permutation")
    again = planner.plan("d" * 64, 48, request_count=48, load=1, workload="permutation")
    assert again is plan  # cached decision object, not a recomputation
    for _ in range(8):
        planner.record_query(plan, 48, 0.002, workload="permutation")
    refreshed = planner.plan("d" * 64, 48, request_count=48, load=1, workload="permutation")
    assert refreshed is not plan


def test_plan_cache_keys_on_active_kernel():
    """Flipping the kernel must re-derive plans, not serve stale cached ones."""
    from repro.kernels import kernel

    planner = _calibrated_planner()
    numpy_plan = planner.plan("e" * 64, 48, request_count=48, load=1, workload="permutation")
    assert numpy_plan.kernel == "numpy"
    with kernel("reference"):
        reference_plan = planner.plan(
            "e" * 64, 48, request_count=48, load=1, workload="permutation"
        )
    assert reference_plan.kernel == "reference"
    # Back under the original kernel the original decision is served again.
    again = planner.plan("e" * 64, 48, request_count=48, load=1, workload="permutation")
    assert again.kernel == "numpy"


def test_workload_signature_buckets_scale():
    assert workload_signature("hotspot", 2, 64, 64) == workload_signature(
        "hotspot", 2, 100, 100
    )
    assert workload_signature("hotspot", 2, 64, 64) != workload_signature(
        "hotspot", 2, 64, 256
    )
    assert size_bucket(64) != size_bucket(256)


# -- service integration -----------------------------------------------------


def test_service_kwargs_synthesize_fixed_plans(graph):
    workload = make_workload("permutation", graph, shift=1)
    with RoutingService(epsilon=0.5, metrics=MetricsRegistry()) as service:
        service.submit(graph, workload, backend="direct")
        report = service.route_batch()
    result = report.results[0]
    assert result.plan is not None
    assert result.plan.policy == "fixed"
    assert result.plan.backend == "direct"
    assert result.plan_id and result.plan_semantic_id
    assert json.loads(report.signature())["queries"][0]["plan"] == result.plan_semantic_id


def test_service_explicit_plan_wins(graph):
    workload = make_workload("permutation", graph, shift=1)
    plan = ExecutionPlan(backend="direct", policy="fixed", reason="test pin")
    with RoutingService(epsilon=0.5, policy="adaptive", metrics=MetricsRegistry()) as service:
        service.submit(graph, workload, plan=plan)
        report = service.route_batch()
    assert report.results[0].backend == "direct"
    assert report.results[0].plan.reason == "test pin"


def test_service_adaptive_policy_converges_and_delivers(graph):
    workloads = [make_workload("permutation", graph, shift=shift) for shift in (1, 2, 3)]
    with RoutingService(epsilon=0.5, policy="adaptive", metrics=MetricsRegistry()) as service:
        for _ in range(2 * len(available_backends()) + 1):
            for workload in workloads:
                assert service.route(graph, workload).all_delivered
        explanation = service.explain(graph, workloads[0])
        assert explanation.plan.policy == "adaptive"
        assert not explanation.plan.reason.startswith("exploring")
        assert service.planner.cost_model.version > 0
        # The converged backend routes and reports through the plan.
        report_backend = service.route(graph, workloads[0]).backend
        assert report_backend == explanation.plan.backend


def test_service_mixed_modes_in_one_batch_share_signature(graph):
    """Plans with different physical fields may share one batch."""
    workload = make_workload("permutation", graph, shift=1)
    plain_plan = ExecutionPlan(backend="deterministic")
    fused_plan = ExecutionPlan(backend="deterministic", fused=True, max_workers=2)
    with RoutingService(epsilon=0.5, metrics=MetricsRegistry()) as service:
        service.route(graph, workload)  # warm the artifact once
        service.submit(graph, workload, plan=plain_plan)
        service.submit(graph, workload, plan=fused_plan)
        report = service.route_batch()
    assert report.query_count == 2
    assert report.all_delivered
    first, second = report.results
    # Same semantic plan: identical deterministic outcome either way.
    assert first.plan_semantic_id == second.plan_semantic_id
    assert first.outcome.query_rounds == second.outcome.query_rounds
    assert first.outcome.delivered == second.outcome.delivered


def test_service_explain_requires_planner(graph):
    workload = make_workload("permutation", graph, shift=1)
    with RoutingService(epsilon=0.5, metrics=MetricsRegistry()) as service:
        with pytest.raises(RuntimeError):
            service.explain(graph, workload)


# -- cluster integration -----------------------------------------------------


def test_cluster_default_plan_replaces_knob_plumbing(graph):
    # The legacy shard_parallelism/shard_max_workers constructor kwargs are
    # gone; one plan object shared by every shard worker is the only spelling.
    with pytest.raises(TypeError):
        ClusterCoordinator(shard_count=2, shard_parallelism="threads")
    coordinator = ClusterCoordinator(
        shard_count=2,
        default_plan=ExecutionPlan(
            backend="deterministic", parallelism="threads", max_workers=2
        ),
        metrics=MetricsRegistry(),
    )
    with coordinator:
        assert coordinator.default_plan.parallelism == "threads"
        assert coordinator.default_plan.max_workers == 2
        # The one-release property shims are gone too.
        with pytest.raises(AttributeError):
            coordinator.shard_parallelism
        with pytest.raises(AttributeError):
            coordinator.shard_max_workers
        for worker in coordinator.workers.values():
            assert worker.default_plan is coordinator.default_plan
            assert not hasattr(worker.service, "parallelism")
            assert not hasattr(worker.service, "max_workers")
        workload = make_workload("permutation", graph, shift=1)
        decision = coordinator.submit(graph, workload)
        assert decision.accepted
        report = coordinator.dispatch()
        assert report.all_delivered
        result = next(iter(report.shard_reports.values())).results[0]
        assert result.plan.shard_hint in coordinator.shard_ids


def test_cluster_default_plan_params_survive_submission(graph):
    """A configured default_plan's backend_params reach every fixed submission."""
    template = ExecutionPlan(
        backend="deterministic", backend_params={"epsilon": 0.4}, policy="fixed"
    )
    with ClusterCoordinator(
        shard_count=2, epsilon=0.4, default_plan=template, metrics=MetricsRegistry()
    ) as coordinator:
        workload = make_workload("permutation", graph, shift=1)
        planned = coordinator.plan(graph, workload)
        assert dict(planned.backend_params) == {"epsilon": 0.4}
        # Caller params merge over the template's for the default backend...
        merged = coordinator.plan(graph, workload, backend_params={"psi": 0.1})
        assert dict(merged.backend_params) == {"epsilon": 0.4, "psi": 0.1}
        # ...but a pinned different backend never inherits them.
        pinned = coordinator.plan(graph, workload, backend="direct")
        assert dict(pinned.backend_params) == {}
        assert coordinator.submit(graph, workload).accepted
        report = coordinator.dispatch()
        assert report.all_delivered


def test_cluster_signature_covers_plans(graph):
    def run():
        with ClusterCoordinator(shard_count=2, metrics=MetricsRegistry()) as coordinator:
            workload = make_workload("permutation", graph, shift=1)
            coordinator.submit(graph, workload)
            coordinator.submit(graph, workload, backend="direct")
            return coordinator.dispatch().signature()

    first, second = run(), run()
    assert first == second
    assert any(shard["plans"] for shard in first.values())


def test_cluster_adaptive_policy_shares_one_cost_model(graph):
    with ClusterCoordinator(
        shard_count=2, policy="adaptive", metrics=MetricsRegistry()
    ) as coordinator:
        workload = make_workload("permutation", graph, shift=1)
        for _ in range(2 * len(available_backends()) + 1):
            coordinator.submit(graph, workload)
            report = coordinator.dispatch()
            assert report.all_delivered
        # Every shard's service feeds the same model the coordinator plans by.
        model = coordinator.planner.cost_model
        for worker in coordinator.workers.values():
            assert worker.service.planner is coordinator.planner
        assert model.version > 0
        explanation = coordinator.explain(graph, workload)
        assert not explanation.plan.reason.startswith("exploring")
        assert len(report.plan_counts) >= 1
        assert sum(report.backend_counts.values()) == report.query_count
