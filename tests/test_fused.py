"""Fused batch kernels are result-identical to sequential execution.

The fused paths (``ExpanderRouter.route_many``, ``disperse_many``,
``schedule_token_batches``, and the service's fused batch dispatch) exist
purely for wall-clock: every observable output — deliveries, round counts,
per-phase breakdowns, token traces, batch signatures, dispersion queues —
must match what the per-query sequential code produces.  Hypothesis drives
random expanders and workloads through both paths and compares exhaustively.
"""

from __future__ import annotations

import copy
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import DEFAULT_WORKLOAD_MIX
from repro.congest.scheduler import (
    ScheduledToken,
    schedule_token_batches,
    schedule_tokens_along_paths,
)
from repro.core.dispersion import DispersionState, disperse, disperse_many
from repro.core.router import ExpanderRouter
from repro.core.tokens import RoutingRequest
from repro.graphs.generators import random_regular_expander
from repro.hierarchy.best import build_best_index
from repro.kernels import kernel, set_kernel
from repro.kernels.batched import disperse_many_numpy
from repro.metrics import MetricsRegistry
from repro.planner import ExecutionPlan
from repro.service import RoutingService
from repro.workloads import make_workload

settings.register_profile(
    "repro-fused", deadline=None, max_examples=12, suppress_health_check=[HealthCheck.too_slow]
)
# The deep run (``--hypothesis-profile=ci``, see conftest.py) keeps its profile.
if settings.default is not settings.get_profile("ci"):
    settings.load_profile("repro-fused")


@pytest.fixture(scope="module")
def router():
    """One preprocessed router shared by every drawn workload batch."""
    graph = nx.random_regular_graph(4, 48, seed=11)
    r = ExpanderRouter(graph, epsilon=0.5)
    r.preprocess()
    return r


def _outcome_facts(outcome):
    """Every field of a RoutingOutcome; tokens compare whole (dataclass equality)."""
    return (
        outcome.delivered,
        outcome.total_tokens,
        outcome.query_rounds,
        outcome.preprocessing_rounds,
        outcome.load,
        outcome.max_intermediate_part_load,
        outcome.dispersion_window_fraction,
        outcome.fallback_assignments,
        tuple(sorted(outcome.breakdown.items())),
        sorted(outcome.tokens, key=lambda t: t.token_id),
    )


def _draw_groups(data, graph, max_groups=3):
    """Partial permutations mixed with load-2 catalog workloads (4 dummies per vertex)."""
    nodes = sorted(graph.nodes())
    group_count = data.draw(st.integers(min_value=2, max_value=max_groups))
    groups = []
    for index in range(group_count):
        shape = data.draw(st.sampled_from(["permutation", "multi-token", "hotspot"]))
        seed = data.draw(st.integers(min_value=0, max_value=2**16))
        if shape == "multi-token":
            groups.append(list(make_workload(shape, graph, load=2).requests))
            continue
        if shape == "hotspot":
            groups.append(list(make_workload(shape, graph, load=2, seed=seed).requests))
            continue
        rng = random.Random(seed)
        size = data.draw(st.integers(min_value=2, max_value=len(nodes)))
        sources = rng.sample(nodes, size)
        destinations = sources[:]
        rng.shuffle(destinations)
        groups.append(
            [RoutingRequest(source=s, destination=d) for s, d in zip(sources, destinations)]
        )
    return groups


@given(st.data())
def test_route_many_matches_sequential(router, data):
    groups = _draw_groups(data, router.graph)
    set_kernel("numpy")
    try:
        fused = router.route_many(groups)
        sequential = [router.route(group) for group in groups]
    finally:
        set_kernel(None)
    assert [_outcome_facts(o) for o in fused] == [_outcome_facts(o) for o in sequential]


@given(st.data())
def test_route_many_matches_reference_kernel(router, data):
    """The fused numpy recursion agrees with the pure-python reference."""
    groups = _draw_groups(data, router.graph, max_groups=2)
    set_kernel("numpy")
    try:
        fused = router.route_many(groups)
    finally:
        set_kernel(None)
    set_kernel("reference")
    try:
        reference = [router.route(group) for group in groups]
    finally:
        set_kernel(None)
    assert [_outcome_facts(o) for o in fused] == [_outcome_facts(o) for o in reference]


def _warm_fused_batch(graph, per_shape, seed):
    """Queries drawn as the warm-fused benchmark draws them: ``per_shape`` per mix entry.

    The mix's hotspot and multi-token shapes have load 2, so the batch
    carries loads 1 and 2 (4 dummies per vertex at the root).
    """
    rng = random.Random(seed)
    workloads = []
    for name, params in DEFAULT_WORKLOAD_MIX:
        for _ in range(per_shape):
            varied = dict(params)
            if name == "permutation":
                varied["shift"] = rng.randrange(1, len(graph))
            elif name == "hotspot":
                varied["seed"] = rng.randrange(1 << 30)
            workloads.append(make_workload(name, graph, **varied))
    return [list(w.requests) for w in workloads], [w.load for w in workloads]


def _assert_fused_solo_reference_agree(router, groups, loads):
    with kernel("numpy"):
        fused = router.route_many(groups, loads)
        solo = [router.route(group, load) for group, load in zip(groups, loads)]
    with kernel("reference"):
        reference = [router.route(group, load) for group, load in zip(groups, loads)]
    facts = [_outcome_facts(outcome) for outcome in fused]
    assert facts == [_outcome_facts(outcome) for outcome in solo]
    assert facts == [_outcome_facts(outcome) for outcome in reference]


def test_route_many_at_warm_fused_shapes_matches_solo_and_reference():
    """16 mixed queries on an n=128 8-regular expander: the benchmark's fused batch."""
    router = ExpanderRouter(random_regular_expander(128, degree=8, seed=3), epsilon=0.5)
    router.preprocess()
    assert len(router.decomposition.root.parts) >= 11
    groups, loads = _warm_fused_batch(router.graph, per_shape=4, seed=5)
    assert len(groups) == 16 and max(loads) > 1
    _assert_fused_solo_reference_agree(router, groups, loads)


def test_route_many_on_mixed_depth_leaves_matches_solo_and_reference():
    """A 3-level n=256 hierarchy with leaves at depths 1 and 2 and childless parts.

    The builder gives every part a child at one depth, so a copy is rewired:
    every third level-1 node becomes a leaf, and the last part of every other
    level-1 node loses its child (and with it its best vertices).
    """
    router = ExpanderRouter(random_regular_expander(256, degree=8, seed=0), epsilon=0.5)
    router.preprocess()
    decomposition = router.decomposition
    assert decomposition.levels() == 3
    for position, part in enumerate(decomposition.root.parts):
        child = part.child
        if position % 3 == 0:
            child.is_leaf, child.parts, child.shuffler = True, [], None
        else:
            child.parts[-1].child = None
    router.best_index = router.artifact.best_index = build_best_index(decomposition)
    assert {leaf.level for leaf in decomposition.leaves()} == {1, 2}
    groups, loads = _warm_fused_batch(router.graph, per_shape=2, seed=9)
    _assert_fused_solo_reference_agree(router, groups, loads)


@pytest.fixture(scope="module")
def wide_root():
    """The root of an n=128, 8-regular expander: 11 parts, so mark 10 sorts before 2."""
    r = ExpanderRouter(random_regular_expander(128, degree=8, seed=1), epsilon=0.5)
    r.preprocess()
    root = r.decomposition.root
    assert len(root.parts) >= 11 and len(root.shuffler) > 0
    return root


def _queues(state):
    return {
        (part, mark): list(items)
        for part, per_mark in state.queues.items()
        for mark, items in per_mark.items()
    }


@given(st.data())
def test_disperse_many_matches_reference_on_eleven_part_root(wide_root, data):
    """Queues item by item, every DispersionStats field, and the kernel's row cells
    and held cells match the reference loop.

    Loads up to 8 grow the matchings' transfer-plan memo in mid-replay, and an
    entry that piles all its tokens into one part makes that part's cells send
    over several partner slots at once.
    """
    parts = [sorted(part.vertices) for part in wide_root.parts]
    part_sizes = [len(vertices) for vertices in parts]
    states = []
    for entry in range(data.draw(st.integers(min_value=1, max_value=32))):
        load = data.draw(st.integers(min_value=1, max_value=8))
        marks = data.draw(
            st.lists(st.integers(0, len(parts) - 1), min_size=1, max_size=len(parts), unique=True)
        )
        pile = data.draw(st.none() | st.integers(0, len(parts) - 1))
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**16)))
        state = DispersionState(len(parts))
        for part_index, vertices in enumerate(parts):
            for vertex in vertices:
                for copy_index in range(rng.randint(0, load)):
                    queue = part_index if pile is None else pile
                    state.add(queue, rng.choice(marks), (entry, vertex, copy_index))
        states.append(state)
    flatten_quality = wide_root.flatten_quality()
    expected_states = copy.deepcopy(states)
    with kernel("reference"):
        expected = [
            disperse(state, wide_root.shuffler, part_sizes, 2, flatten_quality)
            for state in expected_states
        ]

    # The kernel itself, on rows laid out as disperse_many lays them out.
    t = len(parts)
    union_marks = sorted(set().union(*(state.marks() for state in states)), key=repr)
    m = max(len(union_marks), 1)

    def cells(per_state):
        return [
            ((entry * t + part) * m + union_marks.index(mark), queue)
            for entry, state in enumerate(per_state)
            for part, per_mark in state.queues.items()
            for mark, queue in per_mark.items()
        ]

    queued = sorted(cells(states), key=lambda item: item[0])
    items = [item for _, queue in queued for item in queue]
    dispersal = disperse_many_numpy(
        np.array([cell for cell, queue in queued for _ in queue], dtype=np.int64),
        (len(states), t, m),
        wide_root.shuffler,
        part_sizes,
        flatten_quality,
    )
    final = sorted(cells(expected_states), key=lambda item: item[0])
    assert [items[row] for row in dispersal.order] == [item for _, queue in final for item in queue]
    assert dispersal.row_cell.tolist() == [cell for cell, queue in final for _ in queue]
    # A queue key survives once its cell has held items.
    assert np.flatnonzero(dispersal.held).tolist() == [cell for cell, _ in final]

    solo_state = copy.deepcopy(states[0])
    with kernel("numpy"):
        fused = disperse_many(
            states, wide_root.shuffler, part_sizes, [2] * len(states), flatten_quality
        )
        solo = disperse(solo_state, wide_root.shuffler, part_sizes, 2, flatten_quality)
    assert fused == expected
    assert [_queues(state) for state in states] == [_queues(state) for state in expected_states]
    assert solo == expected[0]
    assert _queues(solo_state) == _queues(expected_states[0])


@given(
    st.lists(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=5),
            min_size=1,
            max_size=6,
        ),
        min_size=2,
        max_size=5,
    )
)
def test_schedule_token_batches_matches_solo(batches_raw):
    batches = []
    for raw_batch in batches_raw:
        tokens = []
        for index, raw in enumerate(raw_batch):
            path = [raw[0]]
            for vertex in raw[1:]:
                if vertex != path[-1]:
                    path.append(vertex)
            tokens.append(ScheduledToken(token_id=index, path=tuple(path)))
        batches.append(tokens)
    set_kernel("numpy")
    try:
        fused = schedule_token_batches(batches)
    finally:
        set_kernel(None)
    solo = [schedule_tokens_along_paths(batch) for batch in batches]
    for got, expected in zip(fused, solo):
        assert got.rounds == expected.rounds
        assert got.congestion == expected.congestion
        assert got.dilation == expected.dilation
        assert got.arrival_round == expected.arrival_round


def _submit_all(service, graph, workloads, plan):
    for requests in workloads:
        service.submit(graph, requests, plan=plan)
    return service.route_batch()


def _service_signatures(plan, graph, workloads):
    with RoutingService(metrics=MetricsRegistry()) as service:
        warm = _submit_all(service, graph, workloads, plan)
        repeat = _submit_all(service, graph, workloads, plan)
    return warm.signature(), repeat.signature()


@pytest.mark.parametrize(
    "variant",
    [ExecutionPlan(backend="deterministic", fused=True)],
    ids=["threads-fused"],
)
def test_service_fused_signature_parity(variant):
    """BatchReport.signature() is identical across fused/sequential and transports."""
    graph = nx.random_regular_graph(4, 48, seed=5)
    nodes = sorted(graph.nodes())
    workloads = []
    for seed in range(3):
        rng = random.Random(seed)
        destinations = nodes[:]
        rng.shuffle(destinations)
        workloads.append(
            [RoutingRequest(source=s, destination=d) for s, d in zip(nodes, destinations)]
        )
    baseline = ExecutionPlan(backend="deterministic")
    expected = _service_signatures(baseline, graph, workloads)
    assert _service_signatures(variant, graph, workloads) == expected


def test_fused_plan_is_physical_not_semantic():
    """Fusion changes the physical plan id only."""
    plain = ExecutionPlan(backend="deterministic")
    fused = ExecutionPlan(backend="deterministic", fused=True)
    assert plain.semantic_id == fused.semantic_id
    assert plain.plan_id != fused.plan_id
