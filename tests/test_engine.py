"""The array engine against the object recursion of the reference kernel.

Under the numpy kernel, ``route`` and ``route_many`` carry every token as a
row of flat arrays and build a query's :class:`Token` objects only when its
``outcome.tokens`` is first read; under
``kernel("reference")`` they walk ``_solve_task2``/``solve_task3``/
``disperse``/``route_in_leaf`` over objects.  These tests pin the paths the
fused hypothesis suite does not reach: hierarchies with bad vertices, Task 3
fallbacks on wide nodes, the token order on ties and under ``repr`` order,
and error parity.
"""

from __future__ import annotations

import os
import pickle
import random
import sys
import threading
import time

import networkx as nx
import numpy as np
import pytest

from repro.backends.adapters import DeterministicBackend
from repro.cluster import DEFAULT_WORKLOAD_MIX
from repro.core.cost import CostLedger
from repro.core.general import GeneralGraphRouter
from repro.core.merge import solve_task3, solve_task3_many
from repro.core import router as router_module
from repro.core.router import ExpanderRouter
from repro.core.tables import node_table, vertex_index
from repro.core.tokens import RoutingRequest, Token, tokens_from_requests
from repro.graphs.generators import random_regular_expander, skewed_degree_expander
from repro.hierarchy.best import build_best_index
from repro.kernels import kernel
from repro.workloads import make_workload


def _facts(outcome):
    """Every field of a RoutingOutcome; tokens compare whole."""
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
        sorted(outcome.tokens, key=lambda token: token.token_id),
    )


def _with_payloads(requests, tag):
    return [
        RoutingRequest(request.source, request.destination, payload=(tag, position))
        for position, request in enumerate(requests)
    ]


def _demote_bad_vertices(router):
    """Turn the top vertex of every leaf child into a bad vertex of its part.

    The builder only makes bad vertices when a block's cut-matching game
    cannot saturate, which the test graphs never trigger, so Property
    3.1(3)'s bad-to-good walk is exercised on a rewired copy: the vertex
    leaves the child (and the best vertices) but stays in its part, so the
    part's shuffler is unchanged.  Odd parts get no matching entry, which
    sends their bad vertices to the part's smallest good vertex.
    """
    demoted = 0
    for node in router.decomposition.all_nodes():
        for part in node.parts:
            child = part.child
            if child is None or not child.is_leaf or child.size < 3:
                continue
            vertex = max(child.vertices)
            child.vertices = child.vertices - {vertex}
            part.good_vertices = part.good_vertices - {vertex}
            part.bad_vertices = part.bad_vertices | {vertex}
            if part.index % 2 == 0:
                part.matching[vertex] = min(part.good_vertices)
            demoted += 1
    router.best_index = router.artifact.best_index = build_best_index(router.decomposition)
    return demoted


@pytest.fixture(
    scope="module",
    params=[(96, 7, 0.34), (160, 2, 0.5)],
    ids=["n96-deep", "n160-wide"],
)
def bad_router(request):
    n, seed, epsilon = request.param
    router = ExpanderRouter(random_regular_expander(n, degree=8, seed=seed), epsilon=epsilon)
    router.preprocess()
    assert router.decomposition.levels() >= 3
    assert _demote_bad_vertices(router) > 0
    return router


def _load_two_workloads(graph):
    return [
        _with_payloads(make_workload("multi-token", graph, load=2).requests, "multi"),
        _with_payloads(make_workload("hotspot", graph, load=2, seed=5).requests, "hot"),
        _with_payloads(make_workload("permutation", graph, shift=7).requests, "perm"),
    ]


def test_route_matches_reference_with_bad_vertices(bad_router):
    groups = _load_two_workloads(bad_router.graph)
    with kernel("numpy"):
        solo = [bad_router.route(group, load=2) for group in groups]
        fused = bad_router.route_many(groups, [2] * len(groups))
        # The process-pool reply path: a whole result list pickled unread.
        revived = pickle.loads(pickle.dumps(fused))
    with kernel("reference"):
        reference = [bad_router.route(group, load=2) for group in groups]
    expected = [_facts(outcome) for outcome in reference]
    assert [_facts(outcome) for outcome in solo] == expected
    assert [_facts(outcome) for outcome in fused] == expected
    assert [_facts(outcome) for outcome in revived] == expected
    assert fused == reference and revived == reference
    assert all(outcome.all_delivered for outcome in solo)
    traces = [phase for outcome in solo for token in outcome.tokens for phase in token.trace]
    assert any(phase.startswith("bad-to-good-L") for phase in traces)
    assert any(phase == "leaf" for phase in traces)


@pytest.fixture(scope="module")
def warm_router():
    """The warm-fused benchmark's shape: a preprocessed random 8-regular n=128 expander."""
    router = ExpanderRouter(random_regular_expander(128, degree=8, seed=3), epsilon=0.5)
    router.preprocess()
    return router


def _warm_fused_batch(graph, seed=1, per_shape=4):
    """16 same-graph queries: ``per_shape`` varied instances of each default mix shape."""
    rng = random.Random(seed)
    groups, loads = [], []
    for name, params in DEFAULT_WORKLOAD_MIX:
        for _ in range(per_shape):
            varied = dict(params)
            if name == "permutation":
                varied["shift"] = rng.randrange(1, len(graph))
            elif name == "hotspot":
                varied["seed"] = rng.randrange(1 << 30)
            workload = make_workload(name, graph, **varied)
            groups.append(_with_payloads(workload.requests, (name, len(groups))))
            loads.append(workload.load)
    return groups, loads


def test_route_many_builds_tokens_only_when_read(warm_router, monkeypatch):
    groups, loads = _warm_fused_batch(warm_router.graph)
    built = []
    init = Token.__init__

    def spy(token, *args, **kwargs):
        init(token, *args, **kwargs)
        built.append(token)

    monkeypatch.setattr(Token, "__init__", spy)
    with kernel("numpy"):
        outcomes = warm_router.route_many(groups, loads)
    assert built == []
    assert [outcome.total_tokens for outcome in outcomes] == [len(group) for group in groups]
    assert all(outcome.all_delivered for outcome in outcomes)

    tokens = outcomes[9].tokens
    assert outcomes[9].tokens is tokens  # cached: the second read builds nothing
    assert len(built) == len(tokens) == len(groups[9])
    assert all(made is token for made, token in zip(built, tokens))

    monkeypatch.undo()
    with kernel("reference"):
        expected = warm_router.route(groups[9], loads[9])
    assert _facts(outcomes[9]) == _facts(expected)


def test_lazy_tokens_match_reference_through_every_reader(warm_router):
    """Pickled results, ``RouteResult.tokens`` and the general-graph router."""
    groups, loads = _warm_fused_batch(warm_router.graph, seed=2, per_shape=1)
    backend = DeterministicBackend(warm_router.graph, router=warm_router)
    with kernel("numpy"):
        results = backend.route_many(groups, loads)
        revived = pickle.loads(pickle.dumps(results))
    with kernel("reference"):
        reference = [warm_router.route(group, load) for group, load in zip(groups, loads)]
    for result, copied, expected in zip(results, revived, reference):
        assert result.tokens == copied.tokens == expected.tokens
        assert result.raw == copied.raw == expected

    general = GeneralGraphRouter(skewed_degree_expander(48, hub_count=2, degree=6, seed=5))
    general.preprocess()
    n = general.graph.number_of_nodes()
    requests = [
        RoutingRequest(vertex, (vertex * 5 + copy + 1) % n, payload=copy)
        for vertex in sorted(general.graph.nodes())
        for copy in range(1 + general.graph.degree(vertex) // 12)
    ]
    with kernel("numpy"):
        lazy = general.route(requests)
    with kernel("reference"):
        eager = general.route(requests)
    assert _facts(lazy) == _facts(eager)
    assert lazy.delivered == lazy.total_tokens == len(requests)


@pytest.fixture(scope="module")
def wide_router():
    """n=128, 8-regular: an 11-part root, so mark 10 sorts before 2 under repr."""
    router = ExpanderRouter(random_regular_expander(128, degree=8, seed=1), epsilon=0.5)
    router.preprocess()
    assert len(router.decomposition.root.parts) >= 11
    return router


def _marked_tokens(router, seed):
    """Two tokens per vertex, marks drawn from every part (10 and 2 included)."""
    root = router.decomposition.root
    rng = random.Random(seed)
    t = len(root.parts)
    tokens = []
    for vertex in sorted(router.graph.nodes()):
        for _ in range(2):
            mark = rng.choice([2, 10, rng.randrange(t)])
            tokens.append(Token(len(tokens), vertex, vertex, current_vertex=vertex, part_mark=mark))
    return tokens


def test_task3_fallbacks_match_reference_on_an_eleven_part_node(wide_router):
    """One dummy per vertex under load 2 forces fallbacks in repr mark order."""
    root = wide_router.decomposition.root
    index = vertex_index(wide_router.decomposition, wide_router.best_index)
    table = node_table(root, index)
    groups = [_marked_tokens(wide_router, seed) for seed in (1, 2)]
    with kernel("reference"):
        expected = [
            solve_task3(root, tokens, 2, CostLedger(), dummies_per_vertex=1) for tokens in groups
        ]
    rows = [token for tokens in groups for token in tokens]
    batch = solve_task3_many(
        root,
        table,
        np.repeat(np.arange(len(groups)), [len(tokens) for tokens in groups]),
        np.array([index.index_of[token.current_vertex] for token in rows]),
        np.array([token.part_mark for token in rows]),
        np.array([2, 2]),
        np.array([token.token_id for token in rows]),
        dummies_per_vertex=1,
    )
    placed = [index.vertices[vertex] for vertex in batch.vertex.tolist()]
    start = 0
    for query, (tokens, result) in enumerate(zip(groups, expected)):
        got = {token.token_id: placed[start + k] for k, token in enumerate(tokens)}
        start += len(tokens)
        assert got == result.assignments
        assert result.fallback_assignments > 0
        assert int(batch.fallback_assignments[query]) == result.fallback_assignments
        assert int(batch.rounds[query]) == result.rounds


@pytest.fixture(scope="module")
def small_router():
    router = ExpanderRouter(nx.random_regular_graph(4, 48, seed=3), epsilon=0.5)
    router.preprocess()
    assert len(router.decomposition.root.parts) >= 2
    return router


def _tie_heavy_requests(graph, seed):
    """multi-token requests plus repeated (source, destination) pairs, shuffled."""
    requests = list(make_workload("multi-token", graph, load=2).requests)
    requests += requests[:: len(requests) // 6]
    requests = _with_payloads(requests, "tie")
    random.Random(seed).shuffle(requests)
    return requests


@pytest.mark.parametrize("relabel", [None, str, lambda v: (v % 7, v)], ids=["int", "str", "tuple"])
def test_token_order_matches_tokens_from_requests(small_router, relabel):
    """Ties keep input order, and 10 sorts before 9 (repr order, not vertex order)."""
    router = small_router
    if relabel is not None:
        graph = nx.relabel_nodes(small_router.graph, relabel)
        router = ExpanderRouter(graph, epsilon=0.5)
        router.preprocess()
    requests = _tie_heavy_requests(router.graph, seed=4)
    with kernel("numpy"):
        outcome = router.route(requests)
    expected = tokens_from_requests(requests)
    got = sorted(outcome.tokens, key=lambda token: token.token_id)
    assert [(t.token_id, t.source, t.destination, t.payload) for t in got] == [
        (t.token_id, t.source, t.destination, t.payload) for t in expected
    ]
    with kernel("reference"):
        assert _facts(router.route(requests)) == _facts(outcome)


def _error(call):
    with pytest.raises(Exception) as caught:
        call()
    return type(caught.value), str(caught.value)


def _bad_groups(graph):
    nodes = sorted(graph.nodes())
    good = [RoutingRequest(s, d) for s, d in zip(nodes, nodes[1:] + nodes[:1])]
    stray_source = [RoutingRequest("nowhere", nodes[0])] + good[1:]
    stray_destination = good[:-1] + [RoutingRequest(nodes[-1], "nowhere")]
    return good, {
        "source-outside": (stray_source, None),
        "destination-outside": (stray_destination, None),
        "load-too-small": (list(make_workload("multi-token", graph, load=2).requests), 1),
    }


@pytest.mark.parametrize("case", ["source-outside", "destination-outside", "load-too-small"])
def test_errors_match_reference(small_router, case):
    good, cases = _bad_groups(small_router.graph)
    bad, load = cases[case]
    calls = {
        "route": lambda: small_router.route(bad, load),
        "bad-first": lambda: small_router.route_many([bad, good], [load, None]),
        "bad-second": lambda: small_router.route_many([good, bad], [None, load]),
    }
    for name, call in calls.items():
        with kernel("reference"):
            expected = _error(call)
        with kernel("numpy"):
            assert _error(call) == expected, name


def test_route_many_raises_the_first_failing_query(small_router):
    """A routing error in query 0 wins over a validation error in query 1."""
    good, cases = _bad_groups(small_router.graph)
    groups = [cases["source-outside"][0], cases["destination-outside"][0], good]
    with kernel("reference"):
        expected = _error(lambda: small_router.route_many(groups))
    with kernel("numpy"):
        assert _error(lambda: small_router.route_many(groups)) == expected
    assert "not located" in expected[1]


def test_engine_calls_never_overlap_across_threads(small_router, warm_router, monkeypatch):
    """More threads than cores, routing on two routers, take turns in the array engine."""
    both = [
        (small_router, [list(make_workload("multi-token", small_router.graph, load=2).requests)]),
        (warm_router, _warm_fused_batch(warm_router.graph, seed=2, per_shape=1)[0]),
    ]
    jobs = [both[slot % 2] for slot in range((os.cpu_count() or 1) + 1)]
    with kernel("numpy"):
        expected = [[_facts(o) for o in router.route_many(groups)] for router, groups in jobs]

    inside, overlaps = [], []
    engine = ExpanderRouter._route_arrays

    def spy(router, *args, **kwargs):
        inside.append(router)
        overlaps.append(len(inside))
        time.sleep(0.02)  # a wide window for another thread to enter
        try:
            return engine(router, *args, **kwargs)
        finally:
            inside.remove(router)

    monkeypatch.setattr(ExpanderRouter, "_route_arrays", spy)
    start = threading.Barrier(len(jobs))
    results: list = [None] * len(jobs)

    def work(slot, router, groups):
        start.wait()
        results[slot] = [
            [_facts(o) for o in router.route_many(groups)],
            [_facts(router.route(group)) for group in groups[:1]],
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with kernel("numpy"):
            threads = [
                threading.Thread(target=work, args=(slot, router, groups))
                for slot, (router, groups) in enumerate(jobs)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(overlaps) == 2 * len(jobs) and max(overlaps) == 1
    assert [fused for fused, _ in results] == expected
    assert [solo for _, solo in results] == [facts[:1] for facts in expected]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_gets_a_free_engine_lock():
    """A fork while the engine runs must not leave the child's lock held."""
    with router_module._ENGINE_LOCK:
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child process
            os._exit(0 if router_module._ENGINE_LOCK.acquire(blocking=False) else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
