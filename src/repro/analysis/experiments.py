"""Experiment runners shared by the benchmark suite and the examples.

Each function runs one of the paper's experiments (E1, E2, ... as numbered in
the ``benchmarks/bench_*.py`` docstrings) on a given parameter point and
returns a plain dict of measurements, so the same code path feeds
pytest-benchmark, the examples, and the results tables.
"""

from __future__ import annotations

import time

import networkx as nx

from repro.baselines import (
    cs20_predicted_rounds,
    gks_predicted_rounds,
    route_directly,
    route_randomized,
)
from repro.core.router import ExpanderRouter
from repro.core.tokens import RoutingRequest
from repro.graphs.generators import random_regular_expander
from repro.workloads import multi_token_workload, shifted_destination

__all__ = [
    "permutation_requests",
    "run_tradeoff_point",
    "run_single_instance_comparison",
    "shifted_destination",
]


def permutation_requests(graph: nx.Graph, load: int) -> list[RoutingRequest]:
    """A load-``L`` routing instance: ``L`` disjoint permutations of the vertices.

    Thin wrapper over :func:`repro.workloads.multi_token_workload`, kept for
    the experiment drivers' historical API.
    """
    return list(multi_token_workload(graph, load=load).requests)


def run_tradeoff_point(
    n: int, epsilon: float, load: int = 2, queries: int = 4, degree: int = 8, seed: int = 1
) -> dict:
    """One point of experiment E1: preprocessing cost vs per-query cost."""
    graph = random_regular_expander(n, degree=degree, seed=seed)
    router = ExpanderRouter(graph, epsilon=epsilon)
    start = time.perf_counter()
    summary = router.preprocess()
    preprocess_seconds = time.perf_counter() - start

    query_rounds: list[int] = []
    delivered = 0
    total = 0
    start = time.perf_counter()
    for query_index in range(queries):
        requests = permutation_requests(graph, load)
        outcome = router.route(requests)
        query_rounds.append(outcome.query_rounds)
        delivered += outcome.delivered
        total += outcome.total_tokens
    query_seconds = time.perf_counter() - start

    return {
        "n": n,
        "epsilon": epsilon,
        "load": load,
        "queries": queries,
        "preprocess_rounds": summary.rounds,
        "mean_query_rounds": sum(query_rounds) / len(query_rounds),
        "amortized_rounds_per_query": summary.rounds / queries + sum(query_rounds) / queries,
        "all_delivered": delivered == total,
        "hierarchy_levels": summary.hierarchy_levels,
        "preprocess_seconds": preprocess_seconds,
        "query_seconds": query_seconds,
    }


def run_single_instance_comparison(
    n: int, epsilon: float = 0.5, load: int = 2, degree: int = 8, seed: int = 1
) -> dict:
    """One point of experiment E2: ours vs baselines on a single routing instance."""
    graph = random_regular_expander(n, degree=degree, seed=seed)
    requests = permutation_requests(graph, load)

    router = ExpanderRouter(graph, epsilon=epsilon)
    summary = router.preprocess()
    ours = router.route(requests)

    naive = route_directly(graph, requests)
    randomized = route_randomized(graph, requests, seed=seed)

    return {
        "n": n,
        "epsilon": epsilon,
        "load": load,
        "ours_query_rounds": ours.query_rounds,
        "ours_total_rounds": ours.query_rounds + summary.rounds,
        "ours_delivered": ours.all_delivered,
        "naive_rounds": naive.rounds,
        "naive_congestion": naive.congestion,
        "randomized_rounds": randomized.rounds,
        "cs20_predicted": cs20_predicted_rounds(n),
        "gks_predicted": gks_predicted_rounds(n),
    }
