"""Correctness: replay a seeded sample of served queries on the reference kernel.

Every served query must already have delivered all its tokens.  On top of
that, a sample (a few graphs, a few queries each) is routed again, untimed,
through a bare :class:`~repro.ExpanderRouter` under ``kernel("reference")``;
its ``delivered``, ``query_rounds`` and preprocessing rounds must equal what
the cluster reported, exactly.
"""

from __future__ import annotations

import random

from repro import ExpanderRouter
from repro.kernels import kernel

from perfbench.scenarios import EPSILON, Query

__all__ = ["replay_sample"]


def replay_sample(
    queries: list[Query],
    graphs: list,
    rng: random.Random,
    max_graphs: int = 3,
    per_graph: int = 8,
) -> tuple[int, list[Query]]:
    """Replay up to ``max_graphs * per_graph`` served queries; return (checked, mismatched).

    Mismatched queries are marked failed (``query.error``).
    """
    by_graph: dict[int, list[Query]] = {}
    for query in queries:
        if query.ok:
            by_graph.setdefault(query.graph, []).append(query)
    chosen = rng.sample(sorted(by_graph), min(max_graphs, len(by_graph)))
    checked = 0
    mismatched: list[Query] = []
    with kernel("reference"):
        for index in chosen:
            router = ExpanderRouter(graphs[index], epsilon=EPSILON)
            router.preprocess()
            sample = by_graph[index]
            for query in rng.sample(sample, min(per_graph, len(sample))):
                expected = router.route(query.requests, load=query.load)
                served = query.outcome
                checked += 1
                if (
                    expected.delivered,
                    expected.query_rounds,
                    expected.preprocessing_rounds,
                ) != (served.delivered, served.query_rounds, served.preprocess_rounds):
                    query.error = "reference replay mismatch"
                    mismatched.append(query)
    return checked, mismatched
