"""E1 (Theorem 1.1): preprocessing/query tradeoff.

Regenerates the tradeoff table: for each epsilon, the preprocessing round
cost, the per-query round cost, and the amortized cost over a batch of
queries.  The paper's claim: queries cost ``L * log^{O(1/eps)} n`` rounds
(cheaper for larger epsilon) while preprocessing costs
``n^{O(eps)} + log^{O(1/eps)} n`` (more expensive for larger epsilon), and
reusing the preprocessing across queries beats rebuilding it per query.
"""

import pytest

from repro.analysis.experiments import permutation_requests
from repro.analysis.reporting import format_table
from repro.core.router import ExpanderRouter
from repro.graphs.generators import random_regular_expander

EPSILONS = [0.34, 0.5, 0.7]
QUERIES = 3


def _measure(epsilon: float) -> dict:
    graph = random_regular_expander(128, degree=8, seed=1)
    router = ExpanderRouter(graph, epsilon=epsilon)
    summary = router.preprocess()
    requests = permutation_requests(graph, load=2)
    query_rounds = [router.route(requests).query_rounds for _ in range(QUERIES)]
    mean_query = sum(query_rounds) / len(query_rounds)
    return {
        "epsilon": epsilon,
        "preprocess_rounds": summary.rounds,
        "query_rounds": mean_query,
        "amortized_with_reuse": summary.rounds / QUERIES + mean_query,
        "rebuild_per_query": summary.rounds + mean_query,
        "levels": summary.hierarchy_levels,
    }


@pytest.mark.parametrize("epsilon", EPSILONS)
def test_tradeoff_point(benchmark, epsilon):
    row = benchmark.pedantic(_measure, args=(epsilon,), rounds=1, iterations=1)
    # Reusing preprocessing always beats rebuilding it for every query.
    assert row["amortized_with_reuse"] < row["rebuild_per_query"]


def test_tradeoff_direction_across_epsilon(benchmark):
    def run():
        return [_measure(epsilon) for epsilon in EPSILONS]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n[E1] preprocessing/query tradeoff (n=128, L=2)")
    print(format_table(rows))
    # Shape: the largest epsilon has the cheapest queries of the sweep.
    cheapest_query = min(rows, key=lambda row: row["query_rounds"])
    assert cheapest_query["epsilon"] == max(EPSILONS)
    # Between the two epsilons with the same hierarchy depth (where the n^eps
    # component of preprocessing is comparable), raising epsilon buys cheaper
    # queries at the price of more preprocessing — the Theorem 1.1 direction.
    # (At small n a *smaller* epsilon can still have the globally largest
    # preprocessing because its deeper hierarchy dominates.)
    same_depth = [row for row in rows if row["levels"] == rows[-1]["levels"]]
    if len(same_depth) >= 2:
        lower, higher = same_depth[0], same_depth[-1]
        assert higher["preprocess_rounds"] > lower["preprocess_rounds"]
        assert higher["query_rounds"] <= lower["query_rounds"]
