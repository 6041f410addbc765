"""E11: ablations of design choices, two of them README "Deviations from the paper" items.

Three ablations:

* shuffler/preprocessing reuse vs rebuild-per-query (the feature CS20 lacks);
* sorting-network choice: Batcher odd-even vs bitonic vs odd-even transposition
  (the "AKS substitute" decision — depth drives the leaf/query polylog);
* dummy-token multiplicity in Task 3 (the paper's 2L vs an undersized 1L),
  measured by how often the merge needs the fallback placement.
"""

import pytest

from repro.analysis.experiments import permutation_requests
from repro.analysis.reporting import format_table
from repro.baselines.cs20_model import RebuildPerQueryRouter
from repro.core.cost import CostLedger
from repro.core.merge import solve_task3
from repro.core.router import ExpanderRouter
from repro.core.tokens import Token
from repro.cutmatching.game import build_shuffler
from repro.graphs.generators import random_regular_expander
from repro.hierarchy.builder import HierarchyParameters, build_hierarchy
from repro.sorting.networks import batcher_odd_even_network, bitonic_network, insertion_network


def test_ablation_reuse_vs_rebuild(benchmark):
    def run():
        graph = random_regular_expander(96, degree=8, seed=7)
        requests = permutation_requests(graph, load=2)
        ours = ExpanderRouter(graph, epsilon=0.5)
        summary = ours.preprocess()
        reuse_rounds = ours.route(requests).query_rounds
        rebuild_rounds = RebuildPerQueryRouter(graph, epsilon=0.5).route(requests).query_rounds
        return {
            "preprocess_rounds": summary.rounds,
            "query_rounds_with_reuse": reuse_rounds,
            "query_rounds_rebuild_per_query": rebuild_rounds,
            "speedup": rebuild_rounds / max(reuse_rounds, 1),
        }

    row = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n[E11a] preprocessing reuse vs rebuild-per-query")
    print(format_table([row]))
    assert row["query_rounds_with_reuse"] < row["query_rounds_rebuild_per_query"]


def test_ablation_sorting_network_depth(benchmark):
    def run():
        rows = []
        for name, factory in (
            ("batcher", batcher_odd_even_network),
            ("bitonic", bitonic_network),
            ("odd-even-transposition", insertion_network),
        ):
            network = factory(256)
            rows.append(
                {"network": name, "depth": network.depth, "comparators": network.comparator_count}
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n[E11b] sorting-network ablation (n=256)")
    print(format_table(rows))
    depths = {row["network"]: row["depth"] for row in rows}
    assert depths["batcher"] < depths["odd-even-transposition"]


@pytest.mark.parametrize("dummies_per_vertex_factor", [1, 2])
def test_ablation_dummy_token_multiplicity(benchmark, dummies_per_vertex_factor):
    def run():
        graph = random_regular_expander(128, degree=8, seed=1)
        decomposition = build_hierarchy(graph, HierarchyParameters(epsilon=0.5))
        root = decomposition.root
        parts = [sorted(part.vertices) for part in root.parts]
        root.shuffler = build_shuffler(root.virtual_graph, parts, psi=0.1)
        load = 2
        t = len(root.parts)
        tokens = []
        for index, vertex in enumerate(sorted(root.vertices)):
            for slot in range(load):
                token = Token(token_id=index * load + slot, source=vertex, destination=vertex)
                token.part_mark = (vertex * 7 + slot * 13) % t
                tokens.append(token)
        result = solve_task3(
            root,
            tokens,
            load=load,
            ledger=CostLedger(),
            dummies_per_vertex=dummies_per_vertex_factor * load,
        )
        return {
            "dummies_per_vertex": dummies_per_vertex_factor * load,
            "fallback_assignments": result.fallback_assignments,
            "tokens": len(tokens),
        }

    row = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n[E11c] dummy-token multiplicity ablation")
    print(format_table([row]))
    if row["dummies_per_vertex"] >= 4:
        # The paper's 2L dummies make fallbacks (essentially) disappear.
        assert row["fallback_assignments"] <= row["tokens"] * 0.05
