"""Tests for the hierarchical decomposition (Property 3.1, Theorem 3.2, Appendix D)."""

import networkx as nx
import pytest

from repro.graphs.conductance import spectral_gap
from repro.graphs.generators import random_regular_expander
from repro.graphs.index import GraphIndex
from repro.hierarchy.best import best_counts_per_part, build_best_index, locate_best_rank
from repro.hierarchy.builder import (
    HierarchyParameters,
    build_hierarchy,
    embed_virtual_expander,
)


def test_build_hierarchy_rejects_disconnected_graph():
    graph = nx.Graph()
    graph.add_edges_from([(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        build_hierarchy(graph)


def test_hierarchy_levels_bounded_by_one_over_epsilon(hierarchy):
    # O(1/epsilon) levels; with epsilon = 0.5 a 96-vertex graph needs <= 4.
    assert hierarchy.levels() <= 4


def test_hierarchy_parts_partition_each_internal_node(hierarchy):
    for node in hierarchy.all_nodes():
        if node.is_leaf:
            continue
        covered = set()
        for part in node.parts:
            assert not (covered & part.vertices)
            covered |= part.vertices
        assert covered == set(node.vertices)


def test_hierarchy_parts_are_id_contiguous(hierarchy):
    # Property 3.1(1): parts can be ordered so their ID ranges do not interleave.
    for node in hierarchy.all_nodes():
        if node.is_leaf:
            continue
        previous_max = None
        for part in node.parts:
            lo, hi = min(part.vertices), max(part.vertices)
            if previous_max is not None:
                assert lo > previous_max
            previous_max = hi


def test_hierarchy_part_sizes_are_balanced(hierarchy):
    # Property 3.1(1): |X*_i| within [|X|/(3k), 6|X|/k].
    for node in hierarchy.all_nodes():
        if node.is_leaf or not node.parts:
            continue
        k = len(node.parts)
        for part in node.parts:
            assert part.size >= len(node.vertices) / (3 * k) - 1
            assert part.size <= 6 * len(node.vertices) / k + 1


def test_hierarchy_virtual_graphs_are_connected_with_positive_gap(hierarchy):
    for node in hierarchy.all_nodes():
        if node.virtual_graph.number_of_nodes() <= 1:
            continue
        assert nx.is_connected(node.virtual_graph)
        if node.virtual_graph.number_of_nodes() >= 4:
            assert spectral_gap(node.virtual_graph) > 0.0


def test_hierarchy_embeddings_map_into_parent_virtual_graph(hierarchy):
    for node in hierarchy.all_nodes():
        for child in node.children:
            for (u, v), path in child.embedding_to_parent.mapping.items():
                for a, b in zip(path.vertices, path.vertices[1:]):
                    assert node.virtual_graph.has_edge(a, b)


def test_hierarchy_bad_vertices_are_matched_to_good(hierarchy):
    # Property 3.1(3): |X'_i| <= |X_i| and every bad vertex has a good mate.
    for node in hierarchy.all_nodes():
        for part in node.parts:
            assert len(part.bad_vertices) <= len(part.good_vertices)
            for vertex in part.bad_vertices:
                assert part.matching[vertex] in part.good_vertices


def test_flatten_quality_grows_monotonically_with_depth(hierarchy):
    # Corollary 3.4: the flatten quality is the product of per-level qualities,
    # so a child's flattened quality is at least its parent's.
    for node in hierarchy.all_nodes():
        for child in node.children:
            assert child.flatten_quality() >= node.flatten_quality()


def test_flatten_embedding_paths_live_in_the_original_graph(hierarchy):
    # Check on one leaf: fully flattened virtual edges are paths of G.
    leaf = hierarchy.leaves()[0]
    flattened = hierarchy.flatten_embedding(leaf)
    for (u, v), path in list(flattened.mapping.items())[:20]:
        for a, b in zip(path.vertices, path.vertices[1:]):
            assert hierarchy.graph.has_edge(a, b)


def test_flatten_embedding_walks_three_levels_and_rejects_foreign_nodes():
    decomposition = build_hierarchy(random_regular_expander(256, degree=8, seed=0))
    assert decomposition.levels() == 3
    for node in decomposition.all_nodes():
        flattened = decomposition.flatten_embedding(node)
        if node is not decomposition.root:
            assert set(flattened.mapping) == set(node.embedding_to_parent.mapping)
        for path in list(flattened.mapping.values())[:10]:
            for a, b in zip(path.vertices, path.vertices[1:]):
                assert decomposition.graph.has_edge(a, b)
    with pytest.raises(ValueError, match="not part of this decomposition"):
        decomposition.flatten_embedding(build_hierarchy(decomposition.graph).leaves()[0])


def test_best_vertices_cover_and_rho_best(hierarchy):
    best = hierarchy.best_vertices()
    assert best == sorted(best)
    assert len(best) >= len(hierarchy.graph) / 4
    assert hierarchy.rho_best() <= 8  # 2^{O(1/epsilon)} with epsilon = 0.5


def test_best_index_delegation_is_balanced(hierarchy):
    index = build_best_index(hierarchy)
    assert set(index.delegate_of) == set(hierarchy.graph.nodes())
    n = hierarchy.graph.number_of_nodes()
    assert index.max_delegation_load() <= -(-n // index.size)  # ceil(n / |Vbest|)


def test_locate_best_rank_is_consistent_with_global_order(hierarchy):
    root = hierarchy.root
    best = root.best_vertices()
    counts = best_counts_per_part(root)
    assert sum(counts) == len(best)
    for marker in range(0, len(best), max(1, len(best) // 10)):
        part_index, remainder = locate_best_rank(root, marker)
        child = root.parts[part_index].child
        assert child is not None
        assert child.best_vertices()[remainder] == best[marker]
    with pytest.raises(IndexError):
        locate_best_rank(root, len(best))


def _linear_locate(counts, marker):
    """The straightforward marker rewrite: scan the parts' best counts in order."""
    remaining = marker
    for index, count in enumerate(counts):
        if remaining < count:
            return index, remaining
        remaining -= count
    raise IndexError(marker)


@pytest.mark.parametrize(
    ("n", "seed", "epsilon"), [(96, 7, 0.34), (160, 2, 0.5)], ids=["n96-deep", "n160-wide"]
)
def test_locate_best_rank_matches_linear_scan_on_every_internal_node(n, seed, epsilon):
    decomposition = build_hierarchy(
        random_regular_expander(n, degree=8, seed=seed), HierarchyParameters(epsilon=epsilon)
    )
    internal = [node for node in decomposition.all_nodes() if not node.is_leaf]
    assert len(internal) > 1
    for node in internal:
        counts = best_counts_per_part(node)
        for marker in range(sum(counts)):
            assert locate_best_rank(node, marker) == _linear_locate(counts, marker)
        with pytest.raises(IndexError):
            locate_best_rank(node, sum(counts))


def test_embed_virtual_expander_produces_connected_low_degree_graph(regular_expander):
    params = HierarchyParameters(epsilon=0.5)
    block = sorted(regular_expander.nodes())[:24]
    result = embed_virtual_expander(GraphIndex.of(regular_expander), block, params)
    assert nx.is_connected(result.virtual_graph)
    max_degree = max(degree for _, degree in result.virtual_graph.degree())
    assert max_degree <= result.iterations + 2
    for (u, v), path in result.embedding.mapping.items():
        assert path.source in (u, v) and path.target in (u, v)


def test_epsilon_controls_branching(regular_expander):
    wide = build_hierarchy(regular_expander, HierarchyParameters(epsilon=0.7))
    narrow = build_hierarchy(regular_expander, HierarchyParameters(epsilon=0.34))
    assert len(wide.root.parts) > len(narrow.root.parts)
