"""Tests for path collections, embeddings (Section 2), and the matching embedder (Lemma 2.3)."""

import networkx as nx
import pytest

from repro.embedding.embedding import Embedding, compose, identity_embedding, union
from repro.embedding.matching_embed import embed_matching
from repro.embedding.paths import Path, PathCollection
from repro.graphs.generators import two_expander_graph
from repro.graphs.index import GraphIndex


# -- paths ---------------------------------------------------------------------


def test_path_basic_properties():
    path = Path((0, 1, 2, 3))
    assert path.source == 0
    assert path.target == 3
    assert path.length == 3
    assert list(path.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_path_reverse_and_concatenate():
    a = Path((0, 1, 2))
    b = Path((2, 3))
    assert a.concatenate(b).vertices == (0, 1, 2, 3)
    assert a.reversed().vertices == (2, 1, 0)
    with pytest.raises(ValueError):
        b.concatenate(a)


def test_path_collection_congestion_dilation_quality():
    collection = PathCollection([Path((0, 1, 2)), Path((1, 2, 3)), Path((0, 1))])
    assert collection.dilation == 2
    assert collection.congestion == 2  # edge (1,2) is shared by two paths
    assert collection.quality == 4
    assert collection.edge_load(1, 2) == 2
    assert collection.edge_load(5, 6) == 0


def test_path_collection_union_and_round_cost():
    a = PathCollection([Path((0, 1))])
    b = PathCollection([Path((1, 2, 3))])
    merged = PathCollection.union([a, b])
    assert len(merged) == 2
    assert merged.deterministic_round_cost(tokens_per_path=2) == 2 * merged.quality ** 2


# -- embeddings -------------------------------------------------------------------


def test_identity_embedding_has_quality_dominated_by_congestion_one():
    graph = nx.cycle_graph(5)
    embedding = identity_embedding(graph)
    assert len(embedding) == 5
    assert embedding.quality == 1 + 1  # congestion 1, dilation 1


def test_embedding_path_orientation():
    embedding = Embedding()
    embedding.add_edge(0, 3, Path((0, 1, 2, 3)))
    assert embedding.path_for(0, 3).vertices == (0, 1, 2, 3)
    assert embedding.path_for(3, 0).vertices == (3, 2, 1, 0)


def test_embedding_rejects_mismatched_endpoints():
    embedding = Embedding()
    with pytest.raises(ValueError):
        embedding.add_edge(0, 3, Path((0, 1, 2)))


def test_embedding_composition_flattens_paths():
    # H1 edge (0, 2) -> H2 path (0, 1, 2); H2 edges -> G paths of length 2.
    inner = Embedding(name="inner")
    inner.add_edge(0, 2, Path((0, 1, 2)))
    outer = Embedding(name="outer")
    outer.add_edge(0, 1, Path((0, 10, 1)))
    outer.add_edge(1, 2, Path((1, 11, 2)))
    flattened = compose(outer, inner)
    assert flattened.path_for(0, 2).vertices == (0, 10, 1, 11, 2)


def test_embedding_union_rejects_duplicates():
    a = Embedding()
    a.add_edge(0, 1, Path((0, 1)))
    b = Embedding()
    b.add_edge(0, 1, Path((0, 1)))
    with pytest.raises(ValueError):
        union([a, b])


def test_embed_path_maps_virtual_paths():
    embedding = Embedding()
    embedding.add_edge(0, 1, Path((0, 5, 1)))
    embedding.add_edge(1, 2, Path((1, 6, 2)))
    assert embedding.embed_path(Path((0, 1, 2))).vertices == (0, 5, 1, 6, 2)


# -- matching embedder (Lemma 2.3) -------------------------------------------------


def test_embed_matching_saturates_sources_on_an_expander(small_expander):
    sources = list(range(12))
    sinks = list(range(30, 60))
    result = embed_matching(GraphIndex.of(small_expander), sources, sinks, psi=0.2)
    assert result.saturated
    assert set(result.matching.keys()) == set(sources)
    assert len(set(result.matching.values())) == len(sources)  # distinct sinks
    assert result.quality > 0


def test_embed_matching_paths_connect_the_matched_pairs(small_expander):
    sources = list(range(8))
    sinks = list(range(40, 60))
    result = embed_matching(GraphIndex.of(small_expander), sources, sinks, psi=0.2)
    for source, sink in result.matching.items():
        path = result.embedding.path_for(source, sink)
        assert path.source == source and path.target == sink
        for u, v in zip(path.vertices, path.vertices[1:]):
            assert small_expander.has_edge(u, v)


def test_embed_matching_rejects_overlapping_sets(small_expander):
    with pytest.raises(ValueError):
        embed_matching(GraphIndex.of(small_expander), [0, 1], [1, 2, 3])


def test_embed_matching_rejects_more_sources_than_sinks(small_expander):
    with pytest.raises(ValueError):
        embed_matching(GraphIndex.of(small_expander), [0, 1, 2], [10, 11])


def test_embed_matching_reports_cut_on_bottlenecked_graph():
    # Two expanders joined by a single edge: matching many sources across the
    # bridge cannot saturate, and the fallback must report a sparse cut.
    graph = two_expander_graph(40, bridge_edges=1, degree=6, seed=1)
    sources = list(range(15))            # left side
    sinks = list(range(20, 40))          # right side
    result = embed_matching(GraphIndex.of(graph), sources, sinks, psi=0.4, max_cap_doublings=1)
    if not result.saturated:
        assert result.cut
        assert result.cut_sparsity < 1.0
    else:
        # With generous caps a single bridge can still carry all 15 paths;
        # in that case the congestion must reflect the bottleneck.
        assert result.embedding.path_collection().congestion >= 10
