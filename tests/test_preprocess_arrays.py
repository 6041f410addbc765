"""Array-native preprocessing against networkx oracles, in-process.

Preprocessing runs on integer arrays: the normalized Laplacian, connected
components and diameter of the small virtual graphs, and the capped BFS of the
matching embedder (Lemma 2.3) over a :class:`GraphIndex`.  Each helper must
give exactly what networkx gives — bit for bit where floats feed an
eigensolver — so the decomposition, the shufflers and the preprocessing
rounds do not move.  Every embedding and shuffler quality is recorded where
its paths are found, from their edge ids, and every node's diameter from the
builder's matrices; a property checks both against ``PathCollection`` and
networkx recomputations.  The last tests build whole artifacts with every
helper swapped for its networkx oracle and compare canonical digests; no
digest is committed, because ``eigh`` bits may differ between BLAS builds and
CPUs.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import pickle
import random
import subprocess
import sys
from collections import deque
from pathlib import Path as FilePath

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ExpanderRouter
from repro.embedding import paths as paths_module
from repro.embedding.embedding import Embedding
from repro.embedding.matching_embed import MatchingEmbedResult, embed_matching
from repro.embedding.paths import Path, PathCollection
from repro.graphs.conductance import normalized_laplacian
from repro.graphs.generators import (
    random_regular_expander,
    two_expander_graph,
    weighted_expander,
)
from repro.graphs.index import GraphIndex, component_labels, diameter
from repro.hierarchy.builder import HierarchyParameters, build_hierarchy
from repro.kernels import kernel
from repro.workloads import permutation_workload

#: The deep run (``--hypothesis-profile=ci``, see conftest.py) keeps its example
#: count; tier-1 draws a few graphs.
_EXAMPLES = settings.default.max_examples if settings.default is settings.get_profile("ci") else 8


def _random_graphs(count: int = 40):
    """Random graphs with isolated vertices, several components and single vertices."""
    yield nx.empty_graph(1)
    yield nx.empty_graph(5)
    yield nx.path_graph(2)
    yield nx.disjoint_union(nx.cycle_graph(5), nx.path_graph(4))
    for seed in range(count):
        rng = random.Random(seed)
        n = rng.randint(1, 30)
        graph = nx.gnp_random_graph(n, rng.uniform(0.02, 0.35), seed=seed)
        graph.add_nodes_from(range(n, n + rng.randint(0, 3)))  # isolated vertices
        yield graph


# -- Laplacian, components, diameter ------------------------------------------


def test_normalized_laplacian_matches_networkx_byte_for_byte():
    pytest.importorskip("scipy")
    graphs = [*_random_graphs(), weighted_expander(32, degree=6, seed=4)]
    for seed, graph in enumerate(graphs):
        nodes = list(graph)
        random.Random(seed).shuffle(nodes)
        expected = np.asarray(nx.normalized_laplacian_matrix(graph, nodelist=nodes).todense())
        adjacency = nx.to_numpy_array(graph, nodelist=nodes)
        forms = [adjacency] if nx.is_weighted(graph) else [adjacency, adjacency != 0]
        for form in forms:
            actual = normalized_laplacian(form)
            assert actual.dtype == expected.dtype and actual.shape == expected.shape
            assert actual.tobytes() == expected.tobytes()


def test_component_labels_match_networkx_components():
    for graph in _random_graphs():
        nodes = sorted(graph)
        labels = component_labels(nx.to_numpy_array(graph, nodelist=nodes, dtype=bool))
        components = sorted(nx.connected_components(graph), key=min)
        expected = {vertex: i for i, component in enumerate(components) for vertex in component}
        assert labels.tolist() == [expected[vertex] for vertex in nodes]


def test_diameter_matches_networkx():
    for graph in _random_graphs():
        expected = nx.diameter(graph) if nx.is_connected(graph) else None
        assert diameter(nx.to_numpy_array(graph, dtype=bool)) == expected


def test_graph_index_lists_sorted_neighbours_with_shared_edge_ids():
    graph = random_regular_expander(40, degree=6, seed=3)
    index = GraphIndex.of(graph)
    assert index.vertices == sorted(graph)
    edge_of: dict[frozenset, int] = {}
    for i, vertex in enumerate(index.vertices):
        neighbours = [index.vertices[j] for j in index.neighbors[i]]
        assert neighbours == sorted(graph.neighbors(vertex))
        for j, edge in zip(index.neighbors[i], index.edge_ids[i]):
            assert edge_of.setdefault(frozenset((i, j)), edge) == edge
    assert sorted(edge_of.values()) == list(range(graph.number_of_edges()))
    assert index.edge_count == graph.number_of_edges()
    expected = nx.to_numpy_array(graph, nodelist=index.vertices, dtype=bool, weight=None)
    assert np.array_equal(index.adjacency(), expected)


# -- capped BFS: the repr-keyed networkx embedder as the oracle -----------------


def _oracle_embed_matching(graph, sources, sinks, psi=0.1, max_cap_doublings=6, cap_hits=None):
    """The matching embedder on networkx neighbours and ``repr``-keyed edge loads.

    ``cap_hits`` (a list) collects one entry per edge skipped because its load
    reached the congestion cap.
    """

    def key(u, v):
        return (u, v) if repr(u) <= repr(v) else (v, u)

    def blocked(edge_load, u, v, cap):
        if edge_load.get(key(u, v), 0) < cap:
            return False
        if cap_hits is not None:
            cap_hits.append((u, v))
        return True

    def capped_bfs(source, free_sinks, edge_load, congestion_cap, dilation_cap):
        if source in free_sinks:
            return [source]
        parent = {source: source}
        queue = deque([(source, 0)])
        while queue:
            node, depth = queue.popleft()
            if depth >= dilation_cap:
                continue
            for neighbour in sorted(graph.neighbors(node)):
                if neighbour in parent:
                    continue
                if blocked(edge_load, node, neighbour, congestion_cap):
                    continue
                parent[neighbour] = node
                if neighbour in free_sinks:
                    path = [neighbour]
                    current = neighbour
                    while current != source:
                        current = parent[current]
                        path.append(current)
                    path.reverse()
                    return path
                queue.append((neighbour, depth + 1))
        return None

    def reachable(seeds, edge_load, congestion_cap, dilation_cap):
        region = set(seeds)
        queue = deque((seed, 0) for seed in seeds)
        while queue:
            node, depth = queue.popleft()
            if depth >= dilation_cap:
                continue
            for neighbour in sorted(graph.neighbors(node)):
                if neighbour in region:
                    continue
                if edge_load.get(key(node, neighbour), 0) >= congestion_cap:
                    continue
                region.add(neighbour)
                queue.append((neighbour, depth + 1))
        return region

    source_list = sorted(set(sources))
    sink_set = set(sinks)
    if not source_list:
        return MatchingEmbedResult(saturated=True)
    n = graph.number_of_nodes()
    base_dilation = max(2, int(math.ceil(2.0 * math.log(max(n, 2)) / max(psi, 1e-6))))
    base_congestion = max(2, int(math.ceil(1.0 / max(psi * psi, 1e-6))))
    base_congestion = min(base_congestion, 4 * n)
    base_dilation = min(base_dilation, 2 * n)
    congestion_cap = max(2, min(base_congestion, 8))
    dilation_cap = max(2, min(base_dilation, 16))
    for _ in range(max_cap_doublings + 1):
        matching = {}
        embedding = Embedding(name="matching")
        edge_load = {}
        free_sinks = set(sink_set)
        unmatched = []
        for source in source_list:
            path = capped_bfs(source, free_sinks, edge_load, congestion_cap, dilation_cap)
            if path is None:
                unmatched.append(source)
                continue
            sink = path[-1]
            matching[source] = sink
            free_sinks.discard(sink)
            embedding.add_edge(source, sink, Path(tuple(path)))
            for u, v in zip(path, path[1:]):
                edge_load[key(u, v)] = edge_load.get(key(u, v), 0) + 1
        caps = dict(congestion_cap_used=congestion_cap, dilation_cap_used=dilation_cap)
        if not unmatched:
            return MatchingEmbedResult(
                matching, embedding, True, quality=embedding.quality, **caps
            )
        if congestion_cap >= base_congestion and dilation_cap >= base_dilation:
            region = reachable(unmatched, edge_load, congestion_cap, dilation_cap) - sink_set
            if not region:
                region = set(unmatched)
            boundary = sum(1 for u in region for v in graph.neighbors(u) if v not in region)
            denominator = min(len(region), n - len(region)) or 1
            return MatchingEmbedResult(
                matching,
                embedding,
                False,
                frozenset(region),
                boundary / denominator,
                quality=embedding.quality,
                **caps,
            )
        congestion_cap = min(base_congestion, congestion_cap * 2)
        dilation_cap = min(base_dilation, dilation_cap * 2)
    raise RuntimeError("oracle exhausted its cap doublings")


def _same_result(actual: MatchingEmbedResult, expected: MatchingEmbedResult) -> None:
    assert list(actual.matching.items()) == list(expected.matching.items())
    assert list(actual.embedding.mapping.items()) == list(expected.embedding.mapping.items())
    assert actual.saturated == expected.saturated
    assert actual.cut == expected.cut
    assert actual.cut_sparsity == expected.cut_sparsity
    assert actual.congestion_cap_used == expected.congestion_cap_used
    assert actual.dilation_cap_used == expected.dilation_cap_used
    assert actual.quality == expected.quality == actual.embedding.quality


def test_indexed_embedder_matches_the_networkx_oracle_on_expanders():
    for seed in range(6):
        graph = random_regular_expander(48 + 8 * seed, degree=(4, 6, 8)[seed % 3], seed=seed)
        index = GraphIndex.of(graph)
        rng = random.Random(seed)
        vertices = sorted(graph)
        for psi in (0.1, 0.25, 0.5):
            rng.shuffle(vertices)
            half = rng.randint(1, len(vertices) // 2)
            sources, sinks = vertices[:half], vertices[half : 2 * half + rng.randint(0, 4)]
            _same_result(
                embed_matching(index, sources, sinks, psi=psi),
                _oracle_embed_matching(graph, sources, sinks, psi=psi),
            )


def test_indexed_embedder_matches_the_oracle_when_loads_hit_the_cap():
    # A thin bridge between two expanders: paths pile onto the bridge edges
    # until their load reaches the congestion cap, then the BFS must route
    # around them (2 bridges at psi=0.3 still saturate) or report a cut.
    cases = ((1, 1, 0.5), (1, 2, 0.4), (2, 1, 0.3), (2, 6, 0.7), (3, 2, 0.5))
    for bridges, doublings, psi in cases:
        graph = two_expander_graph(40, bridge_edges=bridges, degree=6, seed=bridges)
        sources, sinks = list(range(15)), list(range(20, 40))
        cap_hits: list = []
        expected = _oracle_embed_matching(
            graph, sources, sinks, psi=psi, max_cap_doublings=doublings, cap_hits=cap_hits
        )
        assert cap_hits, "the case must exercise the congestion cap"
        actual = embed_matching(
            GraphIndex.of(graph), sources, sinks, psi=psi, max_cap_doublings=doublings
        )
        _same_result(actual, expected)


def test_indexed_embedder_matches_the_oracle_when_the_depth_cap_binds():
    # On a long cycle the nearest free sink lies one hop beyond the dilation
    # cap: at psi=0.2 the first cap (16) stops short and the doubled one
    # reaches the sinks; at psi=0.5 the final cap (18) stops short and a cut
    # is reported.
    graph = nx.cycle_graph(80)
    for psi, sinks in ((0.2, range(17, 23)), (0.5, range(19, 40))):
        expected = _oracle_embed_matching(graph, [0, 1], sinks, psi=psi, max_cap_doublings=2)
        assert expected.dilation_cap_used > 16
        _same_result(
            embed_matching(GraphIndex.of(graph), [0, 1], sinks, psi=psi, max_cap_doublings=2),
            expected,
        )


def test_indexed_embedder_matches_the_oracle_on_disconnected_graphs():
    graph = nx.disjoint_union(random_regular_expander(20, degree=4, seed=1), nx.cycle_graph(12))
    graph.add_nodes_from([100, 101])
    sources, sinks = [0, 1, 2, 25, 100], [5, 6, 7, 8, 30, 31, 101]
    _same_result(
        embed_matching(GraphIndex.of(graph), sources, sinks, psi=0.5, max_cap_doublings=1),
        _oracle_embed_matching(graph, sources, sinks, psi=0.5, max_cap_doublings=1),
    )


# -- whole artifacts: array helpers vs networkx oracles -------------------------


class _CanonicalPickler(pickle.Pickler):
    """Pickles every ``nx.Graph`` as its node and edge lists in insertion order."""

    def reducer_override(self, obj):
        if isinstance(obj, nx.Graph):
            state = (list(obj.nodes(data=True)), list(obj.edges(data=True)), dict(obj.graph))
            return tuple, ((type(obj).__name__, *state),)
        return NotImplemented


def _artifact_digest(graph: nx.Graph) -> tuple[str, int]:
    router = ExpanderRouter(graph)
    router.preprocess()
    buffer = io.BytesIO()
    _CanonicalPickler(buffer, protocol=5).dump(router.artifact)
    return hashlib.sha256(buffer.getvalue()).hexdigest(), router.artifact.preprocessing_rounds


def _graph_of(index: GraphIndex) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(index.vertices)
    for i, row in enumerate(index.neighbors):
        graph.add_edges_from((index.vertices[i], index.vertices[j]) for j in row)
    return graph


def _oracle_embed_on_index(index, sources, sinks, psi=0.1, max_cap_doublings=6):
    result = _oracle_embed_matching(_graph_of(index), sources, sinks, psi, max_cap_doublings)
    # The builder and the game read each path's edge ids over the index.
    position = index.position
    for path in result.embedding.mapping.values():
        hops = zip(path.vertices, path.vertices[1:])
        result.path_edges.append(
            [
                index.edge_ids[position[u]][index.neighbors[position[u]].index(position[v])]
                for u, v in hops
            ]
        )
    return result


def _graph_of_adjacency(adjacency: np.ndarray) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(range(len(adjacency)))
    graph.add_edges_from(zip(*np.nonzero(adjacency)))
    return graph


def _oracle_laplacian(adjacency):
    graph = _graph_of_adjacency(adjacency)
    return np.asarray(nx.normalized_laplacian_matrix(graph, nodelist=range(len(graph))).todense())


def _oracle_component_labels(adjacency):
    labels = np.empty(len(adjacency), dtype=np.intp)
    components = nx.connected_components(_graph_of_adjacency(adjacency))
    for label, component in enumerate(sorted(components, key=min)):
        labels[list(component)] = label
    return labels


def _oracle_diameter(adjacency):
    graph = _graph_of_adjacency(adjacency)
    return nx.diameter(graph) if nx.is_connected(graph) else None


# -- qualities and diameters recorded at construction ---------------------------


def _charged_diameter_oracle(graph: nx.Graph) -> int:
    """The round accounting's diameter through networkx: disconnected costs the size."""
    if graph.number_of_nodes() <= 1:
        return 0
    hops = diameter(nx.to_numpy_array(graph, dtype=bool, weight=None))
    return graph.number_of_nodes() if hops is None else hops


def _check_recorded(decomposition) -> None:
    """Every recorded quality equals its PathCollection recomputation, every diameter networkx's.

    The decomposition is walked from each node to its children, the only
    direction its nodes point.
    """
    for node in decomposition.all_nodes():
        assert node.virtual_diameter() == _charged_diameter_oracle(node.virtual_graph)
        recorded = [child.embedding_to_parent for child in node.children]
        for child in node.children:
            recomputed = max(1, child.embedding_to_parent.path_collection().quality)
            assert child.flatten_quality() == node.flatten_quality() * recomputed
        if not node.is_leaf:
            recorded.append(node.part_matching_embedding)
        if node.shuffler is not None:
            recorded.extend(matching.embedding for matching in node.shuffler)
            union = PathCollection.union(m.embedding.path_collection() for m in node.shuffler)
            assert node.shuffler._quality_cache == (union.quality if len(node.shuffler) else 0)
        for embedding in recorded:
            assert embedding._quality_cache == embedding.path_collection().quality


@settings(max_examples=_EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(24, 128),
    degree=st.integers(3, 8),
    seed=st.integers(0, 10_000),
)
def test_recorded_qualities_and_diameters_match_their_recomputation(n, degree, seed):
    n += (n * degree) % 2  # a regular graph needs n * degree even
    router = ExpanderRouter(random_regular_expander(n, degree=degree, seed=seed))
    router.preprocess()
    _check_recorded(router.decomposition)


@pytest.mark.parametrize(
    "graph",
    [random_regular_expander(96, degree=3, seed=2), nx.cycle_graph(48)],
    ids=["3-regular-96", "cycle-48"],
)
def test_recorded_values_hold_for_bad_vertices_and_the_induced_fallback(graph):
    # psi=4 caps the embedder at congestion 2 and a few hops: blocks drop
    # vertices (bad vertices with part-matching paths), and on the 3-regular
    # graph most blocks fall back to their induced, disconnected subgraphs.
    decomposition = build_hierarchy(graph, HierarchyParameters(psi=4.0))
    nodes = decomposition.all_nodes()
    assert any(part.bad_vertices for node in nodes for part in node.parts)
    if graph.number_of_nodes() == 96:
        induced = [node for node in nodes if node.embedding_to_parent.name == "H-induced"]
        assert any(node.virtual_diameter() == node.size > 1 for node in induced)
    _check_recorded(decomposition)


def test_numpy_preprocess_and_first_route_build_no_path_collection(monkeypatch):
    graph = random_regular_expander(128, degree=8, seed=0)
    requests = permutation_workload(graph, shift=5).requests
    built = []
    original = PathCollection.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(paths_module.PathCollection, "__init__", counting_init)
    router = ExpanderRouter(graph)
    router.preprocess()
    outcome = router.route(requests)
    assert outcome.all_delivered
    assert len(built) == 0
    # The reference kernel still recomputes every quality from the paths, so
    # its rounds are an independent check of the recorded ones.
    with kernel("reference"):
        reference = ExpanderRouter(graph)
        reference.preprocess()
        replayed = router.route(requests)
    assert len(built) > 0
    assert reference.artifact.preprocessing_rounds == router.artifact.preprocessing_rounds
    assert replayed.query_rounds == outcome.query_rounds


@pytest.mark.parametrize(
    "graph",
    [
        random_regular_expander(64, degree=8, seed=1),
        random_regular_expander(96, degree=4, seed=1),
        random_regular_expander(48, degree=3, seed=1),
        random_regular_expander(128, degree=8, seed=1),
    ],
    ids=["8-regular-64", "4-regular-96", "3-regular-48", "8-regular-128"],
)
def test_artifact_is_unchanged_with_networkx_oracles(graph, monkeypatch):
    pytest.importorskip("scipy")
    digest = _artifact_digest(graph)
    import repro.cutmatching.matching_player as matching_player
    import repro.graphs.conductance as conductance
    import repro.hierarchy.builder as builder

    monkeypatch.setattr(builder, "embed_matching", _oracle_embed_on_index)
    monkeypatch.setattr(matching_player, "embed_matching", _oracle_embed_on_index)
    monkeypatch.setattr(builder, "normalized_laplacian", _oracle_laplacian)
    monkeypatch.setattr(conductance, "normalized_laplacian", _oracle_laplacian)
    monkeypatch.setattr(builder, "component_labels", _oracle_component_labels)
    monkeypatch.setattr(builder, "diameter", _oracle_diameter)
    assert _artifact_digest(graph) == digest


# -- the runtime does not need scipy ------------------------------------------

_NO_SCIPY_SCRIPT = """
import sys
from repro import ExpanderRouter
from repro.graphs import random_regular_expander
from repro.workloads import permutation_workload

graph = random_regular_expander(64, degree=8, seed=1)
router = ExpanderRouter(graph)
router.preprocess()
outcome = router.route(permutation_workload(graph, shift=5).requests)
assert outcome.delivered == outcome.total_tokens == 64
print("scipy" in sys.modules)
"""


def test_preprocess_and_route_do_not_import_scipy():
    src = str(FilePath(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip().splitlines()[-1] == "False"
