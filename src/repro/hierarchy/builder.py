"""Construction of the hierarchical decomposition (Theorem 3.2, Appendix A).

The CS20 construction partitions the current (virtual) graph into ``k``
ID-contiguous blocks, embeds a virtual expander into (most of) each block with
a vertex-level cut-matching game, matches the leftover vertices into the
embedded expanders, and recurses on each embedded expander.  The recursion
depth is ``O(1/epsilon)`` because the block size shrinks by a factor of
``k = n^epsilon`` per level.

This module follows that construction:

* :func:`embed_virtual_expander` is the per-block KKOV-style cut-matching
  game: it repeatedly bisects the current virtual graph (Fiedler/ID order),
  asks the matching embedder (Lemma 2.3) for a saturating matching across the
  bisection inside the *parent* virtual graph, and adds the matched edges to
  the virtual graph until the virtual graph is a certified expander.  The
  virtual graph's maximum degree is the number of iterations, i.e. ``O(log n)``
  as in Property 3.1(2).
* :func:`build_hierarchy` drives the recursion, creates the
  :class:`~repro.hierarchy.node.Part` structure with the bad-vertex matchings
  of Property 3.1(3), and records the round cost of the whole construction.

Differences from the paper are purely parametric (README, "Deviations from the
paper", item 2):
leaf components are declared at a configurable size threshold (the paper trims
at ``k^4 = n^{4 epsilon}``, which at experiment scale would collapse the tree
to a single leaf), and the expander certificate is the spectral gap rather
than a recursive Det-Sparse-Cut call (the same object CS20's certificate
ultimately certifies).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import networkx as nx
import numpy as np

from repro.embedding.embedding import Embedding
from repro.embedding.matching_embed import embed_matching
from repro.embedding.paths import Path
from repro.graphs.conductance import normalized_laplacian
from repro.graphs.index import GraphIndex, component_labels, diameter, iter_edges, path_quality
from repro.hierarchy.node import HierarchicalDecomposition, HierarchyNode, Part

__all__ = [
    "HierarchyParameters",
    "VirtualExpanderResult",
    "embed_virtual_expander",
    "build_hierarchy",
]


@dataclass(frozen=True)
class HierarchyParameters:
    """Tunable parameters of the decomposition construction.

    Attributes:
        epsilon: the tradeoff parameter; ``k = n^epsilon`` parts per node.
        psi: sparsity parameter handed to the matching embedder.
        leaf_size: nodes of at most this many vertices become leaves.
        min_part_size: never create parts smaller than this.
        gap_target: normalized-Laplacian gap at which a virtual graph is
            accepted as an expander.
        max_levels: hard cap on the recursion depth (paper: O(1/epsilon)).
    """

    epsilon: float = 0.5
    psi: float = 0.1
    leaf_size: int = 12
    min_part_size: int = 4
    gap_target: float = 0.20
    max_levels: int = 8

    def parts_for(self, total_vertices: int, node_size: int) -> int:
        """Number of parts ``t`` for a node of ``node_size`` vertices.

        ``k = n^epsilon`` computed from the *original* graph size, clamped so
        every part has at least ``min_part_size`` vertices and there are at
        least 2 parts (otherwise the node becomes a leaf).
        """
        k = max(2, int(round(total_vertices ** self.epsilon)))
        t = min(k, node_size // self.min_part_size)
        return max(t, 0)


@dataclass
class VirtualExpanderResult:
    """Outcome of embedding a virtual expander into one block.

    Attributes:
        covered: vertices on which the virtual expander was embedded (``U_i``).
        dropped: vertices excluded during construction (become bad vertices).
        virtual_graph: the embedded expander ``H_i`` on ``covered``.
        embedding: path embedding of ``H_i``'s edges into the parent virtual graph.
        iterations: number of cut-matching iterations used.
        rounds: CONGEST rounds charged.
        diameter: the virtual graph's diameter as round accounting charges it
            (:func:`_charged_diameter`).
    """

    covered: frozenset
    dropped: frozenset
    virtual_graph: nx.Graph
    embedding: Embedding
    iterations: int
    rounds: int
    diameter: int


def _charged_diameter(adjacency: np.ndarray) -> int:
    """Diameter of a virtual graph's boolean matrix; a disconnected one is charged its size."""
    size = len(adjacency)
    if size <= 1:
        return 0
    hops = diameter(adjacency)
    return size if hops is None else hops


def _bisect_block(
    members: Sequence[Hashable], labels: np.ndarray, laplacian: np.ndarray | None
) -> tuple[list, list]:
    """Deterministic bisection of the block used by the per-block cut player.

    ``members`` are the active vertices in sorted order, ``labels`` their
    component labels in the current virtual graph, and ``laplacian`` its
    normalized Laplacian when it is connected (``None`` otherwise).

    If the current virtual graph is connected we split along the Fiedler
    vector of its normalized Laplacian (the sparsest direction found so far,
    i.e. the direction in which the virtual graph is *least* expanding, which
    is exactly where the next matching should add edges).  Otherwise — in the
    first iterations the virtual graph has no edges — whole components are
    kept together in order of their smallest vertex, so the next matching is
    forced to connect different components (repeated ID-order splits would
    keep reinforcing the same bipartition and never connect H).
    """
    half = len(members) // 2
    if laplacian is None:
        ordered = [members[i] for i in np.argsort(labels, kind="stable")]
        return ordered[:half], ordered[half:]
    _, eigenvectors = np.linalg.eigh(laplacian)
    fiedler = eigenvectors[:, 1]
    order = sorted(range(len(members)), key=lambda i: (fiedler[i], members[i]))
    left = [members[i] for i in order[:half]]
    right = [members[i] for i in order[half:]]
    return left, right


def embed_virtual_expander(
    base: GraphIndex,
    block: Iterable[Hashable],
    params: HierarchyParameters,
    max_iterations: int | None = None,
) -> VirtualExpanderResult:
    """Embed a virtual expander onto (most of) ``block`` inside the graph indexed by ``base``.

    The returned virtual graph has maximum degree equal to the number of
    iterations (``O(log n)``), and every virtual edge carries a low-congestion
    path of the base graph.  The game itself tracks the virtual graph as a
    boolean adjacency matrix over the block's sorted members; the
    ``nx.Graph`` and :class:`Embedding` are built alongside, in edge insertion
    order, because the hierarchy stores them.  The embedding's quality and the
    virtual graph's diameter come from the paths' edge ids and from that
    matrix.
    """
    members = sorted(set(block))
    rounds = 0
    if len(members) <= 1:
        graph = nx.Graph()
        graph.add_nodes_from(members)
        trivial = Embedding(name="H-trivial")
        trivial._quality_cache = 0
        return VirtualExpanderResult(
            covered=frozenset(members),
            dropped=frozenset(),
            virtual_graph=graph,
            embedding=trivial,
            iterations=0,
            rounds=0,
            diameter=0,
        )

    if max_iterations is None:
        max_iterations = max(4, int(math.ceil(3 * math.log2(len(members)))) + 2)

    virtual_graph = nx.Graph()
    virtual_graph.add_nodes_from(members)
    local = {vertex: i for i, vertex in enumerate(members)}
    adjacency = np.zeros((len(members), len(members)), dtype=bool)
    # Virtual edge key -> its path and that path's edge ids.  An edge matched
    # again keeps its slot and takes the newer path, as Embedding.add_edge does.
    paths: dict[tuple, Path] = {}
    path_edges: dict[tuple, list[int]] = {}
    active = list(members)
    positions = np.arange(len(members))
    dropped: set = set()
    iterations = 0

    def add_matching(result) -> None:
        # The matcher's mapping has one canonical entry per pair, in matching order.
        entries = zip(
            result.matching.items(),
            result.embedding.mapping.items(),
            result.path_edges,
            strict=True,
        )
        for (a, b), (key, path), edges in entries:
            virtual_graph.add_edge(a, b)
            adjacency[local[a], local[b]] = adjacency[local[b], local[a]] = True
            paths[key] = path
            path_edges[key] = edges

    for _ in range(max_iterations):
        if len(active) <= 1:
            break
        current = adjacency[np.ix_(positions, positions)]
        labels = component_labels(current)
        laplacian = None
        if labels.max() == 0:
            laplacian = normalized_laplacian(current)
            if np.linalg.eigvalsh(laplacian)[1] >= params.gap_target:
                break
        iterations += 1
        left, right = _bisect_block(active, labels, laplacian)
        if not left or not right:
            break
        sources, sinks = (left, right) if len(left) <= len(right) else (right, left)
        result = embed_matching(base, sources, sinks, psi=params.psi)
        rounds += max(1, result.quality) ** 2 + len(active)
        add_matching(result)
        if not result.saturated:
            unmatched = [v for v in sources if v not in result.matching]
            # Vertices the matching player cannot connect are excluded from the
            # embedded expander; they become bad vertices of the part.
            for vertex in unmatched:
                dropped.add(vertex)
            active = [v for v in active if v not in dropped]
            positions = np.array([local[v] for v in active], dtype=np.intp)

    # Connectivity repair: if the embedded virtual graph is still disconnected
    # (possible when the gap target was not reached before the iteration cap),
    # stitch the components together with extra embedded matchings.  The
    # resulting degree increase is at most the number of components, which is
    # O(log n) in the worst case and usually 1-2.
    for _ in range(len(active)):
        current = adjacency[np.ix_(positions, positions)]
        if len(active) <= 1 or not current.any():
            break
        labels = component_labels(current)
        if labels.max() == 0:
            break
        # The smallest component, ties to the one with the smallest vertex.
        in_smallest = labels == np.argmin(np.bincount(labels))
        smallest = [active[i] for i in np.flatnonzero(in_smallest)]
        rest = [active[i] for i in np.flatnonzero(~in_smallest)]
        sources, sinks = (smallest, rest) if len(smallest) <= len(rest) else (rest, smallest)
        repair = embed_matching(base, sources, sinks, psi=params.psi)
        rounds += max(1, repair.quality) ** 2
        if not repair.matching:
            break
        add_matching(repair)
        iterations += 1

    covered = frozenset(active)
    final_graph = nx.Graph()
    final_graph.add_nodes_from(sorted(covered))
    for u, v in iter_edges(virtual_graph):
        if u in covered and v in covered:
            final_graph.add_edge(u, v)
    final_embedding = Embedding(name="H-block")
    kept: list[list[int]] = []
    for (u, v), path in paths.items():
        if u in covered and v in covered:
            final_embedding.mapping[(u, v)] = path
            kept.append(path_edges[(u, v)])
    # Recorded here, where the paths' edge ids are at hand; the reference
    # kernel recomputes it from the paths (Embedding.quality).
    final_embedding._quality_cache = path_quality(kept)
    return VirtualExpanderResult(
        covered=covered,
        dropped=frozenset(dropped),
        virtual_graph=final_graph,
        embedding=final_embedding,
        iterations=iterations,
        rounds=rounds,
        diameter=_charged_diameter(adjacency[np.ix_(positions, positions)]),
    )


def _partition_by_id(vertices: Iterable[Hashable], parts: int) -> list[list]:
    """Split ``vertices`` into ``parts`` contiguous blocks of the sorted ID order.

    This is Property 3.1(1)'s requirement that the children can be ordered so
    their ID ranges do not interleave — it is what lets destination markers be
    rewritten locally at query time.
    """
    ordered = sorted(vertices)
    if parts <= 1:
        return [ordered]
    base = len(ordered) // parts
    extra = len(ordered) % parts
    blocks: list[list] = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        blocks.append(ordered[start: start + size])
        start += size
    return [block for block in blocks if block]


class _HierarchyBuilder:
    """Recursive construction driver holding the shared parameters and cost.

    ``indexes`` receives the :class:`GraphIndex` of every internal node's
    virtual graph, keyed by ``id(node)``.
    """

    def __init__(
        self, graph: nx.Graph, params: HierarchyParameters, indexes: dict[int, GraphIndex]
    ) -> None:
        self.graph = graph
        self.params = params
        self.indexes = indexes
        self.total_vertices = graph.number_of_nodes()
        self.rounds = 0

    def build_root(self) -> HierarchyNode:
        # The root's virtual graph is G itself (H_W = G[W] with W = V): the
        # decomposition already holds G, so a copy would only be built and
        # pickled twice.
        root = HierarchyNode(
            vertices=frozenset(self.graph.nodes()),
            level=0,
            virtual_graph=self.graph,
            embedding_to_parent=Embedding(name="root"),
        )
        index = GraphIndex.of(root.virtual_graph)
        root._diameter = _charged_diameter(index.adjacency())
        self._expand(root, index)
        return root

    def _expand(self, node: HierarchyNode, graph_index: GraphIndex | None = None) -> None:
        params = self.params
        t = params.parts_for(self.total_vertices, node.size)
        if (
            node.size <= params.leaf_size
            or t < 2
            or node.level >= params.max_levels
        ):
            node.is_leaf = True
            return

        blocks = _partition_by_id(node.vertices, t)
        part_matching = Embedding(name=f"fM-level{node.level}")
        part_matching_paths: list[list[int]] = []
        if graph_index is None:
            graph_index = GraphIndex.of(node.virtual_graph)
        self.indexes[id(node)] = graph_index
        for index, block in enumerate(blocks):
            result = embed_virtual_expander(graph_index, block, params)
            self.rounds += result.rounds
            good = result.covered
            bad = frozenset(result.dropped)
            if len(bad) > len(good):
                # The per-block game failed to cover a majority (Property 3.1(3)
                # needs |X'_i| <= |X_i|).  Fall back to using the induced
                # subgraph of the parent virtual graph as the child's virtual
                # graph — a quality-1 embedding — and no bad vertices.
                induced = node.virtual_graph.subgraph(block).copy()
                fallback_embedding = Embedding(name="H-induced")
                for u, v in iter_edges(induced):
                    fallback_embedding.add_edge(u, v, Path((u, v)))
                # One length-1 path per edge: congestion 1 plus dilation 1.
                fallback_embedding._quality_cache = 2 if fallback_embedding.mapping else 0
                where = [graph_index.position[v] for v in block]
                result = VirtualExpanderResult(
                    covered=frozenset(block),
                    dropped=frozenset(),
                    virtual_graph=induced,
                    embedding=fallback_embedding,
                    iterations=result.iterations,
                    rounds=result.rounds,
                    diameter=_charged_diameter(graph_index.adjacency()[np.ix_(where, where)]),
                )
                good = result.covered
                bad = frozenset()
            matching: dict[Hashable, Hashable] = {}
            if bad:
                matched = embed_matching(graph_index, sorted(bad), sorted(good), psi=params.psi)
                self.rounds += max(1, matched.quality) ** 2
                matching = dict(matched.matching)
                for (u, v), path in matched.embedding.mapping.items():
                    part_matching.mapping[(u, v)] = path
                part_matching_paths.extend(matched.path_edges)
                leftovers = [v for v in bad if v not in matching]
                if leftovers:
                    # As a last resort attach stragglers to the lowest-ID good
                    # vertex of the part (keeps the partition total).
                    for vertex in leftovers:
                        anchor = min(good)
                        matching[vertex] = anchor
            child = HierarchyNode(
                vertices=good,
                level=node.level + 1,
                virtual_graph=result.virtual_graph,
                embedding_to_parent=result.embedding,
                flatten_quality_cache=node.flatten_quality_cache
                * max(1, result.embedding.quality),
            )
            child._diameter = result.diameter
            part = Part(
                index=index,
                good_vertices=good,
                bad_vertices=bad,
                matching=matching,
                child=child,
            )
            node.parts.append(part)
        part_matching._quality_cache = path_quality(part_matching_paths)
        node.part_matching_embedding = part_matching
        for part in node.parts:
            assert part.child is not None
            self._expand(part.child)


def build_hierarchy(
    graph: nx.Graph,
    params: HierarchyParameters | None = None,
    epsilon: float | None = None,
    indexes: dict[int, GraphIndex] | None = None,
) -> HierarchicalDecomposition:
    """Build the hierarchical decomposition of an expander graph (Theorem 3.2).

    Args:
        graph: a connected (preferably constant-degree) expander.
        params: full parameter object; built from defaults when omitted.
        epsilon: shortcut to override just the tradeoff parameter.
        indexes: when given, receives the :class:`GraphIndex` of every
            internal node's virtual graph, keyed by ``id(node)``, so a caller
            that plays games on the same graphs need not index them again.
            Indexes are never stored on the decomposition.
    """
    if params is None:
        params = HierarchyParameters()
    if epsilon is not None:
        params = HierarchyParameters(
            epsilon=epsilon,
            psi=params.psi,
            leaf_size=params.leaf_size,
            min_part_size=params.min_part_size,
            gap_target=params.gap_target,
            max_levels=params.max_levels,
        )
    if graph.number_of_nodes() == 0:
        raise ValueError("cannot decompose an empty graph")
    if not nx.is_connected(graph):
        raise ValueError("the hierarchical decomposition requires a connected graph")

    builder = _HierarchyBuilder(graph, params, {} if indexes is None else indexes)
    root = builder.build_root()
    return HierarchicalDecomposition(
        root=root,
        graph=graph,
        uncovered=frozenset(),
        epsilon=params.epsilon,
        build_rounds=builder.rounds,
    )
