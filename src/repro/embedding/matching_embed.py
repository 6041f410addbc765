"""Matching embedder: Lemma 2.3 of the paper (after CS20 / HHS23).

Given disjoint vertex sets ``S`` (sources) and ``T`` (sinks) with
``|S| <= |T|`` in a bounded-degree graph, deterministically either

* embed a matching ``M`` between ``S`` and ``T`` that saturates ``S``, as a
  set of vertex-disjoint-*enough* paths of quality ``poly(1/psi) * polylog n``,
  or
* return a cut ``C`` of sparsity at most ``psi`` separating the unmatched
  sources from the unmatched sinks.

The paper realises this with a deterministic length-constrained flow / parallel
DFS machinery; we implement the same guarantee with a deterministic
congestion-capped multi-source BFS packing:

1. process sources in increasing ID order;
2. for the current source run a BFS restricted to edges whose current load is
   below the congestion cap and whose depth is below the dilation cap, looking
   for the nearest unmatched sink;
3. if every source is matched, return the matching embedding;
4. otherwise double the caps and retry; if the caps exceed the theoretical
   bound and sources remain unmatched, return the cut consisting of all
   vertices reachable from the unmatched sources within the capped region — by
   construction few edges leave that region, so its sparsity is small.

This preserves the behaviour the routing algorithm relies on: a saturating
matching embedding with quantified (and measured) congestion + dilation, or an
explicit sparse cut certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Iterable

from repro.embedding.embedding import Embedding, _virtual_edge_key
from repro.embedding.paths import Path
from repro.graphs.index import GraphIndex

__all__ = ["MatchingEmbedResult", "embed_matching"]


@dataclass
class MatchingEmbedResult:
    """Outcome of :func:`embed_matching`.

    Exactly one of the following holds:

    * ``saturated`` is True: ``matching`` pairs every source with a distinct
      sink and ``embedding`` holds a base-graph path per matched pair.
    * ``saturated`` is False: ``cut`` is a non-empty vertex set containing the
      unmatched sources with small sparsity (reported in ``cut_sparsity``).

    ``quality`` is the quality (congestion + dilation) of ``embedding``, and
    ``path_edges`` lists each embedded path's edge ids over the
    :class:`~repro.graphs.index.GraphIndex`, in ``matching`` order: callers
    that combine several embeddings take the union's quality from them
    (:func:`~repro.graphs.index.path_quality`).  The result is transient;
    nothing stores it on the hierarchy.
    """

    matching: dict[Hashable, Hashable] = field(default_factory=dict)
    embedding: Embedding = field(default_factory=Embedding)
    saturated: bool = False
    cut: frozenset = frozenset()
    cut_sparsity: float = math.inf
    congestion_cap_used: int = 0
    dilation_cap_used: int = 0
    quality: int = 0
    path_edges: list[list[int]] = field(default_factory=list)


def _capped_bfs_to_sink(
    neighbors: list[list[int]],
    edge_ids: list[list[int]],
    source: int,
    free_sink: bytearray,
    edge_load: list[int],
    congestion_cap: int,
    dilation_cap: int,
) -> tuple[list[int], list[int]] | None:
    """Shortest path from ``source`` to any free sink using only under-loaded edges.

    Works on the positions of a :class:`GraphIndex` (its ``neighbors`` and
    ``edge_ids``); neighbours are scanned in sorted order.  Returns the path's
    positions and the ids of its edges.
    """
    # Most searches end at depth 1.  The BFS scans the source's neighbours
    # first and in this order, so the first free sink behind an under-loaded
    # edge is the one it would return; only a miss pays for the BFS state.
    for neighbour, edge in zip(neighbors[source], edge_ids[source]):
        if free_sink[neighbour] and edge_load[edge] < congestion_cap:
            return [source, neighbour], [edge]
    parent = [-1] * len(neighbors)
    parent_edge = [-1] * len(neighbors)
    parent[source] = source
    frontier = [source]
    for _ in range(dilation_cap):
        deeper: list[int] = []
        for node in frontier:
            for neighbour, edge in zip(neighbors[node], edge_ids[node]):
                if parent[neighbour] >= 0 or edge_load[edge] >= congestion_cap:
                    continue
                parent[neighbour] = node
                parent_edge[neighbour] = edge
                if free_sink[neighbour]:
                    path, edges = [neighbour], []
                    current = neighbour
                    while current != source:
                        edges.append(parent_edge[current])
                        current = parent[current]
                        path.append(current)
                    path.reverse()
                    return path, edges
                deeper.append(neighbour)
        frontier = deeper
    return None


def _reachable_region(
    index: GraphIndex,
    seeds: list[int],
    edge_load: list[int],
    congestion_cap: int,
    dilation_cap: int,
) -> list[int]:
    """Positions reachable from ``seeds`` through under-loaded edges within the depth cap."""
    neighbors, edge_ids = index.neighbors, index.edge_ids
    inside = bytearray(len(index.vertices))
    for seed in seeds:
        inside[seed] = 1
    region = list(seeds)
    frontier = list(seeds)
    for _ in range(dilation_cap):
        deeper: list[int] = []
        for node in frontier:
            for neighbour, edge in zip(neighbors[node], edge_ids[node]):
                if inside[neighbour] or edge_load[edge] >= congestion_cap:
                    continue
                inside[neighbour] = 1
                deeper.append(neighbour)
        region.extend(deeper)
        frontier = deeper
    return region


def embed_matching(
    index: GraphIndex,
    sources: Iterable[Hashable],
    sinks: Iterable[Hashable],
    psi: float = 0.1,
    max_cap_doublings: int = 6,
) -> MatchingEmbedResult:
    """Embed a matching from ``sources`` into ``sinks`` saturating the sources (Lemma 2.3).

    Args:
        index: the :class:`~repro.graphs.index.GraphIndex` of the base graph
            (assumed connected, bounded degree).  Callers build it once per
            graph and reuse it for every matching they embed there.
        sources: the set ``S``; every source must be matched for success.
        sinks: the set ``T`` (disjoint from ``S``); ``|S| <= |T|`` required.
        psi: target sparsity of the fallback cut.
        max_cap_doublings: how many times the congestion/dilation caps are
            doubled before giving up and reporting a cut.

    Returns:
        A :class:`MatchingEmbedResult` with either a saturating matching or a
        sparse cut containing the unmatched sources.
    """
    source_list = sorted(set(sources))
    sink_set = set(sinks)
    if set(source_list) & sink_set:
        raise ValueError("sources and sinks must be disjoint")
    if len(source_list) > len(sink_set):
        raise ValueError("|S| must be at most |T| (Lemma 2.3 precondition)")
    if not source_list:
        return MatchingEmbedResult(saturated=True)

    vertices, position = index.vertices, index.position
    n = len(vertices)
    # Initial caps follow the lemma's quality target; the ball-growing diameter
    # bound O(psi^-1 log n) caps the dilation.
    base_dilation = max(2, int(math.ceil(2.0 * math.log(max(n, 2)) / max(psi, 1e-6))))
    base_congestion = max(2, int(math.ceil(1.0 / max(psi * psi, 1e-6))))
    base_congestion = min(base_congestion, 4 * n)
    base_dilation = min(base_dilation, 2 * n)

    congestion_cap = max(2, min(base_congestion, 8))
    dilation_cap = max(2, min(base_dilation, 16))

    neighbors, edge_ids = index.neighbors, index.edge_ids
    source_positions = [position[source] for source in source_list]
    sink_positions = [position[sink] for sink in sink_set if sink in position]
    for _ in range(max_cap_doublings + 1):
        matching: dict[Hashable, Hashable] = {}
        embedding = Embedding(name="matching")
        edge_load = [0] * index.edge_count
        free_sink = bytearray(n)
        for sink in sink_positions:
            free_sink[sink] = 1
        unmatched: list[Hashable] = []
        path_edges: list[list[int]] = []
        dilation = 0
        for source, at in zip(source_list, source_positions):
            found = _capped_bfs_to_sink(
                neighbors, edge_ids, at, free_sink, edge_load, congestion_cap, dilation_cap
            )
            if found is None:
                unmatched.append(source)
                continue
            path, edges = found
            free_sink[path[-1]] = 0
            sink = vertices[path[-1]]
            matching[source] = sink
            # The BFS path runs from ``source`` to ``sink``, so it needs none
            # of add_edge's endpoint checks.
            path_vertices = tuple(vertices[p] for p in path)
            embedding.mapping[_virtual_edge_key(source, sink)] = Path(path_vertices)
            path_edges.append(edges)
            dilation = max(dilation, len(edges))
            for edge in edges:
                edge_load[edge] += 1
        # The loads and lengths above are exactly the embedding's paths, so
        # its quality (congestion + dilation) needs no PathCollection rebuild.
        # Caching it leaves the embedding as a first read of ``.quality``
        # would, which keeps pickled shuffler embeddings unchanged.
        quality = max(edge_load, default=0) + dilation
        embedding._quality_cache = quality
        if not unmatched:
            return MatchingEmbedResult(
                matching=matching,
                embedding=embedding,
                saturated=True,
                congestion_cap_used=congestion_cap,
                dilation_cap_used=dilation_cap,
                quality=quality,
                path_edges=path_edges,
            )
        if congestion_cap >= base_congestion and dilation_cap >= base_dilation:
            # Report the sparse-cut certificate around the stuck sources.
            reached = _reachable_region(
                index,
                [position[v] for v in unmatched],
                edge_load,
                congestion_cap,
                dilation_cap,
            )
            region = {vertices[p] for p in reached} - sink_set
            if not region:
                region = set(unmatched)
            inside = bytearray(n)
            for vertex in region:
                inside[position[vertex]] = 1
            boundary = sum(
                1
                for vertex in region
                for neighbour in index.neighbors[position[vertex]]
                if not inside[neighbour]
            )
            denominator = min(len(region), n - len(region)) or 1
            return MatchingEmbedResult(
                matching=matching,
                embedding=embedding,
                saturated=False,
                cut=frozenset(region),
                cut_sparsity=boundary / denominator,
                congestion_cap_used=congestion_cap,
                dilation_cap_used=dilation_cap,
                quality=quality,
                path_edges=path_edges,
            )
        congestion_cap = min(base_congestion, congestion_cap * 2)
        dilation_cap = min(base_dilation, dilation_cap * 2)

    raise RuntimeError("embed_matching exhausted its cap doublings unexpectedly")
