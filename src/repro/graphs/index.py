"""Integer views of a graph for the array-native preprocessing paths.

Preprocessing walks the same virtual graphs many times: the capped BFS of the
matching embedder (Lemma 2.3) runs once per source, and the per-block
cut-matching game re-checks connectivity and expansion after every matching.
Doing that through networkx objects costs far more than the work itself, so
these paths run on integers instead:

* :class:`GraphIndex` — a graph's vertices in sorted order with, per position,
  its neighbour positions in sorted order and the undirected edge id of each
  incidence.  It is built once per virtual graph and passed explicitly; it is
  never cached on the graph and never pickled.
* :func:`component_labels` and :func:`diameter` — networkx's connected
  components and diameter on a dense boolean adjacency matrix, for the small
  virtual graphs of the hierarchy.
* :func:`iter_edges` and :func:`vertex_degree` — a graph's edges in
  ``graph.edges()`` order and a vertex's degree, without the views networkx
  would cache on the graph.
* :func:`path_quality` — the quality (congestion + dilation, Section 2) of a
  set of paths given as lists of :class:`GraphIndex` edge ids, which is how
  the matching embedder finds them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import networkx as nx
import numpy as np

__all__ = [
    "GraphIndex",
    "component_labels",
    "diameter",
    "iter_edges",
    "path_quality",
    "vertex_degree",
]


@dataclass(frozen=True)
class GraphIndex:
    """A graph's adjacency over integer positions.

    Attributes:
        vertices: the vertices in sorted order; position ``i`` is ``vertices[i]``.
        position: vertex -> position.
        neighbors: per position, its neighbour positions in increasing order —
            the order of ``sorted(graph.neighbors(v))``.
        edge_ids: per position, the undirected edge id of each entry of
            ``neighbors`` (both endpoints see the same id).
        edge_count: number of undirected edges (ids are ``0..edge_count-1``).
    """

    vertices: list
    position: dict
    neighbors: list[list[int]]
    edge_ids: list[list[int]]
    edge_count: int

    @classmethod
    def of(cls, graph: nx.Graph) -> "GraphIndex":
        """Index ``graph`` (vertices must be mutually orderable)."""
        vertices = sorted(graph.nodes())
        size = len(vertices)
        position = {vertex: i for i, vertex in enumerate(vertices)}
        adjacency = graph.adj
        neighbors = [sorted([position[u] for u in adjacency[vertex]]) for vertex in vertices]
        degrees = [len(row) for row in neighbors]
        heads = np.repeat(np.arange(size), degrees)
        tails = np.fromiter(itertools.chain.from_iterable(neighbors), np.intp, len(heads))
        # Both incidences of an edge share the key min*size+max, hence one id.
        keys = np.minimum(heads, tails) * size + np.maximum(heads, tails)
        distinct, ids = np.unique(keys, return_inverse=True)
        flat = ids.tolist()
        bounds = list(itertools.accumulate(degrees, initial=0))
        edge_ids = [flat[start:stop] for start, stop in zip(bounds, bounds[1:])]
        return cls(vertices, position, neighbors, edge_ids, len(distinct))

    def adjacency(self) -> np.ndarray:
        """The graph as a dense boolean matrix over positions."""
        size = len(self.vertices)
        rows = np.repeat(np.arange(size), [len(row) for row in self.neighbors])
        columns = np.fromiter(itertools.chain.from_iterable(self.neighbors), np.intp, len(rows))
        matrix = np.zeros((size, size), dtype=bool)
        matrix[rows, columns] = True
        return matrix


def iter_edges(graph: nx.Graph, data: bool = False) -> Iterator[tuple]:
    """The edges of ``graph`` in the order of ``graph.edges(data=data)``.

    ``graph.edges`` caches an ``EdgeView`` on the graph that refers back to the
    graph, a reference cycle that only a full garbage collection frees.  The
    library reads graphs through this function instead (``graph.adj`` caches
    a view of the adjacency dicts only), so the graphs an artifact holds, and
    the caller's, stay acyclic.  With ``data`` each edge comes with its
    attribute dict; a multigraph yields one edge per key.
    """
    multi = graph.is_multigraph()
    undirected = not graph.is_directed()
    seen: set = set()
    for u, neighbors in graph.adj.items():
        for v, datum in neighbors.items():
            if v in seen:
                continue
            for attributes in datum.values() if multi else (datum,):
                yield (u, v, attributes) if data else (u, v)
        if undirected:
            seen.add(u)


def vertex_degree(graph: nx.Graph, vertex) -> int:
    """``graph.degree(vertex)`` without the ``DegreeView`` networkx caches on the graph.

    A self-loop counts twice, as in networkx.
    """
    if graph.is_directed():
        sides = (graph.succ[vertex], graph.pred[vertex])
    else:
        neighbors = graph.adj[vertex]
        sides = (neighbors, {vertex: neighbors[vertex]} if vertex in neighbors else {})
    if graph.is_multigraph():
        return sum(len(keys) for side in sides for keys in side.values())
    return sum(map(len, sides))


def component_labels(adjacency: np.ndarray) -> np.ndarray:
    """Connected-component label of every row of a symmetric boolean ``adjacency``.

    Components are numbered ``0, 1, ...`` in increasing order of their
    smallest position, so ``labels.max() == 0`` means connected and a stable
    sort by label groups whole components in that order.
    """
    size = len(adjacency)
    smallest = np.arange(size)
    while True:
        # Every vertex takes the smallest position among itself and its
        # neighbours; after (largest component diameter) steps it is stable.
        neighbours = np.where(adjacency, smallest, size).min(axis=1, initial=size)
        spread = np.minimum(smallest, neighbours)
        if np.array_equal(spread, smallest):
            # A component's smallest position is the one that kept itself.
            roots = smallest == np.arange(size)
            return np.cumsum(roots)[smallest] - 1
        smallest = spread


def diameter(adjacency: np.ndarray) -> int | None:
    """Largest hop distance between two rows of ``adjacency``; ``None`` if disconnected.

    All sources advance together, one boolean matrix product per BFS level.
    """
    size = len(adjacency)
    step = adjacency.astype(np.float32)
    reached = np.eye(size, dtype=bool)
    frontier = reached
    hops = 0
    while not reached.all():
        frontier = (frontier.astype(np.float32) @ step > 0) & ~reached
        if not frontier.any():
            return None
        reached |= frontier
        hops += 1
    return hops


def path_quality(paths: list[list[int]]) -> int:
    """Congestion + dilation of ``paths``, each the edge ids of one path over a :class:`GraphIndex`.

    Equal to the quality of the same paths as a
    :class:`~repro.embedding.paths.PathCollection` (Section 2): a multiset, so
    a path listed twice loads its edges twice.
    """
    if not paths:
        return 0
    ids = np.fromiter(itertools.chain.from_iterable(paths), np.intp)
    return int(np.bincount(ids).max(initial=0)) + max(map(len, paths))
