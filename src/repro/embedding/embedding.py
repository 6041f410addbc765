"""Embeddings of virtual graphs into base graphs.

Section 2: an embedding of ``H1`` into ``H2`` (with ``V(H1) ⊆ V(H2)``) is a
map ``f : E(H1) -> P(H2)`` from virtual edges to base-graph paths.  The
quality of the embedding is the quality of the union of its paths.  Embeddings
compose (``g ∘ f``) and union (``f ∪ g`` on disjoint virtual graphs); the
hierarchical decomposition uses composition to "flatten" a virtual edge at
level ``i`` all the way down to a path in the original graph ``G``
(Definition 3.3), and Corollary 3.4 bounds the quality blow-up of flattening.

An :class:`Embedding` here maps *undirected virtual edges* (stored as sorted
pairs) to :class:`~repro.embedding.paths.Path` objects whose endpoints are the
edge's endpoints in the base graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator

import networkx as nx

from repro.embedding.paths import Path, PathCollection
from repro.graphs.index import iter_edges

__all__ = ["Embedding", "identity_embedding", "compose", "union"]


def _virtual_edge_key(u: Hashable, v: Hashable) -> tuple:
    return (u, v) if repr(u) <= repr(v) else (v, u)


@dataclass
class Embedding:
    """A map from virtual edges to base-graph paths.

    Attributes:
        mapping: virtual edge key -> base path realising the edge.
        name: optional label used in diagnostics ("H_X1 -> H_X", ...).
    """

    mapping: dict[tuple, Path] = field(default_factory=dict)
    name: str = ""

    # -- construction -----------------------------------------------------

    def add_edge(self, u: Hashable, v: Hashable, path: Path) -> None:
        """Record that virtual edge ``(u, v)`` is realised by ``path``.

        The path's endpoints must be ``{u, v}`` (in either orientation) unless
        the edge is a self-loop surrogate of length 0.
        """
        key = _virtual_edge_key(u, v)
        endpoints = {path.source, path.target}
        if endpoints != {u, v} and not (u == v and len(endpoints) == 1):
            raise ValueError(
                f"path endpoints {endpoints} do not match virtual edge ({u!r}, {v!r})"
            )
        self.mapping[key] = path
        self._quality_cache = None

    def path_for(self, u: Hashable, v: Hashable) -> Path:
        """Base path realising the virtual edge ``(u, v)``, oriented ``u -> v``."""
        key = _virtual_edge_key(u, v)
        path = self.mapping[key]
        if path.source == u:
            return path
        return path.reversed()

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        return _virtual_edge_key(u, v) in self.mapping

    # -- measures ----------------------------------------------------------

    def path_collection(self) -> PathCollection:
        """All base paths of the embedding as a collection (for quality)."""
        return PathCollection(self.mapping.values())

    @property
    def quality(self) -> int:
        """Quality ``Q(f)`` of the embedding (Section 2): congestion + dilation of its paths.

        Preprocessing records it when it builds the embedding, from the edge
        ids of the paths it has just found
        (:func:`~repro.graphs.index.path_quality`), so under the numpy kernel
        a read builds no :class:`PathCollection`.  The reference kernel always
        recomputes it from the paths, which keeps its round counts an
        independent check of the recorded values.  An embedding with no
        recorded value (built by hand, or changed through :meth:`add_edge`,
        which clears it) computes and records it on first read.  The value is
        a lazily attached attribute, so artifacts pickled without it load.
        """
        from repro.kernels import use_numpy

        cached = getattr(self, "_quality_cache", None)
        if cached is not None and use_numpy():
            return cached
        value = self.path_collection().quality
        self._quality_cache = value
        return value

    def virtual_edges(self) -> Iterator[tuple]:
        return iter(self.mapping.keys())

    def virtual_graph(self) -> nx.Graph:
        """The virtual graph induced by the embedded edges."""
        graph = nx.Graph()
        for u, v in self.mapping.keys():
            graph.add_edge(u, v)
        return graph

    def embed_path(self, virtual_path: Path) -> Path:
        """Map a path of virtual edges to the concatenated base path.

        This is the paper's extension of ``f`` from edges to paths
        (``f(e1, ..., el) = (f(e1), ..., f(el))``).
        """
        vertices = virtual_path.vertices
        if len(vertices) == 1:
            return Path(vertices)
        result: Path | None = None
        for u, v in zip(vertices, vertices[1:]):
            segment = self.path_for(u, v)
            result = segment if result is None else result.concatenate(segment)
        assert result is not None
        return result

    def __len__(self) -> int:
        return len(self.mapping)


def identity_embedding(graph: nx.Graph, name: str = "identity") -> Embedding:
    """The identity embedding: every edge maps to itself (the root of the hierarchy)."""
    embedding = Embedding(name=name)
    for u, v in iter_edges(graph):
        embedding.add_edge(u, v, Path((u, v)))
    return embedding


def compose(outer: Embedding, inner: Embedding, name: str = "") -> Embedding:
    """Compose two embeddings: ``(outer ∘ inner)(e) = outer(inner(e))``.

    ``inner`` embeds ``H1`` into ``H2`` and ``outer`` embeds ``H2`` into
    ``H3``; the result embeds ``H1`` into ``H3``.  Every inner path is mapped
    edge by edge through ``outer`` and concatenated.
    """
    result = Embedding(name=name or f"{outer.name}∘{inner.name}")
    for (u, v), inner_path in inner.mapping.items():
        if inner_path.length == 0:
            result.mapping[_virtual_edge_key(u, v)] = inner_path
            continue
        flattened = outer.embed_path(inner_path)
        result.mapping[_virtual_edge_key(u, v)] = flattened
    return result


def union(embeddings: Iterable[Embedding], name: str = "union") -> Embedding:
    """Union of embeddings over disjoint virtual edge sets (``f ∪ g`` in Section 2)."""
    result = Embedding(name=name)
    for embedding in embeddings:
        for key, path in embedding.mapping.items():
            if key in result.mapping:
                raise ValueError(f"virtual edge {key} embedded twice in a union")
            result.mapping[key] = path
    return result
