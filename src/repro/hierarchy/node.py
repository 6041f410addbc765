"""Hierarchy nodes and the hierarchical decomposition tree (Property 3.1).

The decomposition ``T`` is a tree of vertex sets.  Each *good* node ``X``
carries:

* its virtual graph ``H_X`` (the root's virtual graph is ``G[X]`` itself,
  deeper virtual graphs are unions of embedded matchings of max degree
  ``O(log n)``);
* the embedding ``f_X`` of ``H_X`` into the parent's virtual graph
  ``H_{p(X)}``;
* its partition into parts ``X*_i = X_i ∪ X'_i`` where ``X_i`` is the good
  child (carrying its own virtual expander) and ``X'_i`` is the bad sibling
  matched into ``X_i`` (Property 3.1(3));
* the matching embedding ``f_{M_X}`` realising those ``X'_i -> X_i``
  matchings inside ``H_X``;
* after preprocessing, the node's *shuffler* (Definition 5.4).

``Xbest`` (Definition 3.6) is the union of good leaf descendants; every
routing destination is delegated to a best vertex, with at most
``rho_best = max_X |X| / |Xbest|`` (Definition 3.7) destinations per best
vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator, Optional

import networkx as nx

from repro.cutmatching.shuffler import Shuffler
from repro.embedding.embedding import Embedding, compose, identity_embedding

__all__ = ["Part", "HierarchyNode", "HierarchicalDecomposition"]


@dataclass
class Part:
    """One part ``X*_i = X_i ∪ X'_i`` of a good internal node.

    Attributes:
        index: the part index ``i`` (0-based).
        good_vertices: ``X_i`` — vertices covered by the child's virtual expander.
        bad_vertices: ``X'_i`` — leftover vertices matched into ``X_i``.
        matching: map from each bad vertex to its good mate (Property 3.1(3)).
        child: the good child hierarchy node built on ``X_i`` (None until built).
    """

    index: int
    good_vertices: frozenset
    bad_vertices: frozenset = frozenset()
    matching: dict[Hashable, Hashable] = field(default_factory=dict)
    child: Optional["HierarchyNode"] = None

    @property
    def vertices(self) -> frozenset:
        """All vertices of the part (good and bad)."""
        return self.good_vertices | self.bad_vertices

    @property
    def size(self) -> int:
        return len(self.good_vertices) + len(self.bad_vertices)


@dataclass
class HierarchyNode:
    """A good node of the hierarchical decomposition.

    The tree is held top-down only: a node reaches its children through
    ``parts`` and has no pointer back to its parent.  A decomposition is
    therefore free of reference cycles, and a dropped artifact is freed by
    reference counting as soon as its last reference goes, without waiting
    for a full garbage collection.  What needs a node's ancestors walks down
    from the root (:meth:`HierarchicalDecomposition.flatten_embedding`); the
    builder records the one per-node value that depends on them,
    ``flatten_quality_cache``, top-down.

    Attributes:
        vertices: the node's vertex set ``X``.
        level: depth in the tree (the root is level 0).
        virtual_graph: ``H_X``.
        embedding_to_parent: ``f_X``, ``H_X`` into the parent's virtual graph
            (an empty embedding at the root).
        parts: the parts ``X*_i``, each holding its good child.
        part_matching_embedding: ``f_{M_X}``, the bad-to-good matchings.
        shuffler: the node's shuffler, set by preprocessing.
        is_leaf: whether the node is a leaf component.
        sorting_network_quality: quality factor of the node's sorting network.
        flatten_quality_cache: ``Q(f^0_X)``; the builder sets it top-down from
            the parent's value (1 at the root).
    """

    vertices: frozenset
    level: int
    virtual_graph: nx.Graph
    embedding_to_parent: Embedding
    parts: list[Part] = field(default_factory=list)
    part_matching_embedding: Embedding = field(default_factory=Embedding)
    shuffler: Optional[Shuffler] = None
    is_leaf: bool = False
    sorting_network_quality: int = 1
    flatten_quality_cache: int = 1

    # -- basic structure ---------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.vertices)

    @property
    def children(self) -> list["HierarchyNode"]:
        return [part.child for part in self.parts if part.child is not None]

    def part_of_vertex(self) -> dict:
        """Map each vertex of this node to the index of the part containing it."""
        result: dict = {}
        for part in self.parts:
            for vertex in part.vertices:
                result[vertex] = part.index
        return result

    def iter_subtree(self) -> Iterator["HierarchyNode"]:
        """Pre-order traversal of the subtree rooted at this node."""
        yield self
        for child in self.children:
            yield from child.iter_subtree()

    # -- best vertices (Definitions 3.6 / 3.7) ------------------------------

    def best_vertices(self) -> list:
        """``Xbest``: sorted union of good-leaf vertices in this subtree."""
        if self.is_leaf:
            return sorted(self.vertices)
        collected: set = set()
        for child in self.children:
            collected.update(child.best_vertices())
        return sorted(collected)

    def best_ratio(self) -> float:
        """``|X| / |Xbest|`` for this node (contributes to rho_best)."""
        best = self.best_vertices()
        if not best:
            return float("inf")
        return len(self.vertices) / len(best)

    # -- embeddings ---------------------------------------------------------

    def flatten_quality(self) -> int:
        """Quality upper bound of ``f^0_X`` (Corollary 3.4 accounting).

        The product of the per-level embedding qualities along the path to the
        root, recorded by the builder because it is read on every routing query.
        """
        return self.flatten_quality_cache

    def virtual_diameter(self) -> int:
        """Diameter of the node's virtual graph (used in round accounting).

        A disconnected virtual graph is charged its vertex count.  The
        hierarchy builder records it as a plain int when it creates the node,
        from the boolean adjacency matrix it already holds (the root's from
        its :class:`~repro.graphs.index.GraphIndex`).
        """
        return self._diameter


@dataclass
class HierarchicalDecomposition:
    """The full decomposition: the root node plus global metadata.

    Attributes:
        root: the root good node ``W`` (covers >= 2/3 of the graph's vertices).
        graph: the original base graph ``G``.
        uncovered: vertices of ``G`` outside the root (``V \\ W``).
        root_matching: map from each uncovered vertex to its mate in ``W``
            (Lemma 3.5), with its path embedding in ``root_matching_embedding``.
        epsilon: the tradeoff parameter the decomposition was built with.
        build_rounds: CONGEST rounds charged for the construction (Thm 3.2).
    """

    root: HierarchyNode
    graph: nx.Graph
    uncovered: frozenset = frozenset()
    root_matching: dict[Hashable, Hashable] = field(default_factory=dict)
    root_matching_embedding: Embedding = field(default_factory=Embedding)
    epsilon: float = 0.5
    build_rounds: int = 0

    def all_nodes(self) -> list[HierarchyNode]:
        """All good nodes of the hierarchy in pre-order."""
        return list(self.root.iter_subtree())

    def levels(self) -> int:
        """Number of levels ``ell(T)`` (root is level 0)."""
        return 1 + max(node.level for node in self.all_nodes())

    def leaves(self) -> list[HierarchyNode]:
        return [node for node in self.all_nodes() if node.is_leaf]

    def best_vertices(self) -> list:
        """``Vbest`` of the whole decomposition, sorted by ID."""
        return self.root.best_vertices()

    def rho_best(self) -> float:
        """``rho_best = max_X |X| / |Xbest|`` (Definition 3.7)."""
        return max(node.best_ratio() for node in self.all_nodes())

    def flatten_embedding(self, node: HierarchyNode) -> Embedding:
        """The flatten embedding ``f^0_X`` of Definition 3.3 (``H_X`` into the root graph).

        Composes ``f_X`` with the embedding of every ancestor below the root;
        the root's flatten embedding is the identity on its own virtual graph.
        Nodes hold no parent pointer, so the ancestors are found from the
        root down: sibling vertex sets are disjoint, so one vertex of ``node``
        picks the child to descend into at every level.

        Raises:
            ValueError: if ``node`` is not a node of this decomposition.
        """
        if node is self.root:
            return identity_embedding(node.virtual_graph, name="f0-root")
        probe = next(iter(node.vertices), None)
        above: list[Embedding] = []
        current: Optional[HierarchyNode] = self.root
        while current is not node:
            if current is None:
                raise ValueError("node is not part of this decomposition")
            if current is not self.root:
                above.append(current.embedding_to_parent)
            current = next((child for child in current.children if probe in child.vertices), None)
        flattened = node.embedding_to_parent
        for embedding in reversed(above):
            flattened = compose(embedding, flattened)
        return flattened

    def node_of_vertex(self, vertex: Hashable, level: int) -> Optional[HierarchyNode]:
        """The good node at ``level`` whose vertex set contains ``vertex`` (if any)."""
        for node in self.all_nodes():
            if node.level == level and vertex in node.vertices:
                return node
        return None
