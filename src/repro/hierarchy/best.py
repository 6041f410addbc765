"""Best-vertex delegation utilities (Definitions 3.6, 3.7 and Appendix D).

The routing reduction (Task 1 -> Task 2) delegates every destination vertex
``v`` to a *best* vertex ``h(v)`` — a vertex covered by some good leaf of the
hierarchy — so the recursive machinery only ever has to deliver tokens to best
vertices, identified by their rank in the sorted order of ``Vbest``.

This module computes:

* the sorted list of best vertices and the rank lookup both ways;
* the delegation map ``h(v) = rank-(ID(v) mod |Vbest|)`` best vertex, whose
  pre-image sizes are bounded by ``ceil(n / |Vbest|) <= rho_best`` — this is
  the load-balance property Appendix D relies on;
* per-node prefix counts of best vertices per part, which is what lets a
  query rewrite a destination marker ``i_z`` into ``(j_z, i'_z)`` locally
  (Section 4).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Hashable

from repro.hierarchy.node import HierarchicalDecomposition, HierarchyNode

__all__ = ["BestVertexIndex", "build_best_index"]


@dataclass
class BestVertexIndex:
    """Delegation structure over the best vertices of a decomposition.

    Attributes:
        best_vertices: ``Vbest`` sorted by ID.
        rank_of: vertex -> its rank in ``Vbest`` (only best vertices appear).
        delegate_of: every graph vertex -> the best vertex responsible for it.
        delegated_to: best vertex -> sorted list of vertices it represents.
    """

    best_vertices: list
    rank_of: dict[Hashable, int] = field(default_factory=dict)
    delegate_of: dict[Hashable, Hashable] = field(default_factory=dict)
    delegated_to: dict[Hashable, list] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.best_vertices)

    def best_by_rank(self, rank: int) -> Hashable:
        """The ``rank``-th smallest best vertex (0-based)."""
        return self.best_vertices[rank]

    def max_delegation_load(self) -> int:
        """Largest number of vertices delegated to a single best vertex."""
        if not self.delegated_to:
            return 0
        return max(len(group) for group in self.delegated_to.values())


def build_best_index(decomposition: HierarchicalDecomposition) -> BestVertexIndex:
    """Compute the best-vertex delegation for a decomposition (Appendix D's ``h``)."""
    best = decomposition.best_vertices()
    if not best:
        raise ValueError("decomposition has no best vertices; cannot delegate destinations")
    rank_of = {vertex: rank for rank, vertex in enumerate(best)}
    all_vertices = sorted(decomposition.graph.nodes())
    delegate_of: dict[Hashable, Hashable] = {}
    delegated_to: dict[Hashable, list] = {vertex: [] for vertex in best}
    for position, vertex in enumerate(all_vertices):
        delegate = best[position % len(best)]
        delegate_of[vertex] = delegate
        delegated_to[delegate].append(vertex)
    return BestVertexIndex(
        best_vertices=best,
        rank_of=rank_of,
        delegate_of=delegate_of,
        delegated_to=delegated_to,
    )


def best_counts_per_part(node: HierarchyNode) -> list[int]:
    """Number of best vertices inside each part of an internal node.

    Together with Property 3.1(1) (parts are ID-contiguous and best vertices
    inherit that order) this is exactly the information a vertex needs to
    rewrite a destination marker ``i_z`` into ``(j_z, i'_z)`` at query time.
    """
    return [len(part.child.best_vertices()) if part.child is not None else 0 for part in node.parts]


def locate_best_rank(node: HierarchyNode, marker: int) -> tuple[int, int]:
    """Rewrite a destination marker at an internal node (Section 4).

    Returns ``(j_z, i'_z)``: the index of the part containing the ``marker``-th
    best vertex of ``node`` and the marker relative to that part.  Bisects the
    node's cumulative best counts, built on first use and attached to the
    node (a pure function of the frozen hierarchy).
    """
    ends = getattr(node, "_best_rank_ends", None)
    if ends is None:
        ends = node._best_rank_ends = list(accumulate(best_counts_per_part(node)))
    index = bisect_right(ends, marker)
    if index == len(ends):
        raise IndexError(
            f"marker {marker} out of range for node with {ends[-1] if ends else 0} best vertices"
        )
    return index, marker - (ends[index - 1] if index else 0)
