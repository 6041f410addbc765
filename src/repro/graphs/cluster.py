"""Cluster (quotient) graphs: contracting the parts of a partition.

Definition 5.1 of the paper: given a good node ``X`` with parts
``X*_1, ..., X*_t``, the cluster graph ``Y`` is the multigraph obtained by
contracting each part to a single vertex.  The cut player of the cut-matching
game runs on ``Y`` while the matching player works on ``X``; matchings of
``X`` are translated to *fractional matchings* of ``Y`` by normalisation.

This module provides the contraction, the membership maps both ways, and the
natural-fractional-matching translation used by the shuffler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import networkx as nx

__all__ = ["ClusterGraph", "build_cluster_graph", "natural_fractional_matching"]


@dataclass
class ClusterGraph:
    """A contracted multigraph ``Y`` over a partition of the base graph ``X``.

    Attributes:
        base: the base graph ``X``.
        parts: the ordered list of vertex sets (``X*_1 .. X*_t``).
        part_of: maps each base vertex to its part index.

    The contracted multigraph itself, :attr:`graph`, is built on first use:
    the cut-matching game reads only the parts and ``part_of``.
    """

    base: nx.Graph
    parts: list[frozenset]
    part_of: dict = field(default_factory=dict)

    @cached_property
    def graph(self) -> nx.MultiGraph:
        """The contracted multigraph; node ``i`` corresponds to ``parts[i]``."""
        contracted = nx.MultiGraph()
        contracted.add_nodes_from(range(len(self.parts)))
        part_of = self.part_of
        for u, v in self.base.edges():
            if u in part_of and v in part_of:
                pu, pv = part_of[u], part_of[v]
                if pu != pv:
                    contracted.add_edge(pu, pv)
        return contracted

    @property
    def size(self) -> int:
        """Number of cluster vertices ``t``."""
        return len(self.parts)

    def part_members(self, index: int) -> frozenset:
        """Vertices of the base graph belonging to cluster vertex ``index``."""
        return self.parts[index]

    def expand(self, cluster_nodes: Iterable[int]) -> set:
        """Return ``S_X``: the base vertices corresponding to cluster vertices ``S``."""
        result: set = set()
        for index in cluster_nodes:
            result.update(self.parts[index])
        return result

    def crossing_edges(self, i: int, j: int) -> int:
        """Number of base edges between part ``i`` and part ``j``."""
        return self.graph.number_of_edges(i, j)


def build_cluster_graph(base: nx.Graph, parts: Sequence[Iterable]) -> ClusterGraph:
    """Contract each part of ``parts`` in ``base`` into a single cluster vertex.

    Parts must be disjoint; vertices of ``base`` not covered by any part are
    ignored (the hierarchy only contracts the good node's own vertices).
    """
    frozen_parts = [frozenset(part) for part in parts]
    part_of: dict = {}
    for index, part in enumerate(frozen_parts):
        for vertex in part:
            if vertex in part_of:
                raise ValueError(f"vertex {vertex!r} appears in two parts")
            part_of[vertex] = index
    return ClusterGraph(base=base, parts=frozen_parts, part_of=part_of)


def natural_fractional_matching(
    cluster: ClusterGraph,
    matching_edges: Iterable[tuple],
    normalizer: float | None = None,
) -> dict[tuple[int, int], float]:
    """Translate a matching of the base graph to a fractional matching of ``Y``.

    Definition 5.1: ``x_{uv} = |{(a, b) in M_X : a in X*_u, b in X*_v}| / n'``
    where ``n' = 6 |X| / k`` (an upper bound on the part size).  We accept an
    explicit ``normalizer`` so the caller can pass the paper's ``n'``; when it
    is omitted we use the maximum part size, which keeps every fractional
    degree at most one.

    Matching edges whose endpoints land in the same part contribute nothing
    (they would be self-loops of ``Y``).
    """
    edges = list(matching_edges)
    if normalizer is None:
        normalizer = float(max((len(part) for part in cluster.parts), default=1))
    if normalizer <= 0:
        raise ValueError("normalizer must be positive")

    counts: dict[tuple[int, int], int] = {}
    for a, b in edges:
        if a not in cluster.part_of or b not in cluster.part_of:
            continue
        pa, pb = cluster.part_of[a], cluster.part_of[b]
        if pa == pb:
            continue
        key = (pa, pb) if pa < pb else (pb, pa)
        counts[key] = counts.get(key, 0) + 1

    fractional = {key: count / normalizer for key, count in counts.items()}

    # Clamp so that every cluster vertex has fractional degree at most one
    # (guaranteed by the paper's parameters; enforced here for robustness).
    degree: dict[int, float] = {}
    for (u, v), value in fractional.items():
        degree[u] = degree.get(u, 0.0) + value
        degree[v] = degree.get(v, 0.0) + value
    overload = max(degree.values(), default=0.0)
    if overload > 1.0:
        fractional = {key: value / overload for key, value in fractional.items()}
    return fractional
