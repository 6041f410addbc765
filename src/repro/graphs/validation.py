"""Validation helpers for graphs and partitions used across the library.

Centralising these checks keeps error messages consistent and gives the
property-based tests a single place to target.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import networkx as nx

from repro.graphs.index import vertex_degree

__all__ = [
    "require_connected",
    "require_integer_nodes",
    "require_constant_degree",
    "require_partition",
    "max_degree",
    "canonicalize",
]


def require_connected(graph: nx.Graph) -> None:
    """Raise ``ValueError`` if ``graph`` is empty or disconnected."""
    if graph.number_of_nodes() == 0:
        raise ValueError("graph must be non-empty")
    if not nx.is_connected(graph):
        raise ValueError("graph must be connected")


def require_integer_nodes(graph: nx.Graph) -> None:
    """Raise ``ValueError`` unless every node is an ``int``.

    The routing machinery keys destination ranks off integer-ordered IDs
    (the paper assumes IDs in ``[1, poly(n)]``), so we insist on integers.
    """
    for node in graph.nodes():
        if not isinstance(node, int):
            raise ValueError(f"graph nodes must be integers, got {node!r}")


def max_degree(graph: nx.Graph) -> int:
    """Maximum degree of the graph (0 for an empty graph)."""
    if graph.number_of_nodes() == 0:
        return 0
    return max(vertex_degree(graph, vertex) for vertex in graph)


def require_constant_degree(graph: nx.Graph, bound: int) -> None:
    """Raise ``ValueError`` if any vertex exceeds the degree ``bound``."""
    worst = max_degree(graph)
    if worst > bound:
        raise ValueError(f"maximum degree {worst} exceeds the bound {bound}")


def require_partition(universe: Iterable, parts: Sequence[Iterable]) -> None:
    """Raise ``ValueError`` unless ``parts`` partitions ``universe`` exactly."""
    universe_set = set(universe)
    seen: set = set()
    for index, part in enumerate(parts):
        part_set = set(part)
        if not part_set:
            raise ValueError(f"part {index} is empty")
        overlap = seen & part_set
        if overlap:
            raise ValueError(f"parts overlap on {sorted(overlap)[:5]}")
        extra = part_set - universe_set
        if extra:
            raise ValueError(f"part {index} contains foreign vertices {sorted(extra)[:5]}")
        seen |= part_set
    missing = universe_set - seen
    if missing:
        raise ValueError(f"partition misses vertices {sorted(missing)[:5]}")


def canonicalize(graph: nx.Graph) -> nx.Graph:
    """Return a copy of ``graph`` with nodes relabelled to ``0..n-1`` in sorted order."""
    nodes = sorted(graph.nodes(), key=repr)
    mapping = {node: index for index, node in enumerate(nodes)}
    return nx.relabel_nodes(graph, mapping, copy=True)
