"""Vectorized cut/expansion estimators — numpy twins of :mod:`repro.graphs.conductance`.

Two kernels:

* :func:`exact_conductance_numpy` / :func:`exact_sparsity_numpy` — brute-force
  minimisation over all cuts, with subsets encoded as bitmasks.  Each edge
  contributes ``in(u) XOR in(v)`` to the boundary of every subset at once, so
  the whole enumeration is ``O(E * 2^(n-1))`` vectorized word operations
  instead of ``2^(n-1)`` Python set constructions.
* :func:`sweep_cut_best_prefix_numpy` — the Fiedler sweep's prefix scan: when
  the prefix grows by one vertex ``v``, the boundary changes by
  ``deg(v) - 2 * |N(v) ∩ prefix|``, so all prefix conductances come from two
  cumulative sums over the reordered adjacency matrix.

Every division performed here is the same IEEE-754 operation the reference
implementations perform on the same integers, so minima (and therefore the
selected cuts) are identical, not merely close.
"""

from __future__ import annotations

import math
from typing import Sequence

import networkx as nx
import numpy as np

__all__ = [
    "exact_conductance_numpy",
    "exact_sparsity_numpy",
    "sweep_cut_best_prefix_numpy",
]


def _subset_boundaries(graph: nx.Graph, nodes: list) -> tuple[np.ndarray, np.ndarray]:
    """Boundary size and volume of every subset containing ``nodes[0]``.

    Subsets are encoded as masks over ``nodes[1:]`` (bit ``i`` = ``nodes[i+1]``
    in the subset); ``nodes[0]`` is always a member, which enumerates each cut
    exactly once.  Returns ``(boundary, volume)`` arrays of length ``2^(n-1)``.
    """
    n = len(nodes)
    index = {node: i for i, node in enumerate(nodes)}
    masks = np.arange(1 << (n - 1), dtype=np.int64)

    # Membership indicator per vertex per mask; vertex 0 is always inside.
    member = np.empty((n, masks.size), dtype=bool)
    member[0] = True
    for i in range(1, n):
        member[i] = (masks >> (i - 1)) & 1 == 1

    boundary = np.zeros(masks.size, dtype=np.int64)
    for u, v in graph.edges():
        iu, iv = index[u], index[v]
        if iu == iv:
            continue
        boundary += member[iu] ^ member[iv]

    degrees = np.array([graph.degree(node) for node in nodes], dtype=np.int64)
    volume = np.zeros(masks.size, dtype=np.int64)
    for i in range(n):
        volume += degrees[i] * member[i]
    return boundary, volume


def exact_conductance_numpy(graph: nx.Graph) -> float:
    """Exact ``Phi(G)`` by vectorized brute force (identical to the reference)."""
    nodes = list(graph.nodes())
    n = len(nodes)
    if n < 2:
        return math.inf
    boundary, volume = _subset_boundaries(graph, nodes)
    total_volume = int(sum(graph.degree(node) for node in nodes))
    denominator = np.minimum(volume, total_volume - volume)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(denominator > 0, boundary / denominator, math.inf)
    phi[-1] = math.inf  # the full vertex set is not a cut
    return float(phi.min())


def exact_sparsity_numpy(graph: nx.Graph) -> float:
    """Exact ``Psi(G)`` by vectorized brute force (identical to the reference)."""
    nodes = list(graph.nodes())
    n = len(nodes)
    if n < 2:
        return math.inf
    boundary, _ = _subset_boundaries(graph, nodes)
    masks = np.arange(1 << (n - 1), dtype=np.uint64)
    sizes = np.ones(masks.size, dtype=np.int64)
    for i in range(n - 1):
        sizes += ((masks >> np.uint64(i)) & np.uint64(1)).astype(np.int64)
    denominator = np.minimum(sizes, n - sizes)
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = np.where(denominator > 0, boundary / denominator, math.inf)
    psi[-1] = math.inf
    return float(psi.min())


def sweep_cut_best_prefix_numpy(
    adjacency: np.ndarray, degrees: np.ndarray, order: Sequence[int]
) -> int:
    """Index ``k`` so that ``order[: k + 1]`` is the best (first-minimum) sweep prefix.

    ``adjacency`` is the graph's integer adjacency matrix and ``degrees`` its
    vertex degrees, both over the same vertex positions; ``order`` is the
    Fiedler sweep order over those positions.  The caller builds the final
    :class:`~repro.graphs.conductance.CutReport` from the returned prefix.
    Ties resolve to the earliest prefix, matching the reference's
    strict-improvement scan.
    """
    n = len(order)
    order = np.asarray(order)
    ordered = adjacency[order][:, order]
    degrees = degrees[order]
    total_volume = int(degrees.sum())

    # Neighbours of each vertex that precede it in the sweep order.
    preceding = np.tril(ordered, k=-1).sum(axis=1)
    internal = 2 * np.cumsum(preceding)
    cumulative_volume = np.cumsum(degrees)
    boundary = cumulative_volume - internal

    prefix_volume = cumulative_volume[: n - 1]
    prefix_boundary = boundary[: n - 1]
    denominator = np.minimum(prefix_volume, total_volume - prefix_volume)
    with np.errstate(divide="ignore", invalid="ignore"):
        conductance = np.where(
            denominator > 0, prefix_boundary / denominator, math.inf
        )
    return int(np.argmin(conductance))
