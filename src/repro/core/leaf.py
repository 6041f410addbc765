"""Leaf-component routing (Lemma 6.5, Section 6.4).

On a leaf component ``X`` the whole topology was gathered during
preprocessing and an AKS-style sorting network ``I_AKS`` over the component's
vertices was fixed (we use the Batcher network: README, "Deviations from the
paper", item 1).  A query is
answered with three passes over the network (serialization pass, counting
pass, and the final meet-in-the-middle pass pairing query tokens with per
destination dummy tokens), after which each token is walked to the vertex
whose rank equals its destination marker.

Round cost: preprocessing ``poly(psi^-1, k, log^{1/eps} n)`` (charged when the
hierarchy is built); each query ``O(L * log|X|) * Q(I_AKS)^2`` rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.core.cost import CostLedger, sort_round_cost
from repro.core.tokens import Token
from repro.hierarchy.node import HierarchyNode

__all__ = ["LeafRoutingResult", "route_in_leaf"]


@dataclass
class LeafRoutingResult:
    """Outcome of routing inside one leaf component.

    Attributes:
        placements: token id -> final vertex (the marker-th best vertex).
        max_vertex_load: largest number of tokens delivered to one vertex.
        rounds: CONGEST rounds charged for the query.
    """

    placements: dict[int, Hashable] = field(default_factory=dict)
    max_vertex_load: int = 0
    rounds: int = 0


def route_in_leaf(
    node: HierarchyNode,
    tokens: Sequence[Token],
    load: int,
    ledger: CostLedger,
) -> LeafRoutingResult:
    """Deliver every token to the vertex whose best-rank equals its marker (Lemma 6.5)."""
    if not node.is_leaf:
        raise ValueError("route_in_leaf called on an internal node")
    best = sorted(node.vertices)
    result = LeafRoutingResult()
    per_vertex: dict[Hashable, int] = {}
    for token in tokens:
        marker = token.destination_marker
        if marker is None or not (0 <= marker < len(best)):
            raise ValueError(
                f"token {token.token_id} carries marker {marker!r},"
                f" outside the leaf's best range [0, {len(best)})"
            )
        vertex = best[marker]
        result.placements[token.token_id] = vertex
        per_vertex[vertex] = per_vertex.get(vertex, 0) + 1
    result.max_vertex_load = max(per_vertex.values(), default=0)

    # Lemma 6.5: three sorting-network passes with maximum load 2L over the
    # precomputed I_AKS whose exchange routes have the leaf's flattened quality.
    quality = max(1, node.flatten_quality())
    result.rounds = 3 * sort_round_cost(len(best), 2 * max(1, load), quality)
    ledger.charge("leaf", result.rounds)
    return result
