"""The matching player of the cut-matching game (Appendix B.2).

Given the cut player's subsets ``(S, S')`` on the cluster graph ``Y``, the
matching player works on the *base graph* ``X``: it expands the cluster sets
to base vertex sets ``(S_X, S'_X)`` and embeds a matching of base vertices
from ``S_X`` into ``S'_X`` saturating ``S_X`` (Lemma 2.3), returning both the
virtual matching edges and their low-congestion path embedding.  The matching
is then normalised to a *natural fractional matching* of ``Y``
(Definition 5.1) for the potential bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

import networkx as nx

from repro.embedding.embedding import Embedding
from repro.embedding.matching_embed import embed_matching
from repro.graphs.cluster import ClusterGraph, natural_fractional_matching
from repro.graphs.index import GraphIndex

__all__ = ["MatchingPlayerResult", "MatchingPlayer"]


@dataclass
class MatchingPlayerResult:
    """One iteration's output on the base graph and its cluster-graph shadow.

    Attributes:
        matching_edges: base-graph matched pairs ``(a, b)`` with ``a in S_X``.
        embedding: path embedding of the matching in the base graph.
        fractional: the natural fractional matching on the cluster graph.
        saturated: whether every vertex of ``S_X`` was matched.
        cut: sparse-cut certificate when saturation failed (empty otherwise).
        path_edges: each embedded path's edge ids over the player's
            :class:`~repro.graphs.index.GraphIndex` (transient, for the
            shuffler's union quality).
    """

    matching_edges: list[tuple[Hashable, Hashable]] = field(default_factory=list)
    embedding: Embedding = field(default_factory=Embedding)
    fractional: dict[tuple[int, int], float] = field(default_factory=dict)
    saturated: bool = False
    cut: frozenset = frozenset()
    path_edges: list[list[int]] = field(default_factory=list)

    @property
    def quality(self) -> int:
        """Quality of the matching's path embedding in the base graph."""
        return self.embedding.quality


class MatchingPlayer:
    """Embeds base-graph matchings realising the cut player's requests."""

    def __init__(
        self,
        base_graph: nx.Graph,
        cluster: ClusterGraph,
        psi: float = 0.1,
        index: GraphIndex | None = None,
    ) -> None:
        """``index`` is ``base_graph``'s :class:`GraphIndex` when the caller has one."""
        self.base_graph = base_graph
        self.index = GraphIndex.of(base_graph) if index is None else index
        self.cluster = cluster
        self.psi = psi

    def respond(
        self, small_side: Sequence[int], large_side: Sequence[int], normalizer: float | None = None
    ) -> MatchingPlayerResult:
        """Embed a matching from ``S_X`` (small side) into ``S'_X`` (large side).

        Args:
            small_side: cluster vertices forming ``S``.
            large_side: cluster vertices forming ``S'``.
            normalizer: the ``n'`` used for the natural fractional matching;
                defaults to the maximum part size of the cluster graph.
        """
        sources = sorted(self.cluster.expand(small_side))
        sinks = sorted(self.cluster.expand(large_side))
        if not sources or not sinks:
            return MatchingPlayerResult(saturated=True)
        if len(sources) > len(sinks):
            # Property B.1(1) guarantees |S_X| < |S'_X|; if a degenerate call
            # violates it we truncate deterministically so Lemma 2.3 applies.
            sources = sources[: len(sinks)]

        result = embed_matching(self.index, sources, sinks, psi=self.psi)
        fractional = natural_fractional_matching(
            self.cluster,
            ((a, b) for a, b in result.matching.items()),
            normalizer=normalizer,
        )
        return MatchingPlayerResult(
            matching_edges=sorted(result.matching.items()),
            embedding=result.embedding,
            fractional=fractional,
            saturated=result.saturated,
            cut=result.cut,
            path_edges=result.path_edges,
        )
