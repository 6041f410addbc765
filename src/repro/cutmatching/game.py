"""The cut-matching game driver (Section 5.1, Appendix B).

The game is played on the cluster graph ``Y`` (cut player) and the base graph
``X`` (matching player):

1. the cut player inspects the current walk matrix and names two disjoint
   cluster-vertex sets ``(S, S')`` (Property B.1);
2. the matching player embeds a base-graph matching from ``S_X`` into
   ``S'_X`` saturating ``S_X`` (Lemma 2.3) and converts it to a natural
   fractional matching of ``Y``;
3. the fractional matching is applied to the lazy-walk matrix and the
   potential ``Pi`` is re-evaluated.

The game stops when ``Pi <= 1/(9 n^3)`` (success: the collected matchings form
a :class:`~repro.cutmatching.shuffler.Shuffler`) or when the matching player
fails to saturate its side (a sparse cut of the base graph was found — which
cannot happen when ``X`` really is an expander and ``psi`` was chosen at most
half its sparsity).

Round accounting follows Lemma 5.5 / B.2: each iteration costs the cluster
graph learning (``poly(k)`` plus the base-graph diameter) plus the matching
player's embedding work; the iteration count is ``O(log n)`` by Lemma B.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import networkx as nx

from repro.cutmatching.cut_player import SpectralCutPlayer
from repro.cutmatching.matching_player import MatchingPlayer
from repro.cutmatching.potential import WalkState
from repro.cutmatching.shuffler import Shuffler, ShufflerMatching
from repro.graphs.cluster import ClusterGraph, build_cluster_graph
from repro.graphs.index import GraphIndex, path_quality

__all__ = ["CutMatchingOutcome", "CutMatchingGame", "build_shuffler"]


@dataclass
class CutMatchingOutcome:
    """Result of playing the cut-matching game on one good node.

    Attributes:
        shuffler: the constructed shuffler (None if the game found a cut).
        sparse_cut: base-graph sparse cut certificate when construction failed.
        iterations: number of matchings played.
        potential_history: potential value after every iteration.
        rounds: CONGEST rounds charged for the construction.
    """

    shuffler: Shuffler | None
    sparse_cut: frozenset = frozenset()
    iterations: int = 0
    potential_history: list[float] = field(default_factory=list)
    rounds: int = 0

    @property
    def succeeded(self) -> bool:
        return self.shuffler is not None


class CutMatchingGame:
    """Plays the cut-matching game for one good node and its partition."""

    def __init__(
        self,
        base_graph: nx.Graph,
        parts: Sequence[Sequence],
        psi: float = 0.1,
        max_iterations: int | None = None,
        index: GraphIndex | None = None,
    ) -> None:
        """``index`` is ``base_graph``'s :class:`GraphIndex` when the caller already built one."""
        if len(parts) < 1:
            raise ValueError("the partition must contain at least one part")
        self.base_graph = base_graph
        self.cluster: ClusterGraph = build_cluster_graph(base_graph, parts)
        self.psi = psi
        n = base_graph.number_of_nodes()
        # Lemma B.5: lambda = O(log n) iterations (with a large worst-case
        # constant); with the bisection cut player the practical decay is a
        # constant factor per iteration, so this cap is rarely approached.
        self.max_iterations = max_iterations or max(16, int(16 * math.log2(max(n, 2))) + 16)
        self.cut_player = SpectralCutPlayer()
        self.matching_player = MatchingPlayer(base_graph, self.cluster, psi=psi, index=index)

    def play(self) -> CutMatchingOutcome:
        """Run the game to completion and return the shuffler or a sparse cut."""
        t = self.cluster.size
        n = self.base_graph.number_of_nodes()
        part_sizes = [len(part) for part in self.cluster.parts]
        normalizer = float(max(part_sizes)) if part_sizes else 1.0
        state = WalkState(t)
        matchings: list[ShufflerMatching] = []
        # Every kept matching's paths, for the union quality (Definition 5.4).
        union_paths: list[list[int]] = []
        rounds = 0
        potential_history: list[float] = []

        if t == 1:
            # A single part is trivially mixed; an empty shuffler suffices.
            shuffler = Shuffler(
                part_count=1,
                part_of=dict(self.cluster.part_of),
                matchings=[],
                final_potential=0.0,
                build_rounds=0,
            )
            return CutMatchingOutcome(shuffler=shuffler, iterations=0, rounds=0)

        for iteration in range(self.max_iterations):
            if state.is_mixed(n):
                break
            cut = self.cut_player.choose(state.matrix, part_sizes)
            if not cut.small_side or not cut.large_side:
                break
            response = self.matching_player.respond(
                cut.small_side, cut.large_side, normalizer=normalizer
            )
            # Round accounting (Lemma B.2 / Lemma 5.5): learning Y costs
            # poly(k) + diameter; the matching embedding costs its quality^2.
            rounds += t * t + max(1, response.quality) ** 2
            if not response.saturated:
                return CutMatchingOutcome(
                    shuffler=None,
                    sparse_cut=response.cut,
                    iterations=iteration + 1,
                    potential_history=potential_history,
                    rounds=rounds,
                )
            if not response.fractional:
                # Degenerate matching (all pairs inside one part); nothing to apply.
                continue
            potential = state.apply(response.fractional)
            potential_history.append(potential)
            matchings.append(
                ShufflerMatching(
                    matching_edges=response.matching_edges,
                    embedding=response.embedding,
                    fractional=response.fractional,
                )
            )
            union_paths.extend(response.path_edges)

        shuffler = Shuffler(
            part_count=t,
            part_of=dict(self.cluster.part_of),
            matchings=matchings,
            final_potential=state.potential(),
            build_rounds=rounds,
        )
        shuffler._quality_cache = path_quality(union_paths)
        return CutMatchingOutcome(
            shuffler=shuffler,
            iterations=len(matchings),
            potential_history=potential_history,
            rounds=rounds,
        )


def build_shuffler(
    base_graph: nx.Graph,
    parts: Sequence[Sequence],
    psi: float = 0.1,
    max_iterations: int | None = None,
) -> Shuffler:
    """Convenience wrapper: play the game and return the shuffler.

    Raises ``RuntimeError`` if the game terminates with a sparse cut instead —
    callers construct shufflers only on certified expanders, so a cut here
    indicates the partition or the sparsity parameter was wrong.
    """
    outcome = CutMatchingGame(base_graph, parts, psi=psi, max_iterations=max_iterations).play()
    if outcome.shuffler is None:
        raise RuntimeError(
            "cut-matching game found a sparse cut while building a shuffler; "
            "the base graph is not the expected expander"
        )
    return outcome.shuffler
