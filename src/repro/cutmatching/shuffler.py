"""Shufflers: the sequence of matching embeddings produced by the cut-matching game.

Definition 5.4: a *shuffler* of a good node ``X`` with parts
``X*_1, ..., X*_t`` is a sequence of matching embeddings
``M_X = ((M^1_X, f_{M^1_X}), ..., (M^lambda_X, f_{M^lambda_X}))`` on ``X``
whose corresponding natural fractional matchings on the cluster graph ``Y``
make the induced lazy random walk mix:
``sum_y ||R_lambda[y] - 1/|Y|||^2 <= 1/(9 n^3)``.

Routing a token set to a *dispersed configuration* (Section 6.1) replays the
shuffler matchings: in iteration ``q``, for every ordered pair of parts
``(i, j)`` with fractional value ``m_ij``, a ``m_ij / 2`` fraction of every
destination class currently on part ``i`` is sent to part ``j`` through the
embedded matching paths whose endpoints (the *portals*) live in the two parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator

from repro.cutmatching.potential import WalkState
from repro.embedding.embedding import Embedding
from repro.embedding.paths import PathCollection

__all__ = ["ShufflerMatching", "Shuffler"]


@dataclass
class ShufflerMatching:
    """One iteration of the shuffler: a base-graph matching and its cluster shadow.

    Attributes:
        matching_edges: base-graph matched pairs realised by embedded paths.
        embedding: the path embedding of those pairs in the base graph.
        fractional: the natural fractional matching on the cluster graph.
    """

    matching_edges: list[tuple[Hashable, Hashable]]
    embedding: Embedding
    fractional: dict[tuple[int, int], float]

    @property
    def quality(self) -> int:
        return self.embedding.quality

    def portals(self, part_of: dict, i: int, j: int) -> list[tuple[Hashable, Hashable]]:
        """Matched base pairs whose endpoints lie in parts ``i`` and ``j``.

        The first element of each returned pair lies in part ``i`` (these are
        the *portals* of part ``i`` towards part ``j``).
        """
        pairs: list[tuple[Hashable, Hashable]] = []
        for a, b in self.matching_edges:
            pa, pb = part_of.get(a), part_of.get(b)
            if pa == i and pb == j:
                pairs.append((a, b))
            elif pa == j and pb == i:
                pairs.append((b, a))
        return pairs


@dataclass
class Shuffler:
    """The full shuffler of a good node: all matchings plus quality metadata.

    Attributes:
        part_count: number of parts ``t`` of the owning good node.
        part_of: base vertex -> part index map.
        matchings: the matching embeddings in application order.
        final_potential: potential value after the last matching.
        build_rounds: CONGEST rounds charged for constructing the shuffler.
    """

    part_count: int
    part_of: dict
    matchings: list[ShufflerMatching] = field(default_factory=list)
    final_potential: float = float("inf")
    build_rounds: int = 0

    def __getstate__(self) -> dict:
        # The array engine's dispersal plan is derived state whose memo grows
        # with the loads served; a pickled shuffler leaves it behind.
        state = dict(self.__dict__)
        state.pop("_dispersal_plan", None)
        return state

    def __iter__(self) -> Iterator[ShufflerMatching]:
        return iter(self.matchings)

    def __len__(self) -> int:
        return len(self.matchings)

    @property
    def quality(self) -> int:
        """``Q(M_X)``: quality of the union of all matching embeddings (Definition 5.4).

        :meth:`CutMatchingGame.play <repro.cutmatching.game.CutMatchingGame.play>`
        records it when it builds the shuffler: the largest summed edge load
        over all matchings' paths plus their largest dilation, so under the
        numpy kernel a read builds no :class:`PathCollection`.  The reference
        kernel always recomputes the union from the paths.  A shuffler with
        no recorded value computes and records it on first read (the value is
        lazily attached, so artifacts pickled without it load).
        """
        from repro.kernels import use_numpy

        cached = getattr(self, "_quality_cache", None)
        if cached is not None and use_numpy():
            return cached
        collections = [m.embedding.path_collection() for m in self.matchings]
        value = PathCollection.union(collections).quality if collections else 0
        self._quality_cache = value
        return value

    def verify_mixing(self, n: int) -> bool:
        """Re-verify the mixing condition from scratch (used by tests)."""
        state = WalkState(self.part_count)
        for matching in self.matchings:
            state.apply(matching.fractional)
        return state.is_mixed(n)

    def walk_state(self) -> WalkState:
        """Replay the fractional matchings and return the resulting walk state."""
        state = WalkState(self.part_count)
        for matching in self.matchings:
            state.apply(matching.fractional)
        return state
