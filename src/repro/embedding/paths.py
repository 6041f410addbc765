"""Path collections and their quality (congestion + dilation).

Section 2 of the paper defines the *quality* of a set of paths ``P`` as
``Q(P) = congestion(P) + dilation(P)`` where

* congestion ``c = max_e |{P in P : e in P}|`` and
* dilation ``d = max_P |P|`` (edges on the longest path).

One round of communication along every path can be executed in ``Q(P)^2``
deterministic rounds (Fact 2.2) or ``~O(Q(P))`` randomized rounds.
:class:`PathCollection` computes quality from the paths themselves, keyed by
``repr``-ordered vertex pairs.  Preprocessing records every embedding's and
shuffler's quality from integer edge loads instead
(:func:`~repro.graphs.index.path_quality`); the reference kernel and the
tests recompute them here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator

__all__ = ["Path", "PathCollection"]


def _edge_key(u: Hashable, v: Hashable) -> tuple:
    return (u, v) if repr(u) <= repr(v) else (v, u)


@dataclass(frozen=True)
class Path:
    """A simple path, stored as the tuple of its vertices.

    A single-vertex path is allowed (length 0); it arises when an embedded
    edge connects a vertex to itself after contraction or when a token's
    source equals its destination.
    """

    vertices: tuple

    def __post_init__(self) -> None:
        if len(self.vertices) < 1:
            raise ValueError("a path must contain at least one vertex")

    @property
    def source(self) -> Hashable:
        return self.vertices[0]

    @property
    def target(self) -> Hashable:
        return self.vertices[-1]

    @property
    def length(self) -> int:
        """Number of edges on the path."""
        return len(self.vertices) - 1

    def edges(self) -> Iterator[tuple]:
        """Undirected edge keys along the path."""
        for u, v in zip(self.vertices, self.vertices[1:]):
            yield _edge_key(u, v)

    def reversed(self) -> "Path":
        """The same path traversed target-to-source."""
        return Path(tuple(reversed(self.vertices)))

    def concatenate(self, other: "Path") -> "Path":
        """Join two paths where ``self.target == other.source``."""
        if self.target != other.source:
            raise ValueError("paths do not share an endpoint")
        return Path(self.vertices + other.vertices[1:])

    def __len__(self) -> int:
        return len(self.vertices)


class PathCollection:
    """A multiset of paths with cached congestion/dilation bookkeeping."""

    def __init__(self, paths: Iterable[Path] = ()) -> None:
        self._paths: list[Path] = []
        self._edge_load: dict[tuple, int] = {}
        self._dilation = 0
        for path in paths:
            self.add(path)

    # -- construction -----------------------------------------------------

    def add(self, path: Path) -> None:
        """Add one path to the collection."""
        self._paths.append(path)
        self._dilation = max(self._dilation, path.length)
        for edge in path.edges():
            self._edge_load[edge] = self._edge_load.get(edge, 0) + 1

    def extend(self, paths: Iterable[Path]) -> None:
        """Add many paths."""
        for path in paths:
            self.add(path)

    @classmethod
    def union(cls, collections: Iterable["PathCollection"]) -> "PathCollection":
        """Union (as multisets) of several collections."""
        merged = cls()
        for collection in collections:
            merged.extend(collection.paths)
        return merged

    # -- measures ----------------------------------------------------------

    @property
    def paths(self) -> list[Path]:
        return list(self._paths)

    @property
    def congestion(self) -> int:
        """Maximum number of paths sharing a single edge."""
        return max(self._edge_load.values(), default=0)

    @property
    def dilation(self) -> int:
        """Maximum number of edges on any path."""
        return self._dilation

    @property
    def quality(self) -> int:
        """``Q(P) = congestion + dilation`` (Section 2)."""
        return self.congestion + self.dilation

    def edge_load(self, u: Hashable, v: Hashable) -> int:
        """Number of paths using the undirected edge ``(u, v)``."""
        return self._edge_load.get(_edge_key(u, v), 0)

    def deterministic_round_cost(self, tokens_per_path: int = 1) -> int:
        """Rounds to send ``tokens_per_path`` tokens along every path (Fact 2.2).

        One token per path costs ``Q(P)^2`` rounds; ``L`` tokens per path can
        be pipelined for ``L * Q(P)^2`` rounds in the deterministic setting the
        paper uses.
        """
        if not self._paths:
            return 0
        return max(1, tokens_per_path) * self.quality * self.quality

    def __len__(self) -> int:
        return len(self._paths)

    def __iter__(self) -> Iterator[Path]:
        return iter(self._paths)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PathCollection(paths={len(self._paths)}, congestion={self.congestion}, "
            f"dilation={self.dilation})"
        )
