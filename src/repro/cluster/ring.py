"""Consistent-hash placement of graph fingerprints onto shard workers.

The cluster tier keys everything by the canonical graph fingerprint
(:func:`repro.service.fingerprint.graph_fingerprint`), so placement *is*
artifact locality: all queries for one (graph, backend, parameters) key land
on the same shard, whose :class:`~repro.service.ArtifactCache` then holds the
preprocessed artifact exactly once across the cluster.

:class:`ConsistentHashRing` is the classic construction: every shard owns
``vnodes`` virtual points on a 64-bit hash circle, and a key is assigned to
the owner of the first point at or after the key's own hash.  Virtual nodes
smooth the load split; the circle makes scaling *incremental* — adding a
shard to an ``N``-shard ring moves an expected ``1/(N+1)`` of the keys (only
the keys the new shard captures), and removing a shard moves exactly the keys
it owned.  :meth:`ConsistentHashRing.rebalance_stats` measures that against a
key population, which is the artifact-locality number operators care about:
moved keys are cold caches.

Everything is deterministic: placement depends only on the shard ids, the
vnode count, and SHA-256 — two rings built with the same configuration agree
on every key, in any process.
"""

from __future__ import annotations

import bisect
import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

__all__ = ["ConsistentHashRing", "RebalanceStats"]

DEFAULT_VNODES = 64


def _hash64(data: str) -> int:
    """The first 8 bytes of SHA-256 as an unsigned 64-bit position."""
    return int.from_bytes(hashlib.sha256(data.encode("utf-8")).digest()[:8], "big")


@dataclass(frozen=True)
class RebalanceStats:
    """How a ring change moved a key population.

    Attributes:
        total: keys measured.
        moved: keys whose owning shard changed.
        expected_fraction: the ideal moved fraction for the change (``k/N``
            for ``k`` shards added to or removed from the larger of the two
            rings): consistent hashing should move about this many and never
            dramatically more.
    """

    total: int
    moved: int
    expected_fraction: float

    @property
    def moved_fraction(self) -> float:
        return self.moved / self.total if self.total else 0.0

    def as_row(self) -> dict[str, object]:
        return {
            "keys": self.total,
            "moved": self.moved,
            "moved_fraction": self.moved_fraction,
            "expected_fraction": self.expected_fraction,
        }


class ConsistentHashRing:
    """Deterministic consistent hashing with virtual nodes.

    Args:
        shard_ids: initial shards (any iterable of strings).
        vnodes: virtual points per shard (more = smoother split, slower
            mutation; lookups stay ``O(log(shards * vnodes))``).
    """

    def __init__(self, shard_ids: Iterable[str] = (), vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be at least 1")
        self.vnodes = vnodes
        self._shards: set[str] = set()
        self._points: list[int] = []  # sorted hash positions
        self._owners: list[str] = []  # owner of each position, same order
        for shard_id in shard_ids:
            self.add_shard(shard_id)

    # -- membership -----------------------------------------------------------

    @property
    def shard_ids(self) -> list[str]:
        return sorted(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard_id: str) -> bool:
        return shard_id in self._shards

    def add_shard(self, shard_id: str) -> None:
        if shard_id in self._shards:
            raise ValueError(f"shard {shard_id!r} is already on the ring")
        self._shards.add(shard_id)
        for replica in range(self.vnodes):
            position = _hash64(f"{shard_id}#{replica}")
            index = bisect.bisect_left(self._points, position)
            self._points.insert(index, position)
            self._owners.insert(index, shard_id)

    def remove_shard(self, shard_id: str) -> None:
        if shard_id not in self._shards:
            raise ValueError(f"shard {shard_id!r} is not on the ring")
        self._shards.discard(shard_id)
        keep = [
            (point, owner)
            for point, owner in zip(self._points, self._owners)
            if owner != shard_id
        ]
        self._points = [point for point, _ in keep]
        self._owners = [owner for _, owner in keep]

    # -- placement ------------------------------------------------------------

    def assign(self, key: str) -> str:
        """The shard owning ``key``: first virtual point clockwise of its hash."""
        if not self._points:
            raise ValueError("cannot assign on an empty ring")
        index = bisect.bisect_right(self._points, _hash64(key))
        if index == len(self._points):
            index = 0  # wrap around the circle
        return self._owners[index]

    def placement(self, keys: Iterable[str]) -> dict[str, str]:
        """``key -> shard`` for every key."""
        return {key: self.assign(key) for key in keys}

    def spread(self, keys: Iterable[str]) -> Counter:
        """How many of ``keys`` each shard owns (shards with none included)."""
        counts = Counter({shard_id: 0 for shard_id in self._shards})
        counts.update(self.assign(key) for key in keys)
        return counts

    # -- rebalance accounting --------------------------------------------------

    def rebalance_stats(
        self, other: "ConsistentHashRing | Mapping[str, str]", keys: Sequence[str]
    ) -> RebalanceStats:
        """How many of ``keys`` move between this ring and ``other``.

        ``other`` may be another ring or a previously captured
        :meth:`placement` mapping.  The expected fraction assumes the smaller
        ring's shards are a subset of the larger's (the add/remove-shards
        case); disjoint replacements naturally move more.
        """
        if isinstance(other, ConsistentHashRing):
            theirs = other.placement(keys)
            their_count = len(other)
        else:
            theirs = dict(other)
            their_count = len(set(theirs.values()))
        mine = self.placement(keys)
        moved = sum(1 for key in keys if mine[key] != theirs.get(key))
        larger = max(len(self), their_count)
        expected = abs(len(self) - their_count) / larger if larger else 0.0
        return RebalanceStats(total=len(keys), moved=moved, expected_fraction=expected)
