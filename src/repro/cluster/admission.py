"""Bounded per-shard admission queues: overload degrades predictably.

An open-loop arrival stream does not slow down because the shards are busy —
that is what makes it open-loop — so the only defence against unbounded
backlog is admission control in front of each shard.  Every shard gets a
bounded FIFO; when an arrival finds the queue full, the configured policy
decides who pays:

* ``reject`` — the *new* arrival is refused (load-shedding at the door;
  admitted work is never wasted);
* ``shed-oldest`` — the *oldest* queued entry is dropped to admit the new one
  (freshness wins; a saturated queue serves the most recent traffic).

Both policies bound per-shard memory by ``capacity`` and keep the drop
accounting exact (:class:`AdmissionStats`), which the load generator turns
into the shed rate of its SLO report.  Decisions are recorded as
``repro_cluster_admission_total{shard,decision}`` when a metrics registry is
attached.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.metrics import MetricsRegistry

__all__ = ["AdmissionStats", "AdmissionDecision", "AdmissionController", "ADMISSION_POLICIES"]

#: The recognised overflow policies.
ADMISSION_POLICIES = ("reject", "shed-oldest")


@dataclass
class AdmissionStats:
    """Lifetime admission accounting, per shard or aggregated.

    Attributes:
        offered: arrivals presented to the queue.
        accepted: arrivals that entered the queue.
        rejected: arrivals refused at the door (``reject`` policy).
        shed: queued entries dropped to make room (``shed-oldest`` policy).
    """

    offered: int = 0
    accepted: int = 0
    rejected: int = 0
    shed: int = 0

    @property
    def dropped(self) -> int:
        """Work lost to overload, regardless of which policy dropped it."""
        return self.rejected + self.shed

    @property
    def drop_rate(self) -> float:
        return self.dropped / self.offered if self.offered else 0.0

    def merge(self, other: "AdmissionStats") -> None:
        self.offered += other.offered
        self.accepted += other.accepted
        self.rejected += other.rejected
        self.shed += other.shed

    def as_dict(self) -> dict[str, float]:
        return {
            "offered": self.offered,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "shed": self.shed,
            "drop_rate": self.drop_rate,
        }


@dataclass(frozen=True)
class AdmissionDecision:
    """The outcome of offering one item to a shard queue.

    Attributes:
        shard_id: the queue the item was offered to.
        accepted: whether the item is now queued.
        shed: items that were dropped from the queue to admit this one
            (non-empty only under ``shed-oldest``).
        duplicate: the submission's idempotency key was already pending or
            completed, so nothing was queued — the earlier admission stands
            (exactly-once: a duplicate is *not* a rejection of new work).
    """

    shard_id: str
    accepted: bool
    shed: tuple[Any, ...] = ()
    duplicate: bool = False


class AdmissionController:
    """Bounded FIFO queues, one per shard, with a shared capacity and policy.

    Args:
        capacity: maximum queued items per shard (``None`` = unbounded, for
            closed-loop callers that drain between batches).
        policy: overflow policy, one of :data:`ADMISSION_POLICIES`.
        metrics: optional registry for ``repro_cluster_admission_total`` and
            ``repro_cluster_queue_depth``.
    """

    def __init__(
        self,
        capacity: int | None = None,
        policy: str = "reject",
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("queue capacity must be at least 1 (or None for unbounded)")
        if policy not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {policy!r}; use one of {ADMISSION_POLICIES}"
            )
        self.capacity = capacity
        self.policy = policy
        self._lock = threading.Lock()
        self._queues: dict[str, deque] = {}
        self._stats: dict[str, AdmissionStats] = {}
        if metrics is not None:
            self._m_decisions = metrics.counter(
                "repro_cluster_admission_total",
                "Admission decisions per shard.",
                labels=("shard", "decision"),
            )
            self._m_depth = metrics.gauge(
                "repro_cluster_queue_depth", "Queued items per shard.", labels=("shard",)
            )
        else:
            self._m_decisions = self._m_depth = None
        # Metric children, resolved on first use per (shard, decision) and
        # per shard.
        self._decision_children: dict[tuple[str, str], Any] = {}
        self._depth_children: dict[str, Any] = {}

    def _record(self, shard_id: str, decision: str, amount: int = 1) -> None:
        if self._m_decisions is not None:
            child = self._decision_children.get((shard_id, decision))
            if child is None:
                child = self._m_decisions.labels(shard=shard_id, decision=decision)
                self._decision_children[shard_id, decision] = child
            child.inc(amount)

    def _record_depth(self, shard_id: str, depth: int) -> None:
        if self._m_depth is not None:
            child = self._depth_children.get(shard_id)
            if child is None:
                child = self._depth_children[shard_id] = self._m_depth.labels(shard=shard_id)
            child.set(depth)

    # -- the queue protocol ----------------------------------------------------

    def offer(self, shard_id: str, item: Any) -> AdmissionDecision:
        """Offer ``item`` to ``shard_id``'s queue; returns what happened."""
        with self._lock:
            queue = self._queues.get(shard_id)
            if queue is None:
                queue = self._queues[shard_id] = deque()
            stats = self._stats.get(shard_id)
            if stats is None:
                stats = self._stats[shard_id] = AdmissionStats()
            stats.offered += 1
            shed: tuple[Any, ...] = ()
            if self.capacity is not None and len(queue) >= self.capacity:
                if self.policy == "reject":
                    stats.rejected += 1
                    self._record(shard_id, "rejected")
                    self._record_depth(shard_id, len(queue))
                    return AdmissionDecision(shard_id=shard_id, accepted=False)
                dropped = []
                while len(queue) >= self.capacity:
                    dropped.append(queue.popleft())
                stats.shed += len(dropped)
                self._record(shard_id, "shed", len(dropped))
                shed = tuple(dropped)
            queue.append(item)
            stats.accepted += 1
            self._record(shard_id, "accepted")
            self._record_depth(shard_id, len(queue))
            return AdmissionDecision(shard_id=shard_id, accepted=True, shed=shed)

    def requeue(self, shard_id: str, items: Sequence[Any]) -> None:
        """Put already-admitted items back at the head of ``shard_id``'s queue.

        Used when a shard is removed and its queued work moves to new owners:
        the items were admitted once, so this bypasses the offer accounting
        and the capacity policy (a rebalance may transiently overfill a
        queue rather than lose admitted work).
        """
        if not items:
            return
        with self._lock:
            queue = self._queues.setdefault(shard_id, deque())
            for item in reversed(items):
                queue.appendleft(item)
            self._record_depth(shard_id, len(queue))

    def drain(self, shard_id: str) -> list:
        """Remove and return everything queued for ``shard_id`` (FIFO order)."""
        with self._lock:
            queue = self._queues.get(shard_id)
            if not queue:
                return []
            items = list(queue)
            queue.clear()
            self._record_depth(shard_id, 0)
            return items

    def depth(self, shard_id: str) -> int:
        with self._lock:
            queue = self._queues.get(shard_id)
            return len(queue) if queue else 0

    def depths(self) -> dict[str, int]:
        with self._lock:
            return {shard_id: len(queue) for shard_id, queue in self._queues.items()}

    # -- accounting ------------------------------------------------------------

    def stats_for(self, shard_id: str) -> AdmissionStats:
        with self._lock:
            return self._stats.setdefault(shard_id, AdmissionStats())

    def stats_snapshot(self) -> dict[str, dict[str, int]]:
        """Per-shard lifetime stats as plain dicts (journal-checkpoint food)."""
        with self._lock:
            return {
                shard_id: {
                    "offered": stats.offered,
                    "accepted": stats.accepted,
                    "rejected": stats.rejected,
                    "shed": stats.shed,
                }
                for shard_id, stats in self._stats.items()
            }

    def restore_stats(self, snapshot: Mapping[str, Mapping[str, int]]) -> None:
        """Overwrite the lifetime stats from a :meth:`stats_snapshot` dict.

        Recovery uses this so a journal-rebuilt coordinator reports the same
        lifetime admission totals the crashed one did — the load generator's
        delta accounting then spans the crash seamlessly.
        """
        with self._lock:
            for shard_id, entry in snapshot.items():
                self._stats[shard_id] = AdmissionStats(
                    offered=int(entry.get("offered", 0)),
                    accepted=int(entry.get("accepted", 0)),
                    rejected=int(entry.get("rejected", 0)),
                    shed=int(entry.get("shed", 0)),
                )

    def total_stats(self) -> AdmissionStats:
        """Admission stats summed over every shard."""
        total = AdmissionStats()
        with self._lock:
            for stats in self._stats.values():
                total.merge(stats)
        return total
