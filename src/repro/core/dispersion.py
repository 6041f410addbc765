"""Routing tokens to a dispersed configuration via a shuffler (Sections 6.1-6.2).

The dispersion procedure replays the shuffler's fractional matchings: in
iteration ``q``, for every pair of parts ``(i, j)`` with fractional value
``m_ij`` and every part mark ``l``, it sends ``floor((m_ij / 2) * |T_{i,l}|)``
of the mark-``l`` tokens currently in part ``i`` over to part ``j`` (and
symmetrically), through the matching's embedded portal paths.  Lemma 6.2 shows
the result is a *dispersed configuration* (Definition 6.1): every part ends up
with close to a ``1/t`` share of every mark class.

Token movements here are tracked at part granularity (which part currently
hosts each item); the assignment to concrete vertices inside the final part
happens in the merge step (:mod:`repro.core.merge`), exactly as in the paper
where the within-part placement is handled by expander sorting.

Round accounting per iteration (Lemma 6.7): one portal-routing expander sort
per part (they run in parallel, so we charge the maximum) plus the send along
the shuffler matching paths, ``O(L) * (Q(M_X) * Q(f0_HX))^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Any, Sequence

import numpy as np

from repro.core.cost import CostLedger, send_round_cost, sort_round_cost
from repro.cutmatching.shuffler import Shuffler
from repro.kernels import use_numpy
from repro.kernels.batched import disperse_many_numpy

__all__ = ["DispersionState", "DispersionStats", "disperse", "disperse_many"]


@dataclass
class DispersionStats:
    """Measurements of one dispersion run, used by experiment E8 and tests.

    Attributes:
        iterations: number of shuffler matchings replayed.
        final_counts: ``(part, mark) -> token count`` at the end.
        mark_totals: total token count per mark.
        within_window: number of ``(part, mark)`` cells inside the
            Definition 6.1 window.
        total_cells: number of ``(part, mark)`` cells checked.
        max_part_load: largest number of tokens co-located in one part at any time.
        rounds: CONGEST rounds charged.
    """

    iterations: int = 0
    final_counts: dict[tuple[int, Any], int] = field(default_factory=dict)
    mark_totals: dict[Any, int] = field(default_factory=dict)
    within_window: int = 0
    total_cells: int = 0
    max_part_load: int = 0
    rounds: int = 0

    @property
    def window_fraction(self) -> float:
        """Fraction of cells satisfying the dispersed-configuration window."""
        if self.total_cells == 0:
            return 1.0
        return self.within_window / self.total_cells


class DispersionState:
    """Per-part, per-mark queues of items being dispersed."""

    def __init__(self, part_count: int) -> None:
        self.part_count = part_count
        self.queues: dict[int, dict[Any, list]] = {i: {} for i in range(part_count)}

    def add(self, part: int, mark: Any, item: Any) -> None:
        self.queues[part].setdefault(mark, []).append(item)

    def count(self, part: int, mark: Any) -> int:
        return len(self.queues[part].get(mark, []))

    def part_load(self, part: int) -> int:
        return sum(len(items) for items in self.queues[part].values())

    def marks(self) -> list:
        seen: set = set()
        for per_mark in self.queues.values():
            seen.update(per_mark.keys())
        return sorted(seen, key=repr)

    def pop_front(self, part: int, mark: Any, amount: int) -> list:
        queue = self.queues[part].get(mark, [])
        taken, remaining = queue[:amount], queue[amount:]
        self.queues[part][mark] = remaining
        return taken

    def push_back(self, part: int, mark: Any, items: Sequence[Any]) -> None:
        if items:
            self.queues[part].setdefault(mark, []).extend(items)

    def items(self, part: int, mark: Any) -> list:
        return list(self.queues[part].get(mark, []))


def disperse(
    state: DispersionState,
    shuffler: Shuffler,
    part_sizes: Sequence[int],
    load: int,
    flatten_quality: int,
    ledger: CostLedger | None = None,
    phase: str = "disperse",
) -> DispersionStats:
    """Replay the shuffler's fractional matchings on ``state`` (Lemma 6.2).

    Args:
        state: the per-part, per-mark queues (mutated in place).
        shuffler: the precomputed shuffler of the owning good node.
        part_sizes: ``|X*_i|`` per part (for the window check and cost model).
        load: the instance's load parameter ``L``.
        flatten_quality: ``Q(f0_HX)`` of the owning node (round accounting).
        ledger: optional ledger to charge rounds to.
        phase: ledger phase name.

    Returns:
        Dispersion statistics including the Definition 6.1 window check.

    Dispatches to the vectorized kernel unless ``REPRO_KERNEL=reference``
    selects the loop implementation below; token movements, statistics, and
    charged rounds are identical either way.
    """
    stats = DispersionStats()
    t = state.part_count
    if t <= 1 or len(shuffler) == 0:
        stats.final_counts = {
            (part, mark): state.count(part, mark)
            for part in range(t)
            for mark in state.marks()
        }
        stats.mark_totals = {
            mark: sum(state.count(part, mark) for part in range(t)) for mark in state.marks()
        }
        return stats
    if use_numpy():
        stats = _disperse_states([state], shuffler, part_sizes, flatten_quality)[0]
        if ledger is not None:
            ledger.charge(phase, stats.rounds)
        return stats

    max_part_size = max(part_sizes) if part_sizes else 1
    rounds = 0
    for matching in shuffler.matchings:
        stats.iterations += 1
        marks = state.marks()
        # Snapshot the counts so all sends of this iteration use T^{q-1}.
        snapshot = {
            (part, mark): state.count(part, mark) for part in range(t) for mark in marks
        }
        moved_total = 0
        outgoing: dict[tuple[int, Any], int] = {}
        # Determine amounts first (so symmetric sends both use the snapshot),
        # then perform the moves.  Amounts are rounded with a deterministic
        # largest-remainder rule per (origin part, mark): plain flooring
        # (Lemma 6.2's analysis) systematically under-moves when part sizes
        # are small relative to t, which only matters at experiment scale —
        # largest-remainder rounding stays within the lemma's +-1-per-pair
        # error while removing the systematic bias.
        desired: dict[tuple[int, Any], list[tuple[float, int]]] = {}
        for (u, v), value in sorted(matching.fractional.items()):
            for mark in marks:
                amount_uv = (value / 2.0) * snapshot[(u, mark)]
                amount_vu = (value / 2.0) * snapshot[(v, mark)]
                if amount_uv > 0:
                    desired.setdefault((u, mark), []).append((amount_uv, v))
                if amount_vu > 0:
                    desired.setdefault((v, mark), []).append((amount_vu, u))
        transfers: list[tuple[int, int, Any, int]] = []
        for (origin, mark), wanted in sorted(desired.items(), key=lambda kv: (kv[0][0], repr(kv[0][1]))):
            budget = min(
                snapshot[(origin, mark)], math.floor(sum(amount for amount, _ in wanted))
            )
            floors = [(math.floor(amount), amount - math.floor(amount), target) for amount, target in wanted]
            allocation = {target: base for base, _, target in floors}
            remaining = budget - sum(allocation.values())
            if remaining > 0:
                by_remainder = sorted(floors, key=lambda item: (-item[1], item[2]))
                for base, _, target in by_remainder:
                    if remaining <= 0:
                        break
                    allocation[target] += 1
                    remaining -= 1
            for target, amount in sorted(allocation.items()):
                if amount > 0:
                    transfers.append((origin, target, mark, amount))
        for origin, target, mark, amount in transfers:
            items = state.pop_front(origin, mark, amount)
            state.push_back(target, mark, items)
            moved_total += len(items)
            outgoing[(origin, target)] = outgoing.get((origin, target), 0) + len(items)

        # -- round accounting for this iteration (Lemma 6.7) -----------------
        current_max_load = max(state.part_load(part) for part in range(t))
        stats.max_part_load = max(stats.max_part_load, current_max_load)
        per_part_load = max(1, math.ceil(current_max_load / max(1, max_part_size)))
        portal_sort = sort_round_cost(max_part_size, per_part_load, flatten_quality)
        # Tokens per portal path: spread the largest directed transfer over the
        # number of matched portal pairs between the two parts.
        tokens_per_portal = 1
        part_of = shuffler.part_of
        for (origin, target), amount in outgoing.items():
            portal_pairs = max(1, len(matching.portals(part_of, origin, target)))
            tokens_per_portal = max(tokens_per_portal, math.ceil(amount / portal_pairs))
        send = send_round_cost(tokens_per_portal, matching.quality * max(1, flatten_quality))
        rounds += portal_sort + send

    stats.rounds = rounds
    if ledger is not None:
        ledger.charge(phase, rounds)

    # -- Definition 6.1 window check ------------------------------------------
    marks = state.marks()
    total_vertices = sum(part_sizes) if part_sizes else t
    for mark in marks:
        total = sum(state.count(part, mark) for part in range(t))
        stats.mark_totals[mark] = total
        for part in range(t):
            count = state.count(part, mark)
            stats.final_counts[(part, mark)] = count
            lower = 0.9 * total / t - 0.1 * total_vertices / (t * t)
            upper = 1.1 * total / t + 0.1 * total_vertices / (t * t)
            # The paper's slack assumes |X| >= n^{4 epsilon}; at experiment
            # scale we additionally allow the +-(lambda * t) additive error of
            # Lemma 6.2's derivation explicitly.
            slack = stats.iterations * 1.0
            stats.total_cells += 1
            if lower - slack <= count <= upper + slack:
                stats.within_window += 1
    return stats


def disperse_many(
    states: Sequence[DispersionState],
    shuffler: Shuffler,
    part_sizes: Sequence[int],
    loads: Sequence[int],
    flatten_quality: int,
) -> list[DispersionStats]:
    """Disperse several independent states through one shuffler replay.

    The fused twin of calling :func:`disperse` once per state (no ledger —
    callers charge ``stats.rounds`` themselves): every state's token
    movements, statistics, and round counts are identical to its solo run.
    Under the numpy kernel all states become rows of one
    :func:`~repro.kernels.batched.disperse_many_numpy` call.
    """
    if not states:
        return []
    t = states[0].part_count
    if any(state.part_count != t for state in states):
        raise ValueError("disperse_many requires states over the same partition")
    if t <= 1 or len(shuffler) == 0 or not use_numpy():
        return [
            disperse(state, shuffler, part_sizes, load, flatten_quality, ledger=None)
            for state, load in zip(states, loads)
        ]
    return _disperse_states(states, shuffler, part_sizes, flatten_quality)


def _disperse_states(
    states: Sequence[DispersionState],
    shuffler: Shuffler,
    part_sizes: Sequence[int],
    flatten_quality: int,
) -> list[DispersionStats]:
    """States to kernel rows and back: queues are rewritten in place.

    Each queued item becomes one row whose cell is ``(entry, part, mark
    column)`` over the union of the states' marks in ``repr`` order.  A queue
    key survives once its cell has held items, as ``pop_front``/``push_back``
    keep it, and each state's statistics cover only its own marks.
    """
    batch, t = len(states), states[0].part_count
    own_marks = [state.marks() for state in states]
    union_marks = sorted(set().union(*own_marks), key=repr)
    column_of = {mark: column for column, mark in enumerate(union_marks)}
    m = max(len(union_marks), 1)
    queued = sorted(
        (
            ((entry * t + part) * m + column_of[mark], queue)
            for entry, state in enumerate(states)
            for part, per_mark in state.queues.items()
            for mark, queue in per_mark.items()
        ),
        key=itemgetter(0),
    )
    keyed = np.fromiter((cell for cell, _ in queued), dtype=np.int64, count=len(queued))
    lengths = np.fromiter((len(queue) for _, queue in queued), dtype=np.int64, count=len(queued))
    items = list(chain.from_iterable(queue for _, queue in queued))
    dispersal = disperse_many_numpy(
        np.repeat(keyed, lengths), (batch, t, m), shuffler, part_sizes, flatten_quality
    )

    counts = dispersal.counts
    flat_counts = counts.ravel()
    present = dispersal.held
    present[keyed] = True
    kept = np.flatnonzero(present)
    cell_ends = np.cumsum(flat_counts)[kept]
    flat_items = [items[row] for row in dispersal.order.tolist()]
    for state in states:
        for per_mark in state.queues.values():
            per_mark.clear()
    for entry, part, column, start, end in zip(
        *(axis.tolist() for axis in np.unravel_index(kept, counts.shape)),
        (cell_ends - flat_counts[kept]).tolist(),
        cell_ends.tolist(),
    ):
        states[entry].queues[part][union_marks[column]] = flat_items[start:end]

    inside_per_mark = dispersal.inside.tolist()
    per_mark_counts = counts.transpose(0, 2, 1).tolist()
    mark_totals = counts.sum(axis=1).tolist()
    stats_list = []
    for entry in range(batch):
        stats = DispersionStats(
            iterations=len(shuffler.matchings),
            total_cells=t * len(own_marks[entry]),
            max_part_load=dispersal.peaks[entry],
            rounds=dispersal.rounds[entry],
        )
        for mark in own_marks[entry]:
            column = column_of[mark]
            stats.mark_totals[mark] = mark_totals[entry][column]
            stats.final_counts.update(
                zip([(part, mark) for part in range(t)], per_mark_counts[entry][column])
            )
            stats.within_window += inside_per_mark[entry][column]
        stats_list.append(stats)
    return stats_list
