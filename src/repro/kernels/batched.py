"""Array-native batch kernels — one stacked call for many queries.

* :func:`disperse_many_numpy` is the numpy dispersion kernel (Lemma 6.2) for
  ``B`` independent batch entries at once.  Its input is row arrays: one row
  per queued token, the row's cell ``(entry, part, mark column)`` flattened to
  one int, rows sorted by cell and, within a cell, by queue position.  It
  reads one :class:`DispersalPlan` per shuffler: every matching's partner
  grid stacked into ``(matchings, t, D)`` arrays, built once by
  :func:`dispersal_plan` with numpy over all matchings, plus the
  transfer-plan memo that :func:`plan_transfers_batched` grows for all
  matchings at once, so a warm call does no table work.  Per matching, only
  the movers — the first ``sent`` rows of each sending cell, typically a
  small share of all rows — are touched: their slots give their targets, a
  stable sort over the movers alone orders them behind the stayers of their
  new cell, and the stayers fill the remaining positions in their old order.
  Peaks and portal loads are taken once, after the last matching.  It
  returns the final row order, cells and counts plus per-entry statistics
  and rounds.  This is exact because a matching never pops more than the
  snapshot count of a cell, so pops only ever take rows that were present
  when the iteration started, and mark columns an entry does not use stay
  all-zero and never send: every entry's queues, statistics, and charged
  rounds are identical to a solo run of the reference loop.  The router's
  Task 3 step (:func:`~repro.core.merge.solve_task3_many`) feeds it every
  query's reals directly; :func:`~repro.core.dispersion.disperse` and
  :func:`~repro.core.dispersion.disperse_many` adapt
  :class:`~repro.core.dispersion.DispersionState` queues to rows and back.
  The plan is derived state: a pickled shuffler leaves it behind, and the
  first dispersal after a load rebuilds it.
* :func:`schedule_token_batches_numpy` resolves edge conflicts for ``B``
  independent scheduler instances in a single pending loop — per-batch edge
  codes are offset into disjoint ranges, so the one ``np.unique`` winner
  scan per round settles every batch's contested edges simultaneously.

``tests/test_fused.py``, ``tests/test_engine.py`` and ``tests/test_kernels.py``
assert the equivalences over random expanders and the workload catalog.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.congest.scheduler import ScheduledToken, ScheduleResult
    from repro.cutmatching.shuffler import Shuffler, ShufflerMatching

__all__ = [
    "DispersalPlan",
    "dispersal_plan",
    "plan_transfers_batched",
    "Dispersal",
    "disperse_many_numpy",
    "schedule_token_batches_numpy",
]


class DispersalPlan:
    """One shuffler's matchings as stacked arrays, plus the transfer-plan memo.

    Matching ``k``'s partner grid is slice ``k`` of every ``(matchings, t,
    D)`` field: row ``origin`` holds that part's partners in ascending target
    order (the emission order), padded with zero-value slots to ``D``, the
    widest row over all matchings.  Zero-value slots never send, so the
    padding is inert.
    """

    def __init__(self, shuffler: "Shuffler") -> None:
        t = shuffler.part_count
        matchings = shuffler.matchings
        count = len(matchings)
        pairs = [item for matching in matchings for item in sorted(matching.fractional.items())]
        sizes = np.array([len(matching.fractional) for matching in matchings], dtype=np.int64)
        # Pair ``k = (u, v)`` of a matching gives ``u`` a partner ``v`` and
        # ``v`` a partner ``u``, both worth ``value / 2``; ``k`` is the pair's
        # sorted rank within its matching.
        ends = np.array([key for key, _ in pairs], dtype=np.int64).reshape(-1, 2)
        halves = np.array([value for _, value in pairs], dtype=np.float64) / 2.0
        step = np.repeat(np.arange(count), sizes)
        rank = np.arange(len(pairs)) - (np.cumsum(sizes) - sizes)[step]
        origin = ends.T.ravel()
        partner = ends[:, ::-1].T.ravel()
        step, rank = np.tile(step, 2), np.tile(rank, 2)
        row = step * t + origin  # one row per (matching, origin)
        row_size = np.bincount(row, minlength=count * t)
        width = int(row_size.max(initial=0))
        row_start = np.cumsum(row_size) - row_size

        def place(order: np.ndarray) -> np.ndarray:
            """Each entry's position within its row when rows follow ``order``."""
            where = np.empty_like(row)
            where[order] = np.arange(len(order)) - row_start[row[order]]
            return where

        slot = place(np.lexsort((partner, row)))
        #: ``(matchings, t, D)`` partner part per slot (0 on padding).
        self.targets = np.zeros((count, t, width), dtype=np.int64)
        self.targets[step, origin, slot] = partner
        #: ``(matchings, t, D)`` ``value / 2`` per slot (0.0 on padding).
        self.half_values = np.zeros((count, t, width))
        self.half_values[step, origin, slot] = np.tile(halves, 2)
        #: ``(matchings, D, t)`` slot of each origin's ``j``-th partner in
        #: sorted-pair order, the order the reference sums amounts in
        #: (padding last).
        self.sum_slots = np.broadcast_to(np.arange(width)[:, None], (count, width, t)).copy()
        self.sum_slots[step, place(np.lexsort((rank, row))), origin] = slot
        #: ``(matchings, t, D)`` how many parts a row sent over a slot moves.
        self.part_shift = self.targets - np.arange(t)[:, None]
        # Portal pairs per (matching, origin, target), both directions of a
        # cross-part pair; pairs with an endpoint outside the parts do not
        # count.
        edges = [edge for matching in matchings for edge in matching.matching_edges]
        edge_step = np.repeat(np.arange(count), [len(m.matching_edges) for m in matchings])
        parts = np.fromiter(
            map(shuffler.part_of.get, itertools.chain.from_iterable(edges), itertools.repeat(-1)),
            np.int64,
            2 * len(edges),
        ).reshape(-1, 2)
        inside = (parts >= 0).all(axis=1)
        (pa, pb), base = parts[inside].T, edge_step[inside] * t
        codes = np.concatenate([(base + pa) * t + pb, ((base + pb) * t + pa)[pa != pb]])
        #: ``(matchings, t, t)`` ``max(1, portal-pair count)`` per (origin, target).
        self.portal_pairs = np.maximum(np.bincount(codes, minlength=count * t * t), 1).reshape(
            count, t, t
        )
        #: ``(matchings,)`` each matching's embedding quality.
        self.quality = np.array([matching.quality for matching in matchings], dtype=np.int64)
        #: ``(matchings, t, C, D)`` memo of :func:`plan_transfers_batched`:
        #: rows a cell of ``origin`` holding ``count`` rows sends per slot.
        self.amounts = np.zeros((count, t, 0, width), dtype=np.int64)
        #: ``(matchings, t, C)`` the memo's total per (origin, count).
        self.sent = np.zeros((count, t, 0), dtype=np.int64)


def dispersal_plan(shuffler: "Shuffler") -> DispersalPlan:
    """The shuffler's :class:`DispersalPlan`, built on first use.

    It is derived state: attached to the shuffler, never pickled with it
    (:meth:`~repro.cutmatching.shuffler.Shuffler.__getstate__`), and rebuilt
    by the first dispersal after a load.
    """
    cached = getattr(shuffler, "_dispersal_plan", None)
    if cached is None:
        cached = shuffler._dispersal_plan = DispersalPlan(shuffler)
    return cached


def plan_transfers_batched(
    counts: np.ndarray, plan: DispersalPlan
) -> tuple[np.ndarray, np.ndarray]:
    """Every matching's transfer plan, for every count a replay of ``counts`` reaches.

    The reference rounding rule makes a cell's transfers a function of its
    origin and its token count alone, so per matching the plan is a table
    over ``(origin, count)``, memoized on ``plan`` for all matchings at once.
    A cell only ever holds rows of its own (entry, mark column), so the
    largest column total bounds every count the replay can reach, and one
    check per replay suffices.  The memo grows to that bound, and at least
    doubles when it grows.

    Args:
        counts: int64 array of shape ``(B, t, m)`` — per batch entry, the
            per-(part, mark column) token counts before the first matching.
        plan: the shuffler's :class:`DispersalPlan`.

    Returns:
        ``plan.amounts`` and ``plan.sent``, of shapes ``(matchings, t, C, D)``
        and ``(matchings, t, C)`` with ``C`` above every column total: in
        matching ``k`` a cell of ``origin`` holding ``count`` rows sends the
        first ``sent[k, origin, count]`` of them, ``amounts[k, origin, count,
        slot]`` to ``plan.targets[k, origin, slot]``, slots in order.
    """
    limit = int(counts.sum(axis=1).max(initial=0))
    size = plan.sent.shape[2]
    if size <= limit:
        plan.amounts, plan.sent = _allocate(plan, max(2 * size, limit + 1))
    return plan.amounts, plan.sent


def _allocate(plan: DispersalPlan, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Transfer amounts per matching, origin and count ``0 .. size - 1``, and their totals.

    Amounts are ``(value / 2) * count``, floored; the budget left over per
    ``(matching, origin, count)`` goes one unit each to the largest
    remainders, ties broken by target.
    """
    count, t, width = plan.targets.shape
    amounts = plan.half_values[:, :, None, :] * np.arange(size)[:, None]
    floors = np.floor(amounts)
    allocation = floors.astype(np.int64)
    # A sum over the short slot axis as a product (exact: small integers).
    floor_sums = (floors @ np.ones(width)).astype(np.int64)
    # Sequential accumulation in sorted-pair order matches the reference's
    # builtins.sum bit for bit (padding slots add +0.0, which is exact).
    steps, origins = np.arange(count)[:, None], np.arange(t)
    totals = np.zeros((count, t, size))
    for j in range(width):
        totals += amounts[steps, origins, :, plan.sum_slots[:, j]]
    budget = np.minimum(np.arange(size), np.floor(totals).astype(np.int64))
    remaining = budget - floor_sums
    # A slot's bump rank is the number of peers ahead of it under
    # (-fraction, target): its position in a stable sort by -fraction, as
    # slots are in target order (a tie goes to the lower slot).  Bumps only
    # ever reach positive fractions (there are fewer leftover units than
    # those), so zero-value padding is inert.
    by_fraction = np.argsort(floors - amounts, axis=3, kind="stable")
    rank = np.empty_like(by_fraction)
    np.put_along_axis(rank, by_fraction, np.arange(width), axis=3)
    allocation += rank < remaining[..., None]
    # Ranks are 0 .. width - 1, so a row gains min(width, remaining) bumps.
    return allocation, floor_sums + np.clip(remaining, 0, width)


class Dispersal(NamedTuple):
    """Result of :func:`disperse_many_numpy` for ``B`` batch entries."""

    #: ``(R,)`` input row at each final position.
    order: np.ndarray
    #: ``(R,)`` final cell of each final position, ascending; within a cell
    #: positions are in queue order.
    row_cell: np.ndarray
    #: ``(B, t, m)`` final token count per (part, mark column).
    counts: np.ndarray
    #: per entry, the largest part load after any matching.
    peaks: list[int]
    #: per entry, the CONGEST rounds of the replay (Lemma 6.7).
    rounds: list[int]
    #: ``(B, m)`` number of parts whose count of the mark column lies inside
    #: the Definition 6.1 window.
    inside: np.ndarray
    #: ``(matchings + 1, B * t * m)`` cell counts at the start and after
    #: every matching.
    seen: np.ndarray

    @property
    def held(self) -> np.ndarray:
        """``(B * t * m,)`` cells that held a row at any point of the replay."""
        return self.seen.any(axis=0)


def disperse_many_numpy(
    row_cell: np.ndarray,
    shape: tuple[int, int, int],
    shuffler: "Shuffler",
    part_sizes,
    flatten_quality: int,
) -> Dispersal:
    """Replay the shuffler's matchings on ``B`` independent row sets at once.

    Args:
        row_cell: ``(R,)`` int array, one row per queued token, sorted by
            cell ``(entry * t + part) * m + mark column`` and, within a cell,
            by queue position.
        shape: ``(B, t, m)``: batch entries, parts, mark columns.
        shuffler: the owning node's shuffler (at least one matching).
        part_sizes: ``|X*_i|`` per part.
        flatten_quality: ``Q(f0_HX)`` of the owning node.

    Per entry, the final queues, counts, peaks and rounds are those of the
    reference loop of :func:`~repro.core.dispersion.disperse` on that entry
    alone.  Mark columns an entry does not use stay all-zero and never send.

    A matching's work is proportional to its movers, not to all ``R`` rows:
    a cell sends the first ``sent`` rows of its queue, each mover's target
    comes from its slot, and the movers land, in (origin, rank) order,
    behind the stayers of their new cell.  Only the reordering of ``order``
    itself touches every row.
    """
    from repro.core.cost import sorting_network_depth

    batch, t, m = shape
    cells = batch * t * m
    total = len(row_cell)
    plan = dispersal_plan(shuffler)
    iterations, _, width = plan.targets.shape
    counts = np.bincount(np.asarray(row_cell, dtype=np.int64), minlength=cells)
    amounts_memo, sent_memo = plan_transfers_batched(counts.reshape(shape), plan)
    size = sent_memo.shape[2]
    # Per matching, one plan row per (origin, count), and per origin and
    # slot how far a sent row moves in cell numbers.
    amounts_memo = amounts_memo.reshape(iterations, t * size, width)
    sent_memo = sent_memo.reshape(iterations, t * size)
    shift = plan.part_shift * m
    cell_origin = np.arange(cells) // m % t
    origin_row = cell_origin * size

    rows = np.arange(total)
    ordinals = np.arange(total)
    # The counts at the start and after every matching.
    seen = np.empty((iterations + 1, cells), dtype=np.int64)
    seen[0] = counts
    # Per matching that moves rows: its index, its sending cells and what
    # each sends per slot.
    moves: list[tuple[int, np.ndarray, np.ndarray]] = []
    for index in range(iterations):
        # A cell sends the first ``sent`` rows of its queue, its chunks in
        # slot order; the rest stay.
        plan_row = origin_row + counts
        sent = sent_memo[index].take(plan_row)
        active = np.flatnonzero(sent)
        if not active.size:
            seen[index + 1] = counts
            continue
        amounts = amounts_memo[index].take(plan_row[active], axis=0)
        # The movers in (cell, rank) order, which is (cell, slot) order.
        source = np.repeat(active, sent[active])
        into = source + np.repeat(shift[index].take(cell_origin[active], axis=0), amounts.ravel())
        moves.append((index, source, into))

        staying = counts - sent
        counts = seen[index + 1]
        np.add(staying, np.bincount(into, minlength=cells), out=counts)
        # Each new cell holds its stayers, in queue order, then its movers in
        # (origin, rank) order — the reference's push_back order.  Stayers
        # keep their relative order across cells, so they fill every
        # position the movers neither leave nor land on, and the ``k``-th
        # mover, in old or in new order, sits behind the stayers of every
        # cell up to its own.
        stayers_through = staying.cumsum()
        ordinal = ordinals[: len(into)]
        mover = (stayers_through - staying)[source] + ordinal
        order = np.argsort(into, kind="stable")
        landing = stayers_through[into[order]] + ordinal
        stays = np.ones(total, dtype=bool)
        stays[mover] = False
        filled = np.ones(total, dtype=bool)
        filled[landing] = False
        reordered = np.empty_like(rows)
        reordered[landing] = rows[mover[order]]
        reordered[filled] = rows[stays]
        rows = reordered
    row_cell = np.repeat(np.arange(cells), counts)

    # -- peaks and portal loads of every matching, at once ---------------------
    # Rows per part as one product: a sum over the short last axis is slower.
    part_rows = seen[1:].reshape(-1, m) @ np.ones(m, dtype=np.int64)
    loads = part_rows.reshape(iterations, batch, t).max(axis=2, initial=0)
    # Per (matching, entry): the most rows one portal path carries between
    # two parts, at least 1: the largest of outgoing rows over portal pairs
    # per (origin, target), rounded up (float division is exact here).
    portal_tokens = np.ones((iterations, batch), dtype=np.int64)
    if moves:
        steps, sources, intos = zip(*moves)
        step = np.repeat(np.array(steps) * (batch * t), [len(source) for source in sources])
        source, into = np.concatenate(sources), np.concatenate(intos)
        code = (step + source // m) * t + cell_origin[into]
        outgoing = np.bincount(code, minlength=iterations * batch * t * t)
        per_pair = outgoing.reshape(iterations, batch, t * t) / plan.portal_pairs.reshape(
            iterations, 1, t * t
        )
        portal_tokens = np.maximum(1, np.ceil(per_pair.max(axis=2)).astype(np.int64))
    counts = counts.reshape(shape)

    # -- round accounting (Lemma 6.7) -----------------------------------------
    # Per matching a portal sort (sort_round_cost at the part load) and a
    # send (send_round_cost at the portal load), vectorised.
    max_part_size = max(part_sizes) if len(part_sizes) else 1
    part_loads = np.maximum(1, -(-loads // max(1, max_part_size)))
    quality = max(1, flatten_quality)
    charged = np.maximum(1, 2 * part_loads * sorting_network_depth(max_part_size)) * quality**2
    per_token = np.maximum(1, plan.quality * quality) ** 2
    charged += portal_tokens * per_token[:, None]
    rounds = charged.sum(axis=0).tolist()

    # -- Definition 6.1 window check per (entry, mark column) ------------------
    total_vertices = sum(part_sizes) if len(part_sizes) else t
    totals = counts.sum(axis=1)
    lower = 0.9 * totals / t - 0.1 * total_vertices / (t * t)
    upper = 1.1 * totals / t + 0.1 * total_vertices / (t * t)
    slack = iterations * 1.0
    inside = ((lower - slack)[:, None, :] <= counts) & (counts <= (upper + slack)[:, None, :])
    return Dispersal(
        order=rows,
        row_cell=row_cell,
        counts=counts,
        peaks=loads.max(axis=0, initial=0).tolist(),
        rounds=rounds,
        inside=inside.sum(axis=1),
        seen=seen,
    )


def _interned_paths(tokens: Sequence["ScheduledToken"]):
    """Flat vertex array + per-token lengths for one scheduler instance.

    Mirrors the interning of :func:`repro.kernels.scheduler.schedule_tokens_numpy`
    (wholesale integer conversion with a dict-intern fallback).
    """
    path_lengths = np.fromiter(
        (len(token.path) for token in tokens), dtype=np.int64, count=len(tokens)
    )
    flat_list = [vertex for token in tokens for vertex in token.path]
    try:
        flat = np.asarray(flat_list)
        if flat.ndim != 1 or not np.issubdtype(flat.dtype, np.integer):
            raise TypeError("non-integer vertex ids")
        flat = flat.astype(np.int64)
        if flat.size and int(flat.min()) < 0:
            raise ValueError("negative vertex ids; intern instead")
        vertex_count = int(flat.max()) + 1 if flat.size else 1
        if vertex_count >= 2**31:
            raise ValueError("vertex id range too wide for direct edge codes")
    except (TypeError, ValueError, OverflowError):
        vertex_index: dict = {}
        flat = np.empty(len(flat_list), dtype=np.int64)
        for position, vertex in enumerate(flat_list):
            index = vertex_index.get(vertex)
            if index is None:
                index = vertex_index[vertex] = len(vertex_index)
            flat[position] = index
        vertex_count = len(vertex_index)
    return flat, path_lengths, max(vertex_count, 1)


def schedule_token_batches_numpy(
    batches: Sequence[Sequence["ScheduledToken"]],
) -> list["ScheduleResult"]:
    """Schedule ``B`` independent instances through one conflict-resolution loop.

    Per-batch edge codes are offset into disjoint integer ranges, so batches
    can never contend for the same code and the single first-occurrence scan
    per round resolves every batch's conflicts exactly as a solo run would.
    Rounds, congestion, dilation, and arrival rounds per batch are identical
    to :func:`~repro.kernels.scheduler.schedule_tokens_numpy` on that batch.
    """
    from repro.congest.scheduler import ScheduleResult

    results: list[ScheduleResult | None] = [None] * len(batches)
    code_parts: list[np.ndarray] = []
    length_parts: list[np.ndarray] = []
    token_meta: list[tuple[int, int]] = []  # flat token index -> (batch, token_id)
    congestions: list[int] = []
    dilations: list[int] = []
    round_limits: list[int] = []
    code_base = 0
    for batch_index, tokens in enumerate(batches):
        if not tokens:
            results[batch_index] = ScheduleResult(rounds=0, congestion=0, dilation=0)
            congestions.append(0)
            dilations.append(0)
            round_limits.append(1)
            continue
        flat, path_lengths, vertex_count = _interned_paths(tokens)
        lengths = path_lengths - 1
        dilation = int(lengths.max(initial=0))
        offsets = np.zeros(len(tokens) + 1, dtype=np.int64)
        np.cumsum(path_lengths, out=offsets[1:])
        if flat.size >= 2:
            hop_mask = np.ones(flat.size - 1, dtype=bool)
            boundaries = offsets[1:-1] - 1
            hop_mask[boundaries[boundaries < hop_mask.size]] = False
            u, v = flat[:-1][hop_mask], flat[1:][hop_mask]
            flat_codes = np.minimum(u, v) * vertex_count + np.maximum(u, v)
        else:
            flat_codes = np.empty(0, dtype=np.int64)
        congestion = 0
        if flat_codes.size:
            congestion = int(np.bincount(np.unique(flat_codes, return_inverse=True)[1]).max())
        congestions.append(congestion)
        dilations.append(dilation)
        round_limits.append(max(1, congestion * dilation + dilation + 1))
        code_span = vertex_count * vertex_count + 1
        if code_base > 2**62 - code_span:
            # Offset range exhausted (absurdly large batches): the caller
            # falls back to per-batch scheduling.
            raise OverflowError("edge-code offset range exhausted")
        code_parts.append(flat_codes + code_base)
        code_base += code_span
        length_parts.append(lengths)
        # Per-batch token-id order is preserved under one global sort by
        # keying (batch, token_id); batches share no edge codes, so the
        # cross-batch interleave cannot change any winner.
        token_ids = np.fromiter(
            (token.token_id for token in tokens), dtype=np.int64, count=len(tokens)
        )
        token_meta.extend((batch_index, int(token_id)) for token_id in token_ids)
    all_codes = (
        np.concatenate(code_parts) if code_parts else np.empty(0, dtype=np.int64)
    )
    all_lengths = (
        np.concatenate(length_parts) if length_parts else np.empty(0, dtype=np.int64)
    )
    token_batch = np.fromiter((b for b, _ in token_meta), dtype=np.int64, count=len(token_meta))
    token_id_of = np.fromiter((t for _, t in token_meta), dtype=np.int64, count=len(token_meta))
    offsets = np.zeros(len(token_meta) + 1, dtype=np.int64)
    np.cumsum(all_lengths, out=offsets[1:])

    arrivals: list[dict[int, int]] = [dict() for _ in batches]
    for index in range(len(token_meta)):
        if all_lengths[index] == 0:
            arrivals[int(token_batch[index])][int(token_id_of[index])] = 0

    # Pending token indices sorted by (batch, token_id): within each batch the
    # order matches the solo kernel's sorted-by-token-id pending array.
    order_key = np.lexsort((token_id_of, token_batch))
    pending = order_key[all_lengths[order_key] > 0]
    position = np.zeros(len(token_meta), dtype=np.int64)
    max_rounds = [0] * len(batches)

    rounds = 0
    round_limit = max(round_limits, default=1)
    while pending.size and rounds < round_limit:
        rounds += 1
        codes = all_codes[offsets[pending] + position[pending]]
        _, first = np.unique(codes, return_index=True)
        advanced = np.zeros(pending.size, dtype=bool)
        advanced[first] = True
        movers = pending[advanced]
        position[movers] += 1
        done = position[movers] == all_lengths[movers]
        for index in movers[done]:
            entry = int(token_batch[index])
            arrivals[entry][int(token_id_of[index])] = rounds
            max_rounds[entry] = max(max_rounds[entry], rounds)
        finished = np.zeros(pending.size, dtype=bool)
        finished[np.flatnonzero(advanced)[done]] = True
        pending = pending[~finished]
    if pending.size:
        raise RuntimeError("scheduler failed to deliver all tokens within the round limit")

    for batch_index, tokens in enumerate(batches):
        if results[batch_index] is not None:
            continue
        results[batch_index] = ScheduleResult(
            rounds=max_rounds[batch_index],
            congestion=congestions[batch_index],
            dilation=dilations[batch_index],
            arrival_round=arrivals[batch_index],
        )
    return [result for result in results if result is not None]
