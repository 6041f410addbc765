"""Array-native batch kernels — one stacked call for many queries.

* :func:`disperse_many_numpy` is the numpy dispersion kernel (Lemma 6.2) for
  ``B`` independent batch entries at once.  Its input is row arrays: one row
  per queued token, the row's cell ``(entry, part, mark column)`` flattened to
  one int, rows sorted by cell and, within a cell, by queue position.  Per
  shuffler matching, :func:`plan_transfers_batched` yields the transfer chunks
  of every ``(origin, partner)`` pair at once, each row's rank in its cell
  picks its chunk (and so its target), and one stable sort appends the movers
  behind the stayers of their new cell.  It returns the final row order,
  cells and counts plus per-entry statistics and rounds.  This is exact
  because a matching never pops more than the snapshot count of a cell, so
  pops only ever take rows that were present when the iteration started, and
  mark columns an entry does not use stay all-zero and never send: every
  entry's queues, statistics, and charged rounds are identical to a solo run
  of the reference loop.  The router's Task 3 step
  (:func:`~repro.core.merge.solve_task3_many`) feeds it every query's reals
  directly; :func:`~repro.core.dispersion.disperse` and
  :func:`~repro.core.dispersion.disperse_many` adapt
  :class:`~repro.core.dispersion.DispersionState` queues to rows and back.
* :func:`schedule_token_batches_numpy` resolves edge conflicts for ``B``
  independent scheduler instances in a single pending loop — per-batch edge
  codes are offset into disjoint ranges, so the one ``np.unique`` winner
  scan per round settles every batch's contested edges simultaneously.

``tests/test_fused.py``, ``tests/test_engine.py`` and ``tests/test_kernels.py``
assert the equivalences over random expanders and the workload catalog.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.congest.scheduler import ScheduledToken, ScheduleResult
    from repro.cutmatching.shuffler import Shuffler, ShufflerMatching

__all__ = [
    "PairTable",
    "pair_table",
    "plan_transfers_batched",
    "Dispersal",
    "disperse_many_numpy",
    "schedule_token_batches_numpy",
]


class PairTable:
    """The partner grid of one shuffler matching, plus its transfer-plan memo.

    Row ``origin`` holds that part's partners in ascending target order (the
    emission order), padded with zero-value slots to the widest row ``D``.
    """

    def __init__(self, shuffler: "Shuffler", matching: "ShufflerMatching") -> None:
        t = shuffler.part_count
        partners: list[list[tuple[int, float]]] = [[] for _ in range(t)]
        for (u, v), value in sorted(matching.fractional.items()):
            partners[u].append((v, value / 2.0))
            partners[v].append((u, value / 2.0))
        width = max(map(len, partners), default=0)
        #: ``(t, D)`` partner part per slot (0 on padding).
        self.targets = np.zeros((t, width), dtype=np.int64)
        #: ``(t, D)`` ``value / 2`` per slot (0.0 on padding).
        self.half_values = np.zeros((t, width))
        #: ``(D, t)`` slot of each origin's ``j``-th partner in sorted-pair
        #: order, the order the reference sums amounts in (padding last).
        self.sum_slots = np.tile(np.arange(width)[:, None], (1, t))
        for origin, row in enumerate(partners):
            by_target = sorted(range(len(row)), key=lambda j: row[j][0])
            for slot, j in enumerate(by_target):
                self.targets[origin, slot], self.half_values[origin, slot] = row[j]
                self.sum_slots[j, origin] = slot
        #: ``(t, t)`` ``max(1, portal-pair count)`` per (origin, target).
        self.portal_pairs = np.ones((t, t), dtype=np.int64)
        portals: Counter = Counter()
        for a, b in matching.matching_edges:
            pa, pb = shuffler.part_of.get(a), shuffler.part_of.get(b)
            portals[(pa, pb)] += 1
            if pa != pb:
                portals[(pb, pa)] += 1
        for (pa, pb), count in portals.items():
            if pa is not None and pb is not None:
                self.portal_pairs[pa, pb] = max(1, count)
        #: the matching's embedding quality.
        self.quality = matching.quality
        #: ``(t, C, D)`` memo of :func:`plan_transfers_batched`.
        self.chunk_ends = np.zeros((t, 0, width), dtype=np.int32)


def pair_table(shuffler: "Shuffler", matching: "ShufflerMatching") -> PairTable:
    """The :class:`PairTable` of ``matching`` (a matching of ``shuffler``).

    Built once and attached lazily to the matching, so artifacts pickled
    without it still load and rebuild it on first use.
    """
    cached = getattr(matching, "_pair_table", None)
    if cached is None:
        cached = matching._pair_table = PairTable(shuffler, matching)
    return cached


def plan_transfers_batched(counts: np.ndarray, table: PairTable) -> np.ndarray:
    """One matching's transfer plan, covering every cell of every batch entry.

    The reference rounding rule makes a cell's transfers a function of its
    origin and its token count alone, so the plan is a table over ``(origin,
    count)``, memoized on ``table`` and grown by doubling.

    Args:
        counts: int64 array of shape ``(B, t, m)`` — per batch entry, the
            per-(part, mark column) token counts snapshot.
        table: the matching's :class:`PairTable`.

    Returns:
        The ``(t, C, D)`` cumulative chunk ends, ``C > counts.max()``: a cell
        of ``origin`` holding ``count`` tokens sends its queue positions
        ``[ends[slot - 1], ends[slot])`` to ``table.targets[origin, slot]``.
    """
    limit = int(counts.max(initial=0))
    ends = table.chunk_ends
    if ends.shape[1] <= limit:
        ends = table.chunk_ends = np.cumsum(_allocate(table, 2 * limit + 1), axis=2, dtype=np.int32)
    return ends


def _allocate(table: PairTable, size: int) -> np.ndarray:
    """``(t, size, D)`` transfer amounts per origin and count ``0 .. size - 1``.

    Amounts are ``(value / 2) * count``, floored; the budget left over per
    ``(origin, count)`` goes one unit each to the largest remainders, ties
    broken by target.
    """
    t, width = table.targets.shape
    amounts = table.half_values[:, None, :] * np.arange(size)[None, :, None]
    floors = np.floor(amounts)
    allocation = floors.astype(np.int64)
    # Sequential accumulation in sorted-pair order matches the reference's
    # builtins.sum bit for bit (padding slots add +0.0, which is exact).
    origins = np.arange(t)
    totals = np.zeros((t, size))
    for slots in table.sum_slots:
        totals += amounts[origins, :, slots]
    budget = np.minimum(np.arange(size), np.floor(totals).astype(np.int64))
    remaining = budget - allocation.sum(axis=2)
    # A slot's bump rank is the number of peers ahead of it under
    # (-fraction, target); slots are in target order, so a tie goes to the
    # lower slot.  Bumps only ever reach positive fractions (there are fewer
    # leftover units than those), so zero-value padding is inert.
    fractions = amounts - floors
    rank = np.zeros(amounts.shape, dtype=np.int64)
    for peer in range(width):
        peer_fraction = fractions[:, :, peer : peer + 1]
        rank += peer_fraction > fractions
        rank[:, :, peer + 1 :] += peer_fraction == fractions[:, :, peer + 1 :]
    allocation += rank < remaining[:, :, None]
    return allocation


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
    #: ``(B * t * m,)`` cells that held a row at any point of the replay.
    held: np.ndarray


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
    """
    from repro.core.cost import send_round_cost, sort_round_cost

    batch, t, m = shape
    cells = batch * t * m
    row_cell = np.array(row_cell, dtype=np.int64)
    positions = np.arange(len(row_cell))
    rows = positions
    counts = np.bincount(row_cell, minlength=cells).reshape(batch, t, m)
    held = counts.ravel() > 0

    max_loads: list[np.ndarray] = []
    portal_tokens: list[np.ndarray] = []
    for matching in shuffler.matchings:
        table = pair_table(shuffler, matching)
        chunk_ends = plan_transfers_batched(counts, table)
        flat_counts = counts.ravel()
        origin = row_cell // m % t
        rank = positions - (np.cumsum(flat_counts) - flat_counts)[row_cell]
        # A row's slot is how many chunk ends of its cell lie at or below its
        # rank; slot == D means it stays.
        slot = np.count_nonzero(chunk_ends[origin, flat_counts[row_cell]] <= rank[:, None], axis=1)
        moved = slot < chunk_ends.shape[2]
        outgoing = np.zeros(batch * t * t, dtype=np.int64)
        if moved.any():
            source = origin[moved]
            target = table.targets[source, slot[moved]]
            entry = row_cell[moved] // (t * m)
            outgoing = np.bincount((entry * t + source) * t + target, minlength=batch * t * t)
            row_cell[moved] += (target - source) * m
            # Stable sort: stayers keep their queue order and movers follow in
            # (origin, rank) order — the reference's push_back order.
            order = np.argsort(2 * row_cell + moved, kind="stable")
            row_cell = row_cell[order]
            rows = rows[order]
            counts = np.bincount(row_cell, minlength=cells).reshape(batch, t, m)
            held |= counts.ravel() > 0
        max_loads.append(counts.sum(axis=2).max(axis=1))
        per_portal = -(-outgoing.reshape(batch, t * t) // table.portal_pairs.ravel())
        portal_tokens.append(per_portal.max(axis=1, initial=1))

    # -- round accounting (Lemma 6.7) -----------------------------------------
    iterations = len(shuffler.matchings)
    max_part_size = max(part_sizes) if len(part_sizes) else 1
    loads = np.asarray(max_loads, dtype=np.int64).reshape(iterations, batch)
    part_loads = np.maximum(1, -(-loads // max(1, max_part_size))).tolist()
    portal_tokens_rows = np.asarray(portal_tokens, dtype=np.int64).reshape(iterations, batch)
    sort_cost: dict[int, int] = {}
    rounds = [0] * batch
    for matching, per_part, per_portal in zip(
        shuffler.matchings, part_loads, portal_tokens_rows.tolist()
    ):
        path_quality = pair_table(shuffler, matching).quality * max(1, flatten_quality)
        for entry in range(batch):
            load = per_part[entry]
            if load not in sort_cost:
                sort_cost[load] = sort_round_cost(max_part_size, load, flatten_quality)
            rounds[entry] += sort_cost[load] + send_round_cost(per_portal[entry], path_quality)

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
        held=held,
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
