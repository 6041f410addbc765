"""Merging two dispersed configurations (Section 6.3) and the Task 3 driver.

Task 3 (Definition 4.3) is solved with a meet-in-the-middle argument:

1. *real* tokens (each carrying a part mark ``j_z``) are routed into a
   dispersed configuration through the node's shuffler (Section 6.1);
2. *dummy* tokens — ``2L`` per vertex of every part ``X*_j``, all carrying part
   mark ``j`` — are routed into a dispersed configuration the same way;
3. inside every part, real and dummy tokens with the same part mark are paired
   up (Lemma 6.4 guarantees the dummies outnumber the reals in every cell) and
   each dummy token walks its paired real token back to the dummy's origin
   vertex, which lies in the marked part.

The implementation mirrors this exactly.  Pairing inside a part is the
expander-sorting step of Section 6.3 and is charged accordingly; in the rare
event that rounding noise leaves a cell with more real tokens than dummies at
experiment scale, the leftovers are assigned round-robin over the marked
part's vertices and the event is counted (tests check it is the exception).

:func:`solve_task3` runs this over :class:`~repro.core.tokens.Token` objects
and is the specification the reference kernel routes through;
:func:`solve_task3_many` is its array twin, the Task 3 step of the router's
array engine, which solves the instances of every query at a node at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np

from repro.core.cost import CostLedger, send_round_cost, sort_round_cost
from repro.core.dispersion import DispersionState, DispersionStats, disperse
from repro.core.tables import NodeTable, dummy_stack
from repro.core.tokens import Token
from repro.cutmatching.shuffler import Shuffler
from repro.hierarchy.node import HierarchyNode
from repro.kernels.batched import disperse_many_numpy

__all__ = ["Task3Result", "Task3Batch", "solve_task3", "solve_task3_many"]


@dataclass
class Task3Result:
    """Outcome of one Task 3 invocation on a hierarchy node.

    Attributes:
        assignments: token -> vertex of the marked part the token now occupies.
        real_stats: dispersion statistics of the real tokens.
        dummy_stats: dispersion statistics of the dummy tokens.
        fallback_assignments: number of tokens placed by the round-robin
            fallback instead of a dummy pairing.
        max_vertex_load: maximum number of real tokens assigned to one vertex.
        rounds: CONGEST rounds charged (also added to the ledger).
    """

    assignments: dict[int, Hashable] = field(default_factory=dict)
    real_stats: DispersionStats = field(default_factory=DispersionStats)
    dummy_stats: DispersionStats = field(default_factory=DispersionStats)
    fallback_assignments: int = 0
    max_vertex_load: int = 0
    rounds: int = 0


def solve_task3(
    node: HierarchyNode,
    tokens: Sequence[Token],
    load: int,
    ledger: CostLedger,
    dummies_per_vertex: int | None = None,
) -> Task3Result:
    """Deliver every token to a vertex of its marked part (Definition 4.3).

    This is the object-level specification the reference kernel routes
    through; :func:`solve_task3_many` is its array twin.

    Args:
        node: the internal good node whose shuffler is used.
        tokens: real tokens, each with ``part_mark`` set and currently located
            on a vertex of ``node``.
        load: the load parameter ``L`` of the Task 3 instance.
        ledger: cost ledger charged with the rounds.
        dummies_per_vertex: how many dummy tokens each vertex generates
            (paper: ``2L``); configurable for the ablation experiments.

    Returns:
        The per-token vertex assignments plus dispersion statistics.
    """
    if node.shuffler is None:
        raise RuntimeError("node has no shuffler; run preprocessing before routing queries")
    shuffler: Shuffler = node.shuffler
    parts = [sorted(part.vertices) for part in node.parts]
    part_sizes = [len(vertices) for vertices in parts]
    t = len(parts)
    part_of = node.part_of_vertex()
    flatten_quality = node.flatten_quality()
    if dummies_per_vertex is None:
        dummies_per_vertex = 2 * max(1, load)

    result = Task3Result()
    if t == 0:
        return result
    if t == 1:
        # Single part: every token already sits in its marked part.
        for token in tokens:
            result.assignments[token.token_id] = token.current_vertex
        return result

    with ledger.phase("task3"):
        # -- 1. disperse the real tokens -----------------------------------
        real_state = DispersionState(t)
        for token in tokens:
            origin_part = part_of.get(token.current_vertex)
            if origin_part is None:
                raise ValueError(
                    f"token {token.token_id} is not located on a vertex of this node"
                )
            if token.part_mark is None:
                raise ValueError(f"token {token.token_id} has no part mark")
            real_state.add(origin_part, token.part_mark, token)
        result.real_stats = disperse(
            real_state, shuffler, part_sizes, load, flatten_quality, ledger, phase="real-disperse"
        )

        # -- 2. disperse the dummy tokens ----------------------------------
        dummy_state = DispersionState(t)
        for part_index, vertices in enumerate(parts):
            for vertex in vertices:
                for _ in range(dummies_per_vertex):
                    dummy_state.add(part_index, part_index, vertex)
        result.dummy_stats = disperse(
            dummy_state,
            shuffler,
            part_sizes,
            dummies_per_vertex,
            flatten_quality,
            ledger,
            phase="dummy-disperse",
        )

        # -- 3. pair real and dummy tokens inside every part ---------------
        per_vertex_load: dict[Hashable, int] = {}
        merge_rounds = 0
        for part_index in range(t):
            marks_here = set(real_state.queues[part_index].keys())
            part_load = real_state.part_load(part_index) + dummy_state.part_load(part_index)
            merge_rounds = max(
                merge_rounds,
                sort_round_cost(
                    part_sizes[part_index],
                    max(1, math.ceil(part_load / max(1, part_sizes[part_index]))),
                    flatten_quality,
                ),
            )
            for mark in sorted(marks_here, key=repr):
                reals = real_state.items(part_index, mark)
                dummies = dummy_state.items(part_index, mark)
                for position, token in enumerate(reals):
                    if position < len(dummies):
                        destination_vertex = dummies[position]
                    else:
                        # Rounding left this cell short of dummies; place the
                        # token round-robin over the marked part directly.
                        target_part = parts[mark]
                        destination_vertex = target_part[
                            result.fallback_assignments % len(target_part)
                        ]
                        result.fallback_assignments += 1
                    result.assignments[token.token_id] = destination_vertex
                    per_vertex_load[destination_vertex] = (
                        per_vertex_load.get(destination_vertex, 0) + 1
                    )
        # Walking each paired token back along the dummy's dispersion route
        # costs one more pass over the shuffler paths.
        walk_back = send_round_cost(max(1, 2 * load), shuffler.quality * max(1, flatten_quality))
        merge_rounds += walk_back
        ledger.charge("merge", merge_rounds)
    result.rounds = result.real_stats.rounds + result.dummy_stats.rounds + merge_rounds
    result.max_vertex_load = max(per_vertex_load.values(), default=0)
    return result


@dataclass
class Task3Batch:
    """Outcome of one :func:`solve_task3_many` call over ``B`` queries' rows.

    Attributes:
        vertex: ``(R,)`` vertex number of every row after Task 3.
        assigned: whether Task 3 placed the rows (false on a node without
            parts, where nothing moves).
        charges: ``(phase, (B,) rounds)`` to charge each query's ledger.
        fallback_assignments: ``(B,)`` rows placed by the round-robin fallback.
        max_part_load: ``(B,)`` largest part load of either dispersion.
        within_window: ``(B,)`` Definition 6.1 cells inside the window, reals
            and dummies together.
        total_cells: ``(B,)`` cells checked, reals and dummies together.
    """

    vertex: np.ndarray
    assigned: bool
    charges: list[tuple[str, np.ndarray]]
    fallback_assignments: np.ndarray
    max_part_load: np.ndarray
    within_window: np.ndarray
    total_cells: np.ndarray

    @property
    def rounds(self) -> np.ndarray:
        """``(B,)`` CONGEST rounds of each query's Task 3 instance."""
        return sum((amounts for _, amounts in self.charges), np.zeros_like(self.total_cells))


def solve_task3_many(
    node: HierarchyNode,
    table: NodeTable,
    query: np.ndarray,
    vertex: np.ndarray,
    mark: np.ndarray,
    loads: np.ndarray,
    token_ids: np.ndarray,
    dummies_per_vertex: int | None = None,
) -> Task3Batch:
    """Solve one Task 3 instance per query, every query's rows at once.

    The array twin of :func:`solve_task3`.  Rows are tokens, ordered by query
    and, within a query, by token id; the arrays give each row's query
    (``0 .. B - 1``), vertex number, part mark and id, and ``loads`` each
    query's load ``L``.  All reals disperse as row cells ``(query, part,
    mark)`` through one :func:`~repro.kernels.batched.disperse_many_numpy`
    call.  Each real then takes the vertex of the dummy with its rank in the
    same (part, mark) cell of the node's cached dummy configuration; reals
    past the dummies fall back, per query, round-robin over the marked part
    in the reference order (parts ascending, marks in ``repr`` order, queue
    position).  Placements, charges, and statistics per query equal
    :func:`solve_task3` on that query's tokens alone.
    """
    if node.shuffler is None:
        raise RuntimeError("node has no shuffler; run preprocessing before routing queries")
    shuffler: Shuffler = node.shuffler
    batch = len(loads)
    zeros = np.zeros(batch, dtype=np.int64)
    t = table.t
    if t <= 1:
        # No parts: nothing moves.  One part: every token already sits in
        # its marked part.
        return Task3Batch(vertex, t == 1, [], zeros, zeros, zeros, zeros)
    origin = table.part_of[vertex]
    outside = origin < 0
    if outside.any():
        raise ValueError(
            f"token {int(token_ids[np.argmax(outside)])} is not located on a vertex of this node"
        )

    # -- 1. the dispersed dummies: the node's cached configurations ---------
    # Looked up first: a dummy column (2L per vertex of its part) outgrows
    # every real column (at most L per vertex of the part), so the
    # shuffler's transfer-plan memo is sized once, for both dispersals.
    if dummies_per_vertex is None:
        per_vertex_dummies = 2 * np.maximum(1, loads)
    else:
        per_vertex_dummies = np.full(batch, dummies_per_vertex, dtype=np.int64)
    dummies, config = dummy_stack(node, table, per_vertex_dummies)
    dummy_stats = dummies.stats[config]

    # -- 2. disperse the real tokens: cells (query, part, mark), token order -
    cell = (query * t + origin) * t + mark
    order = _stable_order(cell, batch * t * t)
    row_cell = cell[order]
    charges: list[tuple[str, np.ndarray]] = []
    real_peak = real_within = real_cells = zeros
    if len(shuffler) > 0:
        dispersal = disperse_many_numpy(
            row_cell, (batch, t, t), shuffler, table.part_size.tolist(), table.flatten_quality
        )
        order = order[dispersal.order]
        row_cell = dispersal.row_cell
        counts = dispersal.counts
        own = counts.sum(axis=1) > 0
        real_peak = np.array(dispersal.peaks, dtype=np.int64)
        real_within = (dispersal.inside * own).sum(axis=1)
        real_cells = t * own.sum(axis=1)
        charges.append(("task3/real-disperse", np.array(dispersal.rounds, dtype=np.int64)))
        charges.append(("task3/dummy-disperse", dummy_stats[:, 0]))
    else:
        counts = np.bincount(row_cell, minlength=batch * t * t).reshape(batch, t, t)

    # -- 3. pair every real with the same-rank dummy of its (part, mark) cell
    flat_counts = counts.ravel()
    rank = np.arange(len(row_cell)) - (np.cumsum(flat_counts) - flat_counts)[row_cell]
    row_query, dummy_cell = np.divmod(row_cell, t * t)
    # The real's cell in its query's dummy configuration.
    slot = config[row_query] * (t * t) + dummy_cell
    paired = rank < dummies.count.ravel()[slot]
    source = dummies.start.ravel()[slot] + rank
    fallbacks = zeros
    if paired.all():
        placed = dummies.vertex[source]
    else:
        placed = np.empty(len(row_cell), dtype=np.int64)
        placed[paired] = dummies.vertex[source[paired]]
        # Rounding left some cells short of dummies: place those reals
        # round-robin over their marked part, in the reference order per
        # query (parts ascending, marks in repr order, queue position).
        short = np.flatnonzero(~paired)
        parts, marks = dummy_cell[short] // t, dummy_cell[short] % t
        short = short[
            np.lexsort((rank[short], table.mark_repr_rank[marks], parts, row_query[short]))
        ]
        queries, marks = row_query[short], dummy_cell[short] % t
        fallbacks = np.bincount(queries, minlength=batch)
        turn = np.arange(len(short)) - (np.cumsum(fallbacks) - fallbacks)[queries]
        placed[short] = table.part_flat[table.part_start[marks] + turn % table.part_size[marks]]

    # Merge cost: one expander sort per part at its combined load (parts run
    # in parallel), then the walk back along the dummies' dispersion routes.
    quality = max(1, table.flatten_quality)
    part_load = counts.sum(axis=2) + dummies.part_load[config]
    per_vertex = np.maximum(1, -(-part_load // np.maximum(1, table.part_size)))
    sorts = np.maximum(1, 2 * per_vertex * table.part_depth) * quality * quality
    walk_back = np.maximum(1, 2 * loads) * max(1, table.walk_quality) ** 2
    charges.append(("task3/merge", sorts.max(axis=1) + walk_back))

    assigned = np.empty_like(placed)
    assigned[order] = placed
    return Task3Batch(
        vertex=assigned,
        assigned=True,
        charges=charges,
        fallback_assignments=fallbacks,
        max_part_load=np.maximum(real_peak, dummy_stats[:, 1]),
        within_window=real_within + dummy_stats[:, 2],
        total_cells=real_cells + dummy_stats[:, 3],
    )


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of keys in ``[0, bound)``.

    Keys that fit 16 bits are sorted as such, which numpy does by radix sort.
    """
    if bound <= 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")
