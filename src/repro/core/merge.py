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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.core.cost import CostLedger, send_round_cost, sort_round_cost
from repro.core.dispersion import DispersionState, DispersionStats, disperse, disperse_many
from repro.core.tokens import Token
from repro.cutmatching.shuffler import Shuffler
from repro.hierarchy.node import HierarchyNode
from repro.kernels import use_numpy

__all__ = ["Task3Result", "solve_task3", "solve_task3_many"]


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


def _part_vertices(node: HierarchyNode, memoize: bool) -> list[list]:
    if memoize:
        cached = getattr(node, "_sorted_parts_cache", None)
        if cached is None:
            cached = node._sorted_parts_cache = [sorted(part.vertices) for part in node.parts]
        return cached
    return [sorted(part.vertices) for part in node.parts]


def _part_of_vertex(node: HierarchyNode, memoize: bool) -> dict:
    if memoize:
        cached = getattr(node, "_part_of_cache", None)
        if cached is None:
            cached = node._part_of_cache = node.part_of_vertex()
        return cached
    return node.part_of_vertex()


def _dispersed_dummies(
    node: HierarchyNode,
    shuffler: Shuffler,
    parts: list[list],
    part_sizes: list[int],
    dummies_per_vertex: int,
    flatten_quality: int,
    memoize: bool,
) -> tuple[DispersionState, DispersionStats]:
    """The fully dispersed dummy configuration for ``dummies_per_vertex``.

    Dummy dispersion is a pure function of the node's partition, its shuffler,
    and ``dummies_per_vertex`` — the same replay happens on every query — so
    the fast path computes it once per node and reuses the final state
    (consumed read-only by the pairing step) and its statistics.  The caller
    charges the recorded rounds to its own ledger, preserving the reference
    accounting exactly.
    """
    cache = None
    if memoize:
        cache = getattr(node, "_dummy_dispersion_cache", None)
        if cache is None:
            cache = node._dummy_dispersion_cache = {}
        entry = cache.get(dummies_per_vertex)
        if entry is not None:
            return entry
    dummy_state = DispersionState(len(parts))
    for part_index, vertices in enumerate(parts):
        for vertex in vertices:
            for _ in range(dummies_per_vertex):
                dummy_state.add(part_index, part_index, vertex)
    stats = disperse(
        dummy_state,
        shuffler,
        part_sizes,
        dummies_per_vertex,
        flatten_quality,
        ledger=None,
    )
    if cache is not None:
        cache[dummies_per_vertex] = (dummy_state, stats)
    return dummy_state, stats


def solve_task3(
    node: HierarchyNode,
    tokens: Sequence[Token],
    load: int,
    ledger: CostLedger,
    dummies_per_vertex: int | None = None,
) -> Task3Result:
    """Deliver every token to a vertex of its marked part (Definition 4.3).

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
    memoize = use_numpy()
    parts = _part_vertices(node, memoize)
    part_sizes = [len(vertices) for vertices in parts]
    t = len(parts)
    part_of = _part_of_vertex(node, memoize)
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
        _finish_task3(
            node,
            shuffler,
            parts,
            part_sizes,
            t,
            load,
            ledger,
            dummies_per_vertex,
            flatten_quality,
            real_state,
            result,
            memoize,
            shuffler.quality,
        )
    return result


def _finish_task3(
    node: HierarchyNode,
    shuffler: Shuffler,
    parts: list[list],
    part_sizes: list[int],
    t: int,
    load: int,
    ledger: CostLedger,
    dummies_per_vertex: int,
    flatten_quality: int,
    real_state: DispersionState,
    result: Task3Result,
    memoize: bool,
    shuffler_quality: int,
) -> None:
    """Steps 2-3 of Task 3 (dummy dispersion + pairing), after the reals moved.

    Shared between :func:`solve_task3` and :func:`solve_task3_many`; the
    caller holds the ``"task3"`` ledger phase open and has already set (and
    charged) ``result.real_stats``.  ``memoize`` (the numpy kernel is
    active) and ``shuffler_quality`` are read once per node by the caller.
    """
    # -- 2. disperse the dummy tokens -----------------------------------
    dummy_state, result.dummy_stats = _dispersed_dummies(
        node, shuffler, parts, part_sizes, dummies_per_vertex, flatten_quality, memoize
    )
    if len(shuffler) > 0:
        # disperse() would have charged this phase itself had it been
        # handed the ledger; charging here keeps the replay cacheable.
        ledger.charge("dummy-disperse", result.dummy_stats.rounds)

    # -- 3. pair real and dummy tokens inside every part ----------------
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
    walk_back = send_round_cost(max(1, 2 * load), shuffler_quality * max(1, flatten_quality))
    merge_rounds += walk_back
    ledger.charge("merge", merge_rounds)
    result.rounds = result.real_stats.rounds + result.dummy_stats.rounds + merge_rounds
    result.max_vertex_load = max(per_vertex_load.values(), default=0)


def solve_task3_many(
    node: HierarchyNode,
    token_groups: Sequence[Sequence[Token]],
    loads: Sequence[int],
    ledgers: Sequence[CostLedger],
    dummies_per_vertex: int | None = None,
) -> list[Task3Result]:
    """Solve one Task 3 instance per token group through a single dispersion.

    The fused twin of calling :func:`solve_task3` once per group: the real
    tokens of all groups disperse through one batched shuffler replay
    (:func:`~repro.core.dispersion.disperse_many`), the cached dummy
    configuration is shared as before, and the pairing, charges, and results
    per group are identical to the solo runs — each group's rounds land on
    its own ledger.
    """
    if node.shuffler is None:
        raise RuntimeError("node has no shuffler; run preprocessing before routing queries")
    shuffler: Shuffler = node.shuffler
    memoize = use_numpy()
    parts = _part_vertices(node, memoize)
    part_sizes = [len(vertices) for vertices in parts]
    t = len(parts)
    part_of = _part_of_vertex(node, memoize)
    flatten_quality = node.flatten_quality()

    results = [Task3Result() for _ in token_groups]
    if t == 0:
        return results
    if t == 1:
        # Single part: every token already sits in its marked part.
        for result, tokens in zip(results, token_groups):
            for token in tokens:
                result.assignments[token.token_id] = token.current_vertex
        return results

    real_states: list[DispersionState] = []
    for tokens in token_groups:
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
        real_states.append(real_state)
    real_stats_list = disperse_many(
        real_states, shuffler, part_sizes, list(loads), flatten_quality
    )
    shuffler_quality = shuffler.quality

    for index, result in enumerate(results):
        ledger = ledgers[index]
        load = loads[index]
        per_query_dummies = (
            dummies_per_vertex if dummies_per_vertex is not None else 2 * max(1, load)
        )
        with ledger.phase("task3"):
            result.real_stats = real_stats_list[index]
            if len(shuffler) > 0:
                ledger.charge("real-disperse", result.real_stats.rounds)
            _finish_task3(
                node,
                shuffler,
                parts,
                part_sizes,
                t,
                load,
                ledger,
                per_query_dummies,
                flatten_quality,
                real_states[index],
                result,
                memoize,
                shuffler_quality,
            )
    return results
