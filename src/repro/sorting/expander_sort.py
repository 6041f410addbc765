"""Distributed expander sorting (Theorem 5.6).

The expander sorting problem (Appendix F's ``ExpanderSorting``): every vertex
holds at most ``L`` tokens, each token has a (not necessarily unique) key, and
the goal is to redistribute tokens so that reading per-vertex token lists in
increasing vertex-ID order yields non-decreasing keys, with every vertex still
holding at most ``L`` tokens.

The paper sorts by simulating a precomputed sorting network over the
component's vertices: each comparator ``(u, v)`` unites the ``<= L`` tokens of
``u`` and ``v`` on one vertex, sorts them locally, and returns the smaller
half to the lower-ID vertex (a *merge-split* step).  We implement exactly this
simulation (:class:`ComparatorSortEngine`), plus an *oracle engine* that
produces the same final placement directly and charges the same round cost —
used for large instances where simulating every comparator in Python is
wasteful (README, "Deviations from the paper", item 3).

Round accounting (Theorem 5.6 / Lemma 6.5): simulating the network costs
``O(L * depth) * Q^2`` rounds where ``Q`` is the quality of the routes used to
realise comparator exchanges (for a leaf component, the quality of the
precomputed ``I_AKS`` embedding; higher up, the flattened hierarchy quality).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Sequence

from repro.kernels import use_numpy
from repro.sorting.networks import SortingNetwork, batcher_odd_even_network

__all__ = [
    "SortItem",
    "SortPlacement",
    "ExpanderSortResult",
    "ComparatorSortEngine",
    "OracleSortEngine",
    "expander_sort",
    "is_globally_sorted",
]

#: Sentinel key sorting after every real key (the paper's "key = infinity" padding).
_INFINITY_KEY = (1, None)


def _comparable_key(key: Any) -> tuple:
    """Wrap keys so that heterogeneous keys and the infinity sentinel compare safely."""
    return (0, key)


@dataclass(frozen=True)
class SortItem:
    """One token participating in an expander sort.

    Attributes:
        key: the sort key.
        value: opaque payload carried along (e.g. the routing token id).
        tag: a tie-breaking tag; the engines sort by ``(key, tag)`` so results
            are deterministic and stable across engines.
    """

    key: Any
    value: Any = None
    tag: Any = 0


@dataclass
class SortPlacement:
    """Final placement: per-vertex token lists after sorting."""

    items_at: dict[Hashable, list[SortItem]] = field(default_factory=dict)

    def flattened(self, vertex_order: Sequence[Hashable]) -> list[SortItem]:
        result: list[SortItem] = []
        for vertex in vertex_order:
            result.extend(self.items_at.get(vertex, []))
        return result


@dataclass
class ExpanderSortResult:
    """Outcome of one expander sort.

    Attributes:
        placement: final per-vertex token lists (sorted order along vertex IDs).
        rounds: CONGEST rounds charged.
        network_depth: depth of the comparator network used.
        max_load: maximum number of tokens on any vertex at the end.
        comparator_exchanges: number of merge-split steps actually performed
            (0 for the oracle engine).
    """

    placement: SortPlacement
    rounds: int
    network_depth: int
    max_load: int
    comparator_exchanges: int = 0


def is_globally_sorted(
    placement: SortPlacement, vertex_order: Sequence[Hashable]
) -> bool:
    """Check the ExpanderSorting correctness condition of Appendix F."""
    previous = None
    for item in placement.flattened(vertex_order):
        current = _comparable_key(item.key)
        if previous is not None and current < previous:
            return False
        previous = current
    return True


class ComparatorSortEngine:
    """Sorts by genuinely simulating a comparator network over the vertices."""

    def __init__(self, network_factory: Callable[[int], SortingNetwork] | None = None) -> None:
        self.network_factory = network_factory or batcher_odd_even_network

    def sort(
        self,
        vertex_order: Sequence[Hashable],
        items_at: dict[Hashable, list[SortItem]],
        load: int,
        exchange_quality: int = 1,
    ) -> ExpanderSortResult:
        """Run the merge-split simulation and return the sorted placement.

        Dispatches to the batched layer-at-a-time kernel unless
        ``REPRO_KERNEL=reference``; placements are identical either way.
        """
        vertices = list(vertex_order)
        if not vertices:
            return ExpanderSortResult(SortPlacement(), 0, 0, 0)
        network = self.network_factory(len(vertices))
        if use_numpy():
            from repro.kernels.sortnet import comparator_sort_numpy

            return comparator_sort_numpy(
                vertices, items_at, load, exchange_quality, network
            )

        def sort_key(item: SortItem) -> tuple:
            return (_comparable_key(item.key), repr(item.tag))

        # Pad every vertex to exactly `load` slots with infinity sentinels so
        # the merge-split argument (and the 0-1 principle) applies.
        slots: dict[Hashable, list[SortItem]] = {}
        padded_load = max(load, max((len(v) for v in items_at.values()), default=0), 1)
        for vertex in vertices:
            local = sorted(items_at.get(vertex, []), key=sort_key)
            padding = [SortItem(key=None, value=None, tag="__pad__")] * (padded_load - len(local))
            slots[vertex] = local + padding

        def padded_key(item: SortItem) -> tuple:
            if item.tag == "__pad__":
                return (_INFINITY_KEY, "")
            return (_comparable_key(item.key), repr(item.tag))

        exchanges = 0
        for layer in network.layers:
            for low_index, high_index in layer:
                low_vertex, high_vertex = vertices[low_index], vertices[high_index]
                merged = sorted(slots[low_vertex] + slots[high_vertex], key=padded_key)
                slots[low_vertex] = merged[:padded_load]
                slots[high_vertex] = merged[padded_load:]
                exchanges += 1

        placement = SortPlacement(
            items_at={
                vertex: [item for item in slots[vertex] if item.tag != "__pad__"]
                for vertex in vertices
            }
        )
        max_load = max((len(v) for v in placement.items_at.values()), default=0)
        rounds = _sorting_round_cost(network.depth, padded_load, exchange_quality)
        return ExpanderSortResult(
            placement=placement,
            rounds=rounds,
            network_depth=network.depth,
            max_load=max_load,
            comparator_exchanges=exchanges,
        )


class OracleSortEngine:
    """Produces the sorted placement directly and charges the same round cost.

    The placement matches the comparator engine's: padding tokens carry an
    infinite key, so after the network runs all real tokens occupy the lowest
    slots in vertex-ID order, ``padded_load`` per vertex — i.e. real tokens are
    packed front-first.  The tests cross-check the two engines on small
    instances.
    """

    def __init__(self, network_factory: Callable[[int], SortingNetwork] | None = None) -> None:
        self.network_factory = network_factory or batcher_odd_even_network

    def sort(
        self,
        vertex_order: Sequence[Hashable],
        items_at: dict[Hashable, list[SortItem]],
        load: int,
        exchange_quality: int = 1,
    ) -> ExpanderSortResult:
        vertices = list(vertex_order)
        if not vertices:
            return ExpanderSortResult(SortPlacement(), 0, 0, 0)
        network = self.network_factory(len(vertices))

        def sort_key(item: SortItem) -> tuple:
            return (_comparable_key(item.key), repr(item.tag))

        all_items = sorted(
            (item for vertex in vertices for item in items_at.get(vertex, [])), key=sort_key
        )
        counts = [len(items_at.get(vertex, [])) for vertex in vertices]
        padded_load = max(load, max(counts, default=0), 1)
        placement = SortPlacement(items_at={})
        cursor = 0
        for vertex in vertices:
            placement.items_at[vertex] = all_items[cursor: cursor + padded_load]
            cursor += padded_load
        max_load = max((len(v) for v in placement.items_at.values()), default=0)
        rounds = _sorting_round_cost(network.depth, padded_load, exchange_quality)
        return ExpanderSortResult(
            placement=placement,
            rounds=rounds,
            network_depth=network.depth,
            max_load=max_load,
            comparator_exchanges=0,
        )


def _sorting_round_cost(depth: int, load: int, exchange_quality: int) -> int:
    """Theorem 5.6 / Lemma 6.5 accounting: ``O(L * depth) * Q^2`` rounds."""
    quality = max(1, exchange_quality)
    return max(1, 2 * load * depth) * quality * quality


def expander_sort(
    vertex_order: Sequence[Hashable],
    items_at: dict[Hashable, list[SortItem]],
    load: int,
    exchange_quality: int = 1,
    engine: str = "auto",
    comparator_threshold: int = 128,
) -> ExpanderSortResult:
    """Sort tokens across a component's vertices (Theorem 5.6 front door).

    Args:
        vertex_order: component vertices in increasing ID order.
        items_at: current token lists per vertex (missing vertices = empty).
        load: the maximum load ``L`` promised by the caller.
        exchange_quality: quality of the routes realising one comparator
            exchange (drives the round accounting).
        engine: ``"comparator"`` to force the full merge-split simulation,
            ``"oracle"`` to force the direct placement, ``"auto"`` to simulate
            when the instance is small enough to afford it.
        comparator_threshold: size cutoff for the auto engine.
    """
    wants_comparator = engine == "comparator" or (
        engine == "auto" and len(vertex_order) <= comparator_threshold
    )
    if wants_comparator:
        return ComparatorSortEngine().sort(vertex_order, items_at, load, exchange_quality)
    return OracleSortEngine().sort(vertex_order, items_at, load, exchange_quality)
