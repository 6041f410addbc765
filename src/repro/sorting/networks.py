"""Comparator sorting networks (the AKS substitute).

The paper's leaf case (Section 6.4), the expander-sorting algorithm
(Theorem 5.6) and the sorting-to-routing reduction (Appendix F) all simulate a
precomputed sorting network ``I_AKS`` over the vertices of a component.  Only
two properties of the network matter for the algorithms:

* it is a fixed sequence of *layers*, each layer a set of disjoint comparators
  ``(i, j)`` with ``i < j``;
* after executing all layers, position ``i`` holds the ``i``-th smallest key.

The AKS network achieves ``O(log n)`` depth but with galactic constants; we
substitute **Batcher's odd-even mergesort** (depth ``O(log^2 n)``) and the
**bitonic sorter** (same depth, different constant), as listed in the
README's "Deviations from the paper", item 1.  The extra ``log n`` factor is
absorbed by the paper's ``polylog`` terms.

Layers are generated for any ``n`` by building the power-of-two network and
discarding comparators that touch positions ``>= n`` (the standard
"pad with +infinity" argument: such comparators never move a real key).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "SortingNetwork",
    "batcher_odd_even_network",
    "bitonic_network",
    "insertion_network",
    "apply_network",
    "is_sorting_network",
]


@dataclass(frozen=True)
class SortingNetwork:
    """A comparator network: a list of layers of disjoint comparators.

    Attributes:
        size: the number of positions (wires) the network sorts.
        layers: each layer is a tuple of comparators ``(i, j)`` with ``i < j``;
            comparators within a layer touch disjoint positions and can be
            executed in parallel (one CONGEST "super-round" in the paper).
        name: which construction generated it (diagnostics / ablations).
    """

    size: int
    layers: tuple[tuple[tuple[int, int], ...], ...]
    name: str = "network"

    @property
    def depth(self) -> int:
        """Number of parallel layers."""
        return len(self.layers)

    @property
    def comparator_count(self) -> int:
        """Total number of comparators."""
        return sum(len(layer) for layer in self.layers)

    def comparators(self) -> Iterable[tuple[int, int]]:
        for layer in self.layers:
            yield from layer


def _layers_from_rounds(size: int, rounds: list[list[tuple[int, int]]], name: str) -> SortingNetwork:
    cleaned: list[tuple[tuple[int, int], ...]] = []
    for round_comparators in rounds:
        layer = tuple(
            (i, j)
            for i, j in round_comparators
            if i < size and j < size and i != j
        )
        if layer:
            cleaned.append(layer)
    return SortingNetwork(size=size, layers=tuple(cleaned), name=name)


def batcher_odd_even_network(size: int) -> SortingNetwork:
    """Batcher's odd-even mergesort network for ``size`` positions.

    Depth ``O(log^2 size)``; this is the default AKS substitute.
    """
    if size < 1:
        raise ValueError("network size must be at least 1")
    padded = 1
    while padded < size:
        padded *= 2

    rounds: list[list[tuple[int, int]]] = []
    p = 1
    while p < padded:
        k = p
        while k >= 1:
            layer: list[tuple[int, int]] = []
            for j in range(k % p, padded - k, 2 * k):
                for i in range(0, k):
                    low = i + j
                    high = i + j + k
                    if (low // (2 * p)) == (high // (2 * p)):
                        layer.append((low, high))
            if layer:
                rounds.append(layer)
            k //= 2
        p *= 2
    return _layers_from_rounds(size, rounds, name="batcher-odd-even")


def bitonic_network(size: int) -> SortingNetwork:
    """Normalized bitonic sorting network for ``size`` positions (ablation alternative).

    Uses the direction-free ("normalized") formulation in which every
    comparator is ascending: each stage starts with a mirror layer inside each
    block followed by the usual half-cleaner layers.  The result is verified
    with the 0-1 principle for small sizes; the construction is size-uniform,
    so correctness at small power-of-two sizes extends structurally.
    """
    if size < 1:
        raise ValueError("network size must be at least 1")
    padded = 1
    while padded < size:
        padded *= 2

    rounds: list[list[tuple[int, int]]] = []
    k = 2
    while k <= padded:
        # Mirror layer: within each block of size k, compare position p with
        # position k-1-p.  This replaces the descending comparators of the
        # textbook bitonic network.
        mirror_layer: list[tuple[int, int]] = []
        for block_start in range(0, padded, k):
            for p in range(k // 2):
                mirror_layer.append((block_start + p, block_start + k - 1 - p))
        rounds.append(mirror_layer)
        # Half-cleaner layers with shrinking stride.
        j = k // 4
        while j >= 1:
            layer: list[tuple[int, int]] = []
            for i in range(padded):
                if (i % (2 * j)) < j:
                    layer.append((i, i + j))
            rounds.append(layer)
            j //= 2
        k *= 2
    network = _layers_from_rounds(size, rounds, name="bitonic")
    if size <= 10 and not is_sorting_network(network, exhaustive_limit=10):
        # Defensive: never hand back an incorrect network for an ablation run.
        fallback = batcher_odd_even_network(size)
        return SortingNetwork(size=size, layers=fallback.layers, name="bitonic(batcher-fallback)")
    return network


def insertion_network(size: int) -> SortingNetwork:
    """The brick-wall (odd-even transposition) network: depth ``size``.

    Used as the "no clever network" ablation baseline and for tiny components.
    """
    if size < 1:
        raise ValueError("network size must be at least 1")
    rounds: list[list[tuple[int, int]]] = []
    for round_index in range(size):
        start = round_index % 2
        layer = [(i, i + 1) for i in range(start, size - 1, 2)]
        if layer:
            rounds.append(layer)
    return _layers_from_rounds(size, rounds, name="odd-even-transposition")


def apply_network(network: SortingNetwork, values: Sequence) -> list:
    """Apply the comparator network to a list of values and return the result."""
    if len(values) != network.size:
        raise ValueError(
            f"network sorts {network.size} positions but received {len(values)} values"
        )
    data = list(values)
    for layer in network.layers:
        for i, j in layer:
            if data[j] < data[i]:
                data[i], data[j] = data[j], data[i]
    return data


def is_sorting_network(network: SortingNetwork, exhaustive_limit: int = 10) -> bool:
    """Check the network sorts every input, via the 0-1 principle.

    For ``size <= exhaustive_limit`` all ``2^size`` binary inputs are tested
    (a network sorts all inputs iff it sorts all 0-1 inputs); for larger sizes
    a deterministic battery of structured inputs (reversed, rotations,
    interleavings) is used as a smoke test.
    """
    size = network.size
    if size <= 1:
        return True
    if size <= exhaustive_limit:
        for mask in range(1 << size):
            bits = [(mask >> position) & 1 for position in range(size)]
            if apply_network(network, bits) != sorted(bits):
                return False
        return True
    candidates = [
        list(range(size))[::-1],
        list(range(size)),
        [size - i if i % 2 == 0 else i for i in range(size)],
        [(i * 7919) % size for i in range(size)],
        [0] * (size // 2) + [1] * (size - size // 2),
        ([1, 0] * size)[:size],
    ]
    return all(apply_network(network, values) == sorted(values) for values in candidates)
