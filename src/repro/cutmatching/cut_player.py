"""The cut player of the cut-matching game (Appendix B.1).

At iteration ``i`` the cut player examines the current walk matrix ``R_{i-1}``
on the cluster graph ``Y`` and produces two disjoint vertex subsets ``S`` and
``S'`` with (Property B.1):

1. ``|S_X| < |S'_X|`` (the corresponding base-graph sets, so the matching
   player can saturate ``S_X``), and
2. for *any* mapping ``sigma : S -> S'``,
   ``sum_{y in S} ||R[y] - R[sigma(y)]||^2 >= Pi(i-1) / 720``.

The KRV/RST construction projects the rows of ``R`` onto a random unit vector
``r`` orthogonal to the all-ones vector and splits the projections around
their mean using Lemma B.4 ("A_l / A_r" split).  The paper derandomizes by
brute-force subset enumeration on the (locally known, small) cluster graph.

We provide both:

* :class:`SpectralCutPlayer` — fully deterministic: the projection direction
  is the dominant non-trivial right singular vector of the centred walk
  matrix, i.e. the direction in which the rows of ``R`` are most spread out.
  This maximises (rather than merely preserves in expectation) the separation
  Lemma B.3 gives for a random direction, so the potential-drop argument goes
  through with the same constants.
* :class:`ExhaustiveCutPlayer` — literal derandomization by enumeration for
  very small cluster graphs (used in tests to validate the spectral player).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.kernels import use_numpy

__all__ = ["CutPlayerResult", "lemma_b4_split", "SpectralCutPlayer", "ExhaustiveCutPlayer"]


@dataclass(frozen=True)
class CutPlayerResult:
    """Two disjoint cluster-vertex subsets chosen by the cut player.

    ``small_side`` plays the role of ``S`` (to be saturated by the matching
    player) and ``large_side`` plays ``S'``.  ``walk_matrix`` is a copy of the
    matrix ``R`` they were chosen from; :attr:`separation` reads it.
    """

    small_side: tuple[int, ...]
    large_side: tuple[int, ...]
    walk_matrix: np.ndarray | None = field(default=None, repr=False, compare=False)

    @cached_property
    def separation(self) -> float:
        """``sum_{y in S} min_{s in S'} ||R[y] - R[s]||^2``, Property B.1(2)'s diagnostic.

        The game never reads it, so it is computed on first read.
        """
        if self.walk_matrix is None:
            return 0.0
        return _worst_case_separation(self.walk_matrix, self.small_side, self.large_side)

    def as_sets(self) -> tuple[set[int], set[int]]:
        return set(self.small_side), set(self.large_side)


def _worst_case_separation(
    walk_matrix: np.ndarray, small: Sequence[int], large: Sequence[int]
) -> float:
    """Sum over ``small`` of the squared distance to the nearest ``large`` row of ``R``.

    This is the separation any mapping ``sigma : S -> S'`` is guaranteed
    (Property B.1(2)): each row of ``S`` is charged its nearest row of ``S'``.
    """
    if not small or not large:
        return 0.0
    if use_numpy():
        from repro.kernels.matrixops import pairwise_separation_numpy

        return pairwise_separation_numpy(walk_matrix, small, large)
    total = 0.0
    for y in small:
        distances = [float(np.sum((walk_matrix[y] - walk_matrix[s]) ** 2)) for s in large]
        total += min(distances)
    return total


def lemma_b4_split(values: Sequence[float]) -> tuple[list[int], list[int], float]:
    """The A_l / A_r split of Lemma B.4 (RST14 Lemma 3.3).

    Given a map ``mu`` on a finite set (here: projected walk rows), return two
    disjoint index sets ``A_l`` (size <= |A|/8) and ``A_r`` (size >= |A|/2)
    separated by a value ``gamma`` such that every element of ``A_l`` is at
    least a third as far from ``gamma`` as from the mean, and ``A_l`` carries
    at least 1/80 of the total variance.

    The construction mirrors the proof: look at the side of the mean with the
    larger variance contribution, take its farthest |A|/8 elements as ``A_l``,
    and take the opposite half as ``A_r``.
    """
    count = len(values)
    if count < 2:
        return list(range(count)), [], 0.0
    array = np.asarray(values, dtype=float)
    mean = float(array.mean())
    deviations = array - mean
    order = np.argsort(array, kind="stable")

    left_half = order[: count // 2]
    right_half = order[count - count // 2:]
    left_variance = float(np.sum(deviations[array <= mean] ** 2))
    right_variance = float(np.sum(deviations[array > mean] ** 2))

    if right_variance >= left_variance:
        # A_l = farthest-above-the-mean eighth, A_r = lower half.
        take = max(1, count // 8)
        a_l = list(order[count - take:])
        a_r = list(left_half)
        gamma_candidates = array[a_l]
        gamma = float(gamma_candidates.min())
    else:
        take = max(1, count // 8)
        a_l = list(order[:take])
        a_r = list(right_half)
        gamma = float(array[a_l].max())
    a_l = [int(i) for i in a_l]
    a_r = [int(i) for i in a_r if int(i) not in set(a_l)]
    return a_l, a_r, gamma


class SpectralCutPlayer:
    """Deterministic cut player using the principal spread direction of ``R``.

    Two split policies are supported:

    * ``bisection=True`` (default): split the projected values into a lower
      and an upper half.  This is the aggressive KRV-style choice — the
      matching player then embeds near-perfect matchings and the potential
      drops by a constant factor per iteration in practice, which is what the
      shuffler-iteration experiments (E3) measure.
    * ``bisection=False``: the literal Lemma B.4 split (``|A_l| <= t/8``,
      ``|A_r| >= t/2``), matching the paper's worst-case analysis constants.
    """

    def __init__(self, bisection: bool = True) -> None:
        self.bisection = bisection

    def choose(self, walk_matrix: np.ndarray, part_sizes: Sequence[int]) -> CutPlayerResult:
        """Choose ``(S, S')`` from the current walk matrix.

        Args:
            walk_matrix: the ``t x t`` matrix ``R_{i-1}``.
            part_sizes: ``|X*_i|`` for each cluster vertex, used to enforce
                ``|S_X| < |S'_X|`` (Property B.1(1)).
        """
        t = walk_matrix.shape[0]
        if t < 2:
            return CutPlayerResult(small_side=(), large_side=tuple(range(t)))
        uniform = np.full(t, 1.0 / t)
        centred = walk_matrix - uniform[None, :]
        # Dominant right singular direction of the centred rows; deterministic
        # up to sign, which we fix by the first nonzero coordinate.
        _, _, vt = np.linalg.svd(centred, full_matrices=False)
        direction = vt[0]
        nonzero = np.flatnonzero(np.abs(direction) > 1e-12)
        if nonzero.size and direction[nonzero[0]] < 0:
            direction = -direction
        projections = centred @ direction

        if self.bisection:
            order = sorted(range(t), key=lambda i: (projections[i], i))
            half = t // 2
            a_l = order[:half]
            a_r = order[half:]
        else:
            a_l, a_r, _ = lemma_b4_split(list(projections))
        small, large = self._balance_sides(a_l, a_r, part_sizes)
        return CutPlayerResult(
            small_side=tuple(small), large_side=tuple(large), walk_matrix=walk_matrix.copy()
        )

    @staticmethod
    def _balance_sides(
        a_l: list[int], a_r: list[int], part_sizes: Sequence[int]
    ) -> tuple[list[int], list[int]]:
        """Ensure the S side is the lighter one in base-graph vertices."""
        weight_l = sum(part_sizes[i] for i in a_l)
        weight_r = sum(part_sizes[i] for i in a_r)
        if weight_l < weight_r:
            return a_l, a_r
        if weight_r < weight_l:
            return a_r, a_l
        # Tie: drop the largest-index element from one side to break it.
        if len(a_l) > 1:
            return a_l[:-1], a_r
        if len(a_r) > 1:
            return a_l, a_r[:-1]
        return a_l, a_r


class ExhaustiveCutPlayer:
    """Literal derandomization: enumerate subset pairs on a tiny cluster graph.

    Only usable for ``t <= 12`` or so; tests use it as the ground truth the
    spectral player is compared against.
    """

    def __init__(self, max_size: int = 12) -> None:
        self.max_size = max_size

    def choose(self, walk_matrix: np.ndarray, part_sizes: Sequence[int]) -> CutPlayerResult:
        t = walk_matrix.shape[0]
        if t > self.max_size:
            raise ValueError(f"exhaustive cut player limited to t <= {self.max_size}")
        if t < 2:
            return CutPlayerResult(small_side=(), large_side=tuple(range(t)))
        best: tuple[float, tuple[int, ...], tuple[int, ...]] | None = None
        indices = list(range(t))
        for small_size in range(1, max(2, t // 8 + 1)):
            for small in itertools.combinations(indices, small_size):
                remaining = [i for i in indices if i not in small]
                for large_size in range(max(1, t // 2), len(remaining) + 1):
                    for large in itertools.combinations(remaining, large_size):
                        weight_small = sum(part_sizes[i] for i in small)
                        weight_large = sum(part_sizes[i] for i in large)
                        if weight_small >= weight_large:
                            continue
                        separation = _worst_case_separation(walk_matrix, small, large)
                        if best is None or separation > best[0]:
                            best = (separation, small, large)
        assert best is not None
        _, small, large = best
        return CutPlayerResult(small_side=small, large_side=large, walk_matrix=walk_matrix.copy())
