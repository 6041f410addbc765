"""Round-cost accounting: the CostLedger and the paper's cost formulas.

The paper's complexity statements are all CONGEST round counts.  Instead of
simulating every message of the recursive routing machinery (which would make
even modest experiments intractable in Python — see the README's "Deviations
from the paper", item 3),
the routing engine performs real token movements over the real embedded paths
and charges rounds through a :class:`CostLedger`, using the paper's own
accounting rules:

* Fact 2.2 — one token along every path of a precomputed collection of quality
  ``Q`` costs ``Q^2`` rounds (``L`` tokens per path: ``L * Q^2``);
* broadcast / convergecast on a virtual graph costs its diameter times the
  flattened quality (squared for the deterministic schedule);
* simulating a depth-``d`` sorting network with load ``L`` and exchange routes
  of quality ``Q`` costs ``O(L * d) * Q^2`` rounds (Theorem 5.6 / Lemma 6.5);
* each shuffler iteration costs a portal-routing sort plus the matching send
  (Lemma 6.7).

Every phase is named so that preprocessing and query rounds can be reported
separately, which is exactly the tradeoff Theorem 1.1 is about.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["CostLedger", "sorting_network_depth", "sort_round_cost", "send_round_cost"]


def sorting_network_depth(size: int) -> int:
    """Depth of the Batcher odd-even network on ``size`` wires: ``O(log^2 size)``."""
    if size <= 1:
        return 1
    bits = math.ceil(math.log2(size))
    return max(1, bits * (bits + 1) // 2)


def sort_round_cost(component_size: int, load: int, exchange_quality: int) -> int:
    """Round cost of one expander sort over a component (Theorem 5.6 accounting)."""
    depth = sorting_network_depth(component_size)
    quality = max(1, exchange_quality)
    return max(1, 2 * max(1, load) * depth) * quality * quality


def send_round_cost(tokens_per_path: int, quality: int) -> int:
    """Round cost of sending tokens along precomputed paths (Fact 2.2)."""
    quality = max(1, quality)
    return max(1, tokens_per_path) * quality * quality


@dataclass
class CostLedger:
    """Accumulates CONGEST rounds per named phase."""

    phases: dict[str, int] = field(default_factory=dict)
    _stack: list[str] = field(default_factory=list)

    def charge(self, phase: str, rounds: int) -> None:
        """Add ``rounds`` to ``phase`` (and to the enclosing phase prefix, if any)."""
        if rounds < 0:
            raise ValueError("cannot charge a negative number of rounds")
        label = self._qualified(phase)
        self.phases[label] = self.phases.get(label, 0) + int(rounds)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Scope subsequent charges under ``name`` (phases nest with '/')."""
        self._stack.append(name)
        try:
            yield
        finally:
            self._stack.pop()

    def _qualified(self, phase: str) -> str:
        if not self._stack:
            return phase
        return "/".join(self._stack + [phase]) if phase else "/".join(self._stack)

    # -- reporting -----------------------------------------------------------

    def total(self, prefix: str = "") -> int:
        """Total rounds, optionally restricted to phases starting with ``prefix``."""
        return sum(
            rounds for label, rounds in self.phases.items() if label.startswith(prefix)
        )

    def merge(self, other: "CostLedger", prefix: str = "") -> None:
        """Fold another ledger's phases into this one (optionally prefixed)."""
        for label, rounds in other.phases.items():
            key = f"{prefix}{label}" if prefix else label
            self.phases[key] = self.phases.get(key, 0) + rounds

    def breakdown(self) -> dict[str, int]:
        """A copy of the per-phase totals, sorted by phase name."""
        return dict(sorted(self.phases.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CostLedger(total={self.total()}, phases={len(self.phases)})"
