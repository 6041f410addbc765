"""Selectable compute kernels for the simulation hot paths.

The reproduction has two implementations of every hot inner loop:

* ``reference`` — the original dict-and-loop implementations, kept as the
  faithful (and slow) executable specification.  Queries walk
  :class:`~repro.core.tokens.Token` objects through the object recursion
  (``_solve_task2``, :func:`~repro.core.merge.solve_task3`,
  :func:`~repro.core.dispersion.disperse`,
  :func:`~repro.core.leaf.route_in_leaf`), and the embedding and shuffler
  qualities that preprocessing records are recomputed from the paths, so the
  reference mode reproduces the pre-kernel serving behaviour end to end — it
  is the baseline the perf-regression harness (``benchmarks/harness.py``)
  measures against.
* ``numpy`` — vectorized kernels over integer-indexed arrays plus the
  memoized fast paths.  This is the default.  The kernels are *equivalent by
  construction and by test*: rounds, deliveries, tokens with their traces,
  congestion/dilation and every backend
  :class:`~repro.backends.base.RouteResult` are identical to the reference
  implementations (``tests/test_kernels.py``, ``tests/test_fused.py`` and
  ``tests/test_engine.py`` assert this, property-based where they can, over
  random expanders and workloads).

Under ``numpy``, queries run on the router's array engine
(:mod:`repro.core.router`, with its lookups in :mod:`repro.core.tables`):
every query's tokens are rows of flat arrays, and at each hierarchy node one
:func:`~repro.core.merge.solve_task3_many` call disperses all of them through
:func:`repro.kernels.batched.disperse_many_numpy`, the one dispersion kernel.
It takes row arrays; :func:`~repro.core.dispersion.disperse` (one state) and
:func:`~repro.core.dispersion.disperse_many` (a batch of states) adapt
:class:`~repro.core.dispersion.DispersionState` queues to it and back.  The
scheduler, sorting, conductance, and matrix kernels live in the sibling
modules.

Selection: the ``REPRO_KERNEL`` environment variable (read lazily, so tests
and the harness can flip it), or programmatically via :func:`set_kernel` /
the :func:`kernel` context manager, which override the environment.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "KERNELS",
    "active_kernel",
    "use_numpy",
    "set_kernel",
    "kernel",
]

#: The recognised kernel implementations.
KERNELS = ("reference", "numpy")

_DEFAULT = "numpy"
_override: str | None = None


def _validated(name: str) -> str:
    value = name.strip().lower()
    if value not in KERNELS:
        raise ValueError(f"unknown kernel {name!r}; expected one of {', '.join(KERNELS)}")
    return value


def active_kernel() -> str:
    """The kernel in effect: the programmatic override, else ``REPRO_KERNEL``, else numpy."""
    if _override is not None:
        return _override
    value = os.environ.get("REPRO_KERNEL", "").strip().lower()
    if not value:
        return _DEFAULT
    return _validated(value)


def use_numpy() -> bool:
    """True when the vectorized kernels (and the memoized fast paths) are active."""
    return active_kernel() == "numpy"


def set_kernel(name: str | None) -> None:
    """Set (or with ``None`` clear) the programmatic kernel override."""
    global _override
    _override = None if name is None else _validated(name)


@contextmanager
def kernel(name: str) -> Iterator[None]:
    """Context manager selecting a kernel for the enclosed block (used by tests)."""
    global _override
    previous = _override
    _override = _validated(name)
    try:
        yield
    finally:
        _override = previous
