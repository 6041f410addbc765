"""Selectable compute kernels for the simulation hot paths.

The reproduction has two implementations of every hot inner loop:

* ``reference`` — the original dict-and-loop implementations, kept as the
  faithful (and slow) executable specification.  Selecting it also disables
  the deterministic memoizations (shuffler-quality caches, dispersion pair
  tables, dummy-dispersion replay cache), so the reference mode reproduces the
  pre-kernel serving behaviour end to end — it is the baseline the
  perf-regression harness (``benchmarks/harness.py``) measures against.
* ``numpy`` — vectorized kernels over integer-indexed arrays plus the
  memoized fast paths.  This is the default.  The kernels are *equivalent by
  construction and by test*: rounds, deliveries, congestion/dilation and
  every backend :class:`~repro.backends.base.RouteResult` are identical to
  the reference implementations (``tests/test_kernels.py`` and
  ``tests/test_fused.py`` assert this property-based over random expanders
  and workloads).

Dispersion (Lemma 6.2) has one array kernel,
:func:`repro.kernels.batched.disperse_many_numpy`, serving both the solo
:func:`~repro.core.dispersion.disperse` (one state) and the fused
:func:`~repro.core.dispersion.disperse_many` (a batch of states).  The
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
