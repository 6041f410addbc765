"""Shared benchmark fixtures: small preprocessed routers and workloads.

Benchmark scale note: the full recursion is simulated in Python, so the
benchmark graphs are kept at a few hundred vertices (the repro hint "networkx
prototyping easy; large instances slow" applies).  The *shapes* the paper
claims — who wins, how costs scale, where the tradeoff bends — are what the
benchmarks check.

CI quick mode: setting ``REPRO_BENCH_QUICK=1`` trims every size sweep to its
smallest points (see :func:`quick_sizes`), which is what the CI bench-smoke
job runs.  Full sweeps are for local runs.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.analysis.experiments import permutation_requests  # noqa: E402
from repro.core.router import ExpanderRouter  # noqa: E402
from repro.graphs.generators import random_regular_expander  # noqa: E402

QUICK = os.environ.get("REPRO_BENCH_QUICK", "").strip().lower() in {"1", "true", "yes", "on"}


def quick_sizes(sizes):
    """The benchmark sweep for ``sizes``: all of them, or the smallest in quick mode.

    Quick mode keeps the two smallest points, not one, because several
    benchmarks fit growth curves through their sweep and a fit needs at least
    two samples.
    """
    ordered = sorted(sizes)
    return ordered[:2] if QUICK else list(sizes)


def quick_points(points):
    """Like :func:`quick_sizes` for ``(n, ...)`` parameter tuples."""
    if not QUICK:
        return list(points)
    smallest = min(point[0] for point in points)
    return [point for point in points if point[0] == smallest]


BENCH_SIZES = quick_sizes([64, 128, 256])
BENCH_EPSILONS = [0.34, 0.5, 0.7]


@pytest.fixture(scope="session")
def bench_graph():
    """The default benchmark expander (256 vertices, degree 8; smaller in quick mode)."""
    return random_regular_expander(max(BENCH_SIZES), degree=8, seed=1)


@pytest.fixture(scope="session")
def bench_router(bench_graph):
    """A preprocessed router on the benchmark expander."""
    router = ExpanderRouter(bench_graph, epsilon=0.5)
    router.preprocess()
    return router


@pytest.fixture(scope="session")
def bench_requests(bench_graph):
    """A load-2 permutation routing instance on the benchmark expander."""
    return permutation_requests(bench_graph, load=2)
