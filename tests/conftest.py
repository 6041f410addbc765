"""Shared fixtures: small expanders, a prebuilt hierarchy, and a prebuilt router.

The expensive objects (hierarchical decomposition, preprocessed router) are
session-scoped so the full suite stays fast; tests that need to mutate state
build their own instances.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core.router import ExpanderRouter  # noqa: E402
from repro.graphs.generators import (  # noqa: E402
    circulant_expander,
    random_regular_expander,
    weighted_expander,
)
from repro.hierarchy.builder import HierarchyParameters, build_hierarchy  # noqa: E402

#: The deep equivalence run in CI: ``pytest tests/test_fused.py
#: tests/test_engine.py --hypothesis-profile=ci``.  Registered here, before the
#: hypothesis plugin loads the profile named on the command line.
settings.register_profile(
    "ci", deadline=None, max_examples=300, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.fixture(scope="session")
def small_expander():
    """A 64-vertex deterministic circulant expander."""
    return circulant_expander(64)


@pytest.fixture(scope="session")
def regular_expander():
    """A 96-vertex random regular expander (seeded, hence reproducible)."""
    return random_regular_expander(96, degree=8, seed=7)


@pytest.fixture(scope="session")
def weighted_graph():
    """A small weighted expander for the MST tests."""
    return weighted_expander(80, degree=8, seed=3)


@pytest.fixture(scope="session")
def hierarchy(regular_expander):
    """A prebuilt hierarchical decomposition of the regular expander."""
    return build_hierarchy(regular_expander, HierarchyParameters(epsilon=0.5))


@pytest.fixture(scope="session")
def preprocessed_router(regular_expander):
    """A preprocessed router over the regular expander (shared, read-only)."""
    router = ExpanderRouter(regular_expander, epsilon=0.5)
    router.preprocess()
    return router
