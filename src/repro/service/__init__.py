"""The serving layer: fingerprinted artifact cache + batched multi-backend routing.

``repro.service`` operationalises the paper's preprocessing/query tradeoff:
preprocess each expander once per backend, cache the resulting
:class:`~repro.core.router.PreprocessArtifact` by canonical graph fingerprint
(in memory and optionally on disk), and serve batches of routing queries off
the shared artifacts — through any backend of the
:mod:`repro.backends` registry.  See :class:`RoutingService` for the entry
point, :meth:`RoutingService.compare_batch` for the side-by-side backend
comparison, and ``examples/serving_demo.py`` /
``examples/backend_showdown.py`` for tours.
"""

import os

from repro.service.cache import ArtifactCache, CacheStats
from repro.service.fingerprint import (
    canonical_graph_payload,
    graph_fingerprint,
    graph_payload,
)
from repro.service.service import (
    BatchReport,
    ComparisonEntry,
    ComparisonReport,
    QueryResult,
    RoutingQuery,
    RoutingService,
)

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "canonical_graph_payload",
    "graph_fingerprint",
    "graph_payload",
    "BatchReport",
    "ComparisonEntry",
    "ComparisonReport",
    "QueryResult",
    "RoutingQuery",
    "RoutingService",
    "leaked_segments",
]


def leaked_segments() -> list[str]:
    """Names of ``repro-shm*`` entries in ``/dev/shm`` (a teardown audit).

    Nothing in this package creates such entries any more; the listing stays
    for harnesses that audit ``/dev/shm`` before and after a run.  Returns an
    empty list where ``/dev/shm`` does not exist.
    """
    root = "/dev/shm"
    if not os.path.isdir(root):
        return []
    return sorted(entry for entry in os.listdir(root) if entry.startswith("repro-shm"))
