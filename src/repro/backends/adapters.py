"""Adapters normalizing the four routing strategies behind :class:`RoutingBackend`.

Each adapter wraps one of the repo's routing implementations and translates
its native outcome into the shared :class:`~repro.backends.base.RouteResult`
schema:

* ``deterministic`` — the paper's :class:`ExpanderRouter` (Theorem 1.1), the
  only backend with reusable preprocessed state; it exposes the artifact
  hooks the serving layer caches through.
* ``rebuild-per-query`` — the CS20-style comparator
  (:class:`RebuildPerQueryRouter`): correct and deterministic, but its query
  rounds *include* a full rebuild plus the sequential pair-iteration factor.
* ``randomized-gks`` — the GKS17-style two-phase randomized strategy
  (:func:`route_randomized`): lazy-walk redistribution then delivery.
* ``direct`` — naive shortest-path store-and-forward
  (:func:`route_directly`), the "no machinery" comparator.

All four register themselves in the backend registry on import, so
``get_backend("direct", graph)`` etc. work as soon as :mod:`repro.backends`
is imported.
"""

from __future__ import annotations

import time
from typing import Sequence

import networkx as nx

from repro.backends.base import (
    PreprocessInfo,
    RouteResult,
    register_backend,
)
from repro.baselines.cs20_model import RebuildPerQueryRouter
from repro.baselines.direct_routing import route_directly, route_directly_many
from repro.baselines.randomized_gks import route_randomized
from repro.core.router import ExpanderRouter, PreprocessArtifact
from repro.core.tokens import RoutingRequest
from repro.hierarchy.builder import HierarchyParameters
from repro.metrics import default_registry
from repro.workloads import infer_load

__all__ = [
    "DeterministicBackend",
    "RebuildPerQueryBackend",
    "RandomizedGKSBackend",
    "DirectBackend",
]


def _route_metrics(name: str):
    """``name``'s children of the two ``repro_backend_route_*`` families.

    Adapters are constructed by registry factories with no injection point,
    so the ``repro_backend_*`` families always land in the *process-wide*
    registry (:func:`repro.metrics.default_registry`) — swap it with
    :func:`repro.metrics.set_default_registry` to isolate them.  The lookup
    runs once per call, so a swap takes effect on the next call.  Per-service
    and per-cluster registries carry the ``repro_service_*`` /
    ``repro_cluster_*`` views of the same traffic.
    """
    registry = default_registry()
    seconds = registry.histogram(
        "repro_backend_route_seconds", "Wall-clock per backend route() call.", labels=("backend",)
    ).labels(backend=name)
    rounds = registry.counter(
        "repro_backend_route_rounds_total", "Query rounds charged per backend.", labels=("backend",)
    ).labels(backend=name)
    return seconds, rounds


def _observe_route(name: str, result: RouteResult, started: float) -> RouteResult:
    """Record one route() call into the default metrics registry."""
    seconds, rounds = _route_metrics(name)
    seconds.observe(time.perf_counter() - started)
    rounds.inc(result.query_rounds)
    return result


def _observe_route_many(name: str, results: list[RouteResult], per_query: float) -> None:
    """Record a fused call's results, ``per_query`` seconds each, with one lookup."""
    if not results:
        return
    seconds, rounds = _route_metrics(name)
    for result in results:
        seconds.observe(per_query)
        rounds.inc(result.query_rounds)


def _observe_preprocess(info: PreprocessInfo) -> PreprocessInfo:
    """Record one preprocess() call into the default metrics registry."""
    default_registry().counter(
        "repro_backend_preprocess_rounds_total",
        "Preprocessing rounds charged per backend.",
        labels=("backend",),
    ).labels(backend=info.backend).inc(info.rounds)
    return info


class DeterministicBackend:
    """The paper's deterministic expander router behind the backend protocol.

    The one backend with a real preprocessing/query tradeoff: ``preprocess``
    builds the hierarchy + shufflers once, ``route`` answers queries off the
    shared structures, and the artifact hooks let the serving layer cache the
    preprocessed state by graph fingerprint.
    """

    name = "deterministic"

    def __init__(
        self,
        graph: nx.Graph,
        epsilon: float = 0.5,
        psi: float | None = None,
        hierarchy_params: HierarchyParameters | None = None,
        router: ExpanderRouter | None = None,
    ) -> None:
        self.graph = graph
        self.router = (
            router
            if router is not None
            else ExpanderRouter(graph, epsilon=epsilon, psi=psi, hierarchy_params=hierarchy_params)
        )

    def preprocess(self) -> PreprocessInfo:
        if not self.router.preprocessed:
            self.router.preprocess()
        summary = self.router.artifact.summary if self.router.artifact else None
        details = (
            {
                "hierarchy_levels": summary.hierarchy_levels,
                "node_count": summary.node_count,
                "shuffler_count": summary.shuffler_count,
                "best_vertex_count": summary.best_vertex_count,
            }
            if summary is not None
            else {}
        )
        return _observe_preprocess(
            PreprocessInfo(
                backend=self.name,
                rounds=self.router.preprocess_ledger.total("preprocess"),
                details=details,
            )
        )

    def route(
        self, requests: Sequence[RoutingRequest], load: int | None = None
    ) -> RouteResult:
        started = time.perf_counter()
        outcome = self.router.route(requests, load=load)
        result = RouteResult(
            backend=self.name,
            delivered=outcome.delivered,
            total_tokens=outcome.total_tokens,
            query_rounds=outcome.query_rounds,
            preprocess_rounds=outcome.preprocessing_rounds,
            load=outcome.load,
            extra={
                "max_intermediate_part_load": outcome.max_intermediate_part_load,
                "dispersion_window_fraction": outcome.dispersion_window_fraction,
                "fallback_assignments": outcome.fallback_assignments,
            },
            raw=outcome,
        )
        return _observe_route(self.name, result, started)

    # -- fused batch capability (detected by the serving layer) ---------------

    def route_many(
        self,
        request_groups: Sequence[Sequence[RoutingRequest]],
        loads: Sequence[int | None] | None = None,
    ) -> list[RouteResult]:
        """Route several queries through one fused recursion (identical results).

        Wraps :meth:`ExpanderRouter.route_many`: all groups share one walk of
        the hierarchy with batched dispersion kernels, and every
        :class:`RouteResult` matches what :meth:`route` returns for that
        group alone.
        """
        started = time.perf_counter()
        outcomes = self.router.route_many(request_groups, loads)
        elapsed = time.perf_counter() - started
        results = [
            RouteResult(
                backend=self.name,
                delivered=outcome.delivered,
                total_tokens=outcome.total_tokens,
                query_rounds=outcome.query_rounds,
                preprocess_rounds=outcome.preprocessing_rounds,
                load=outcome.load,
                extra={
                    "max_intermediate_part_load": outcome.max_intermediate_part_load,
                    "dispersion_window_fraction": outcome.dispersion_window_fraction,
                    "fallback_assignments": outcome.fallback_assignments,
                },
                raw=outcome,
            )
            for outcome in outcomes
        ]
        # Wall-clock is a batch-level measurement; attribute an equal share
        # per query so the per-backend histograms stay comparable.
        _observe_route_many(self.name, results, elapsed / max(1, len(outcomes)))
        return results

    # -- artifact capability (detected by the serving layer) ------------------

    def export_artifact(self, fingerprint: str | None = None) -> PreprocessArtifact:
        return self.router.export_artifact(fingerprint=fingerprint)

    @classmethod
    def from_artifact(cls, graph: nx.Graph, artifact: PreprocessArtifact) -> "DeterministicBackend":
        return cls(graph, router=ExpanderRouter.from_artifact(graph, artifact))


class RebuildPerQueryBackend:
    """CS20-style comparator: no reusable state, every query rebuilds everything."""

    name = "rebuild-per-query"

    def __init__(self, graph: nx.Graph, epsilon: float = 0.5) -> None:
        self.graph = graph
        self.epsilon = epsilon
        self._router = RebuildPerQueryRouter(graph, epsilon=epsilon)

    def preprocess(self) -> PreprocessInfo:
        # Nothing survives between queries — the rebuild cost is charged to
        # every query's rounds instead, which is what the comparison measures.
        return _observe_preprocess(
            PreprocessInfo(backend=self.name, rounds=0, details={"rebuilds_per_query": True})
        )

    def route(
        self, requests: Sequence[RoutingRequest], load: int | None = None
    ) -> RouteResult:
        started = time.perf_counter()
        outcome = self._router.route(requests, load=load)
        result = RouteResult(
            backend=self.name,
            delivered=outcome.delivered,
            total_tokens=outcome.total_tokens,
            query_rounds=outcome.query_rounds,
            preprocess_rounds=0,
            load=load if load is not None else infer_load(requests),
            raw=outcome,
        )
        return _observe_route(self.name, result, started)


class RandomizedGKSBackend:
    """GKS17-style randomized two-phase routing behind the backend protocol."""

    name = "randomized-gks"

    def __init__(self, graph: nx.Graph, seed: int = 0, phi: float | None = None) -> None:
        self.graph = graph
        self.seed = seed
        self.phi = phi

    def preprocess(self) -> PreprocessInfo:
        return _observe_preprocess(
            PreprocessInfo(backend=self.name, rounds=0, details={"randomized": True})
        )

    def route(
        self, requests: Sequence[RoutingRequest], load: int | None = None
    ) -> RouteResult:
        started = time.perf_counter()
        outcome = route_randomized(self.graph, requests, seed=self.seed, phi=self.phi)
        result = RouteResult(
            backend=self.name,
            delivered=outcome.delivered,
            total_tokens=len(requests),
            query_rounds=outcome.rounds,
            preprocess_rounds=0,
            load=load if load is not None else infer_load(requests),
            extra={
                "congestion": outcome.congestion,
                "dilation": outcome.dilation,
                "walk_steps": outcome.walk_steps,
                "seed": outcome.seed,
            },
            raw=outcome,
        )
        return _observe_route(self.name, result, started)


class DirectBackend:
    """Naive shortest-path store-and-forward behind the backend protocol."""

    name = "direct"

    def __init__(self, graph: nx.Graph) -> None:
        self.graph = graph

    def preprocess(self) -> PreprocessInfo:
        return _observe_preprocess(PreprocessInfo(backend=self.name, rounds=0, details={}))

    def route(
        self, requests: Sequence[RoutingRequest], load: int | None = None
    ) -> RouteResult:
        started = time.perf_counter()
        outcome = route_directly(self.graph, requests)
        result = RouteResult(
            backend=self.name,
            delivered=outcome.delivered,
            total_tokens=len(requests),
            query_rounds=outcome.rounds,
            preprocess_rounds=0,
            load=load if load is not None else infer_load(requests),
            extra={"congestion": outcome.congestion, "dilation": outcome.dilation},
            raw=outcome,
        )
        return _observe_route(self.name, result, started)

    def route_many(
        self,
        request_groups: Sequence[Sequence[RoutingRequest]],
        loads: Sequence[int | None] | None = None,
    ) -> list[RouteResult]:
        """Route several groups through one stacked scheduler pass."""
        if loads is None:
            loads = [None] * len(request_groups)
        started = time.perf_counter()
        outcomes = route_directly_many(self.graph, request_groups)
        per_query = (time.perf_counter() - started) / max(1, len(outcomes))
        results = [
            RouteResult(
                backend=self.name,
                delivered=outcome.delivered,
                total_tokens=len(requests),
                query_rounds=outcome.rounds,
                preprocess_rounds=0,
                load=load if load is not None else infer_load(requests),
                extra={"congestion": outcome.congestion, "dilation": outcome.dilation},
                raw=outcome,
            )
            for requests, load, outcome in zip(request_groups, loads, outcomes)
        ]
        _observe_route_many(self.name, results, per_query)
        return results


register_backend(DeterministicBackend.name, DeterministicBackend)
register_backend(RebuildPerQueryBackend.name, RebuildPerQueryBackend)
register_backend(RandomizedGKSBackend.name, RandomizedGKSBackend)
register_backend(DirectBackend.name, DirectBackend)
