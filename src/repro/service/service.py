"""The batched routing service: fingerprint, cache, fan out, compare, report.

:class:`RoutingService` is the serving layer the ROADMAP's production north
star asks for.  It turns the paper's preprocessing/query tradeoff into an
operational win, and — since PR 2 — is *backend-agnostic*: every query names
a routing backend from the :mod:`repro.backends` registry, so the same
service front end drives the paper's deterministic router, the CS20-style
rebuild-per-query comparator, the randomized GKS baseline, and naive direct
routing.

1. **Fingerprint** — every submitted query hashes its graph + preprocessing
   parameters + backend name + backend parameters
   (:func:`repro.service.fingerprint.graph_fingerprint`); queries on the same
   expander under the same backend share a key.  The expensive graph
   canonicalization is memoized per ``Graph`` *object*, so resubmitting the
   same graph never re-canonicalizes it.
2. **Cache** — per key, backends with reusable preprocessed state (the
   artifact hooks of :class:`repro.backends.RoutingBackend`) preprocess at
   most once; artifacts come from the :class:`ArtifactCache` (memory LRU +
   optional disk pickles) whenever possible.  Backends without reusable state
   simply preprocess per batch (a no-op for all current ones).
3. **Execute** — a batch is grouped per fingerprint; missing backends are
   built, then every same-fingerprint group routes (fused through
   ``route_many`` when its plan asks), in-process on the caller's thread.
   The engine is serialized per process, so a thread fan-out would add only
   hand-offs; multi-core serving comes from shards (the cluster tier's
   shard-server processes).
4. **Report** — each batch returns a :class:`BatchReport`; the multi-backend
   entry point :meth:`RoutingService.compare_batch` routes the same workloads
   through several backends and returns a side-by-side
   :class:`ComparisonReport`, both rendered through
   :mod:`repro.analysis.reporting`.

Since PR 5 every query executes through an
:class:`~repro.planner.ExecutionPlan` — one object owning the backend,
backend parameters, kernel, and fusion decision.  Callers may
pass a plan explicitly, attach a :class:`~repro.planner.QueryPlanner`
(``policy="cost"`` / ``"adaptive"``) and let the cost model choose, or keep
using the legacy kwargs, which the service turns into ``fixed`` plans with
identical behaviour.  Observed per-query and per-preprocess timings flow back
into the planner's cost model, which is how the adaptive policy converges.

Queries are pure with respect to the shared backend state — routing mutates
only its own tokens and per-query ledgers — so callers on other threads (the
gateway, a shard server) may share one backend safely.
"""

from __future__ import annotations

import inspect
import json
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Hashable, Mapping, Sequence

import networkx as nx

from repro.analysis.reporting import format_kv, format_table
from repro.backends.base import (
    PreprocessInfo,
    RouteResult,
    RoutingBackend,
    available_backends,
    backend_factory,
    canonical_backend_params,
    supports_artifacts,
    supports_fusion,
)
from repro.core.router import PreprocessArtifact
from repro.core.tokens import RoutingRequest
from repro.hierarchy.builder import HierarchyParameters
from repro.kernels import active_kernel
from repro.metrics import MetricFamily, MetricsRegistry, default_registry
from repro.metrics import quantile as _quantile
from repro.planner import ExecutionPlan, QueryPlanner
from repro.service.cache import ArtifactCache
from repro.service.fingerprint import graph_fingerprint, graph_payload
from repro.workloads import Workload

__all__ = [
    "RoutingQuery",
    "QueryResult",
    "BatchReport",
    "ComparisonEntry",
    "ComparisonReport",
    "RoutingService",
]

#: The default backend a query routes through when none is named.
DEFAULT_BACKEND = "deterministic"


@dataclass(frozen=True)
class RoutingQuery:
    """One submitted routing instance, normalised and fingerprinted.

    Attributes:
        query_id: service-assigned id, unique per service instance.
        fingerprint: canonical hash of (graph, preprocessing parameters,
            backend, backend parameters).
        graph: the graph to route on.
        requests: the Task 1 requests of this query.
        load: explicit load parameter ``L`` (``None`` = infer per query).
        backend: registry name of the routing backend to use (mirrors
            ``plan.backend`` when a plan is attached).
        backend_params: extra parameters for the backend factory (mirrors
            ``plan.backend_params``).
        workload: name of the workload shape the requests came from (reporting
            only; ``""`` for ad-hoc request lists).
        plan: the :class:`~repro.planner.ExecutionPlan` this query executes
            under (the service always attaches one at submit time; ``None``
            only for hand-built queries, which route as fixed plans).
    """

    query_id: int
    fingerprint: str
    graph: nx.Graph
    requests: tuple[RoutingRequest, ...]
    load: int | None = None
    backend: str = DEFAULT_BACKEND
    backend_params: Mapping[str, Any] = field(default_factory=dict)
    workload: str = ""
    plan: ExecutionPlan | None = None


@dataclass
class QueryResult:
    """Outcome of one query of a batch, plus serving metadata.

    Attributes:
        query_id: id assigned at :meth:`RoutingService.submit` time.
        fingerprint: the cache key the query was served under.
        backend: the backend that served the query.
        outcome: the normalized :class:`RouteResult` (for the deterministic
            backend, identical counts to a direct
            :meth:`ExpanderRouter.route` call on the same instance).
        cache_hit: True when the backend's artifact existed before this batch.
        seconds: wall-clock spent routing this query (excludes preprocessing).
        workload: workload-shape label carried over from the query.
        plan: the :class:`~repro.planner.ExecutionPlan` the query executed
            under.
    """

    query_id: int
    fingerprint: str
    backend: str
    outcome: RouteResult
    cache_hit: bool
    seconds: float
    workload: str = ""
    plan: ExecutionPlan | None = None

    @property
    def plan_id(self) -> str:
        """Full plan identity (``""`` for plan-less hand-built queries)."""
        return self.plan.plan_id if self.plan is not None else ""

    @property
    def plan_semantic_id(self) -> str:
        """Result-affecting plan identity (stable across execution modes)."""
        return self.plan.semantic_id if self.plan is not None else ""

    def as_row(self) -> dict[str, object]:
        return {
            "query": self.query_id,
            "graph": self.fingerprint[:10],
            "backend": self.backend,
            "plan": self.plan_id[:8],
            "tokens": self.outcome.total_tokens,
            "delivered": self.outcome.delivered,
            "load": self.outcome.load,
            "query_rounds": self.outcome.query_rounds,
            "cache_hit": self.cache_hit,
            "seconds": self.seconds,
        }


@dataclass
class BatchReport:
    """Aggregated serving stats for one :meth:`RoutingService.route_batch` call.

    Attributes:
        results: per-query results, in submission order.
        distinct_graphs: number of distinct fingerprints in the batch.
        cache_hits: queries whose artifact predated the batch.
        cache_misses: queries that had to wait for a fresh preprocess.
        preprocess_rounds_incurred: CONGEST rounds of *new* preprocessing this
            batch paid for (0 on a fully warm cache).
        preprocess_rounds_reused: rounds of preprocessing served from cache —
            the amortization the paper's tradeoff buys.
        preprocess_seconds: wall-clock spent building missing backends.
        route_seconds: wall-clock of the routing phase (every query of the
            batch, from the first route to the last result).
        wall_seconds: wall-clock of the whole batch.

    All timings come from the monotonic high-resolution clock
    (``time.perf_counter``), so they are safe to difference and feed the
    metrics histograms a real latency signal.
    """

    results: list[QueryResult] = field(default_factory=list)
    distinct_graphs: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    preprocess_rounds_incurred: int = 0
    preprocess_rounds_reused: int = 0
    preprocess_seconds: float = 0.0
    route_seconds: float = 0.0
    wall_seconds: float = 0.0

    @property
    def query_count(self) -> int:
        return len(self.results)

    @property
    def query_seconds(self) -> list[float]:
        """Per-query routing wall-clock, in submission order."""
        return [result.seconds for result in self.results]

    @property
    def query_seconds_total(self) -> float:
        return sum(self.query_seconds)

    @property
    def query_seconds_mean(self) -> float:
        if not self.results:
            return 0.0
        return self.query_seconds_total / len(self.results)

    @property
    def query_seconds_max(self) -> float:
        return max(self.query_seconds, default=0.0)

    def query_seconds_quantile(self, q: float) -> float:
        """The ``q``-quantile of per-query latency (linear interpolation)."""
        return _quantile(self.query_seconds, q)

    @property
    def cache_hit_rate(self) -> float:
        if not self.results:
            return 0.0
        return self.cache_hits / len(self.results)

    @property
    def total_query_rounds(self) -> int:
        return sum(result.outcome.query_rounds for result in self.results)

    @property
    def all_delivered(self) -> bool:
        return all(result.outcome.all_delivered for result in self.results)

    def summary(self) -> dict[str, object]:
        """The batch headline numbers as a plain dict."""
        return {
            "queries": self.query_count,
            "distinct_graphs": self.distinct_graphs,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "preprocess_rounds_incurred": self.preprocess_rounds_incurred,
            "preprocess_rounds_reused": self.preprocess_rounds_reused,
            "total_query_rounds": self.total_query_rounds,
            "all_delivered": self.all_delivered,
            "preprocess_seconds": self.preprocess_seconds,
            "route_seconds": self.route_seconds,
            "wall_seconds": self.wall_seconds,
            "query_seconds_mean": self.query_seconds_mean,
            "query_seconds_p50": self.query_seconds_quantile(0.50),
            "query_seconds_p95": self.query_seconds_quantile(0.95),
            "query_seconds_max": self.query_seconds_max,
        }

    def signature(self) -> str:
        """The deterministic shape of the batch as one canonical JSON string.

        Covers every count and round total but no wall-clock, so two batches
        over the same submissions agree byte for byte regardless of timing
        (the determinism tests compare exactly this).  Plan identity is
        recorded as the *semantic* id (backend + parameters only), which is
        invariant across kernels and fusion of the same plan.
        """
        payload = {
            "queries": [
                {
                    "query_id": result.query_id,
                    "fingerprint": result.fingerprint,
                    "backend": result.backend,
                    "plan": result.plan_semantic_id,
                    "workload": result.workload,
                    "cache_hit": result.cache_hit,
                    "delivered": result.outcome.delivered,
                    "total": result.outcome.total_tokens,
                    "query_rounds": result.outcome.query_rounds,
                    "preprocess_rounds": result.outcome.preprocess_rounds,
                    "load": result.outcome.load,
                }
                for result in sorted(self.results, key=lambda result: result.query_id)
            ],
            "distinct_graphs": self.distinct_graphs,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "preprocess_rounds_incurred": self.preprocess_rounds_incurred,
            "preprocess_rounds_reused": self.preprocess_rounds_reused,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def render(self, per_query: bool = True) -> str:
        """Human-readable report (summary block plus optional per-query table)."""
        parts = [format_kv(self.summary(), title="batch")]
        if per_query and self.results:
            parts.append(format_table([result.as_row() for result in self.results]))
        return "\n\n".join(parts)


@dataclass
class ComparisonEntry:
    """One (backend, workload) cell of a :class:`ComparisonReport`."""

    backend: str
    workload: str
    workload_index: int
    result: RouteResult
    cache_hit: bool
    seconds: float

    def as_row(self) -> dict[str, object]:
        return {
            "backend": self.backend,
            "workload": self.workload,
            "delivered": self.result.delivered,
            "total": self.result.total_tokens,
            "query_rounds": self.result.query_rounds,
            "preprocess_rounds": self.result.preprocess_rounds,
            "load": self.result.load,
            "cache_hit": self.cache_hit,
            "seconds": self.seconds,
        }


@dataclass
class ComparisonReport:
    """Side-by-side results of routing the same workloads through several backends.

    Attributes:
        entries: one entry per (backend, workload), grouped by backend in the
            order the backends were compared.
        batch_reports: the underlying per-backend :class:`BatchReport` (one
            batch per backend, so caching and execution behave exactly as in
            :meth:`RoutingService.route_batch`).
    """

    entries: list[ComparisonEntry] = field(default_factory=list)
    batch_reports: dict[str, BatchReport] = field(default_factory=dict)

    @property
    def backends(self) -> list[str]:
        seen: dict[str, None] = {}
        for entry in self.entries:
            seen.setdefault(entry.backend, None)
        return list(seen)

    @property
    def all_delivered(self) -> bool:
        return all(entry.result.all_delivered for entry in self.entries)

    def rows(self) -> list[dict[str, object]]:
        """One flat schema row per (backend, workload)."""
        return [entry.as_row() for entry in self.entries]

    def pivot(self, value: str = "query_rounds") -> list[dict[str, object]]:
        """One row per workload, one column per backend (default: query rounds)."""
        by_workload: dict[tuple[int, str], dict[str, object]] = {}
        for entry in self.entries:
            key = (entry.workload_index, entry.workload)
            row = by_workload.setdefault(key, {"workload": entry.workload})
            row[entry.backend] = entry.as_row()[value]
        return [by_workload[key] for key in sorted(by_workload)]

    def summary_rows(self) -> list[dict[str, object]]:
        """Per-backend totals across every workload of the comparison."""
        rows = []
        for backend in self.backends:
            mine = [entry for entry in self.entries if entry.backend == backend]
            report = self.batch_reports.get(backend)
            rows.append(
                {
                    "backend": backend,
                    "workloads": len(mine),
                    "delivered": sum(entry.result.delivered for entry in mine),
                    "total": sum(entry.result.total_tokens for entry in mine),
                    "total_query_rounds": sum(entry.result.query_rounds for entry in mine),
                    "preprocess_rounds_incurred": (
                        report.preprocess_rounds_incurred if report else 0
                    ),
                    "preprocess_rounds_reused": (
                        report.preprocess_rounds_reused if report else 0
                    ),
                    "seconds": sum(entry.seconds for entry in mine),
                }
            )
        return rows

    def render(self) -> str:
        """The comparison as aligned plain-text tables (per-cell, pivot, totals)."""
        parts = []
        if self.entries:
            parts.append(format_table(self.rows()))
            parts.append("query_rounds per workload, side by side:")
            parts.append(format_table(self.pivot("query_rounds")))
            parts.append(format_table(self.summary_rows()))
        else:
            parts.append("(no data)")
        return "\n\n".join(parts)


class RoutingService:
    """Batched, cached front end over the pluggable routing backends.

    Args:
        epsilon: tradeoff parameter used for every deterministic preprocess
            (part of the cache key, so services with different epsilons never
            share artifacts even over a shared disk tier).
        psi: optional explicit sparsity parameter (part of the cache key).
        hierarchy_params: optional full hierarchy parameter override; when
            given, its fields join the cache key.
        cache: the artifact cache to use (fresh default-sized
            :class:`ArtifactCache` when omitted).
        metrics: registry the service records ``repro_service_*`` metrics
            into (default: the process-wide :func:`default_registry`).  A
            default-constructed cache inherits the same registry.
        planner: a :class:`~repro.planner.QueryPlanner` that chooses plans
            for queries submitted without an explicit backend; observed
            timings are recorded back into its cost model.
        policy: convenience — build a planner with this policy (``"fixed"``,
            ``"cost"``, or ``"adaptive"``) inheriting the service's epsilon
            and metrics.  Ignored when ``planner`` is given.

    Every batch builds and routes in-process on the calling thread.
    :meth:`close` (or leaving the service's ``with`` block) stops it from
    routing further batches.
    """

    def __init__(
        self,
        epsilon: float = 0.5,
        psi: float | None = None,
        hierarchy_params: HierarchyParameters | None = None,
        cache: ArtifactCache | None = None,
        metrics: MetricsRegistry | None = None,
        planner: QueryPlanner | None = None,
        policy: str | None = None,
    ) -> None:
        self.epsilon = epsilon
        self.psi = psi
        self.hierarchy_params = hierarchy_params
        self.metrics = metrics if metrics is not None else default_registry()
        self.cache = cache if cache is not None else ArtifactCache(metrics=self.metrics)
        if planner is None and policy is not None:
            planner = QueryPlanner(policy=policy, epsilon=epsilon, metrics=self.metrics)
        self.planner = planner
        self._m_queries = self.metrics.counter(
            "repro_service_queries_total", "Queries created by the service.", labels=("backend",)
        )
        self._m_batches = self.metrics.counter(
            "repro_service_batches_total", "Batches routed by the service."
        )
        self._m_comparisons = self.metrics.counter(
            "repro_service_comparisons_total", "compare_batch() invocations."
        )
        self._m_query_seconds = self.metrics.histogram(
            "repro_service_query_seconds", "Per-query routing wall-clock.", labels=("backend",)
        )
        self._m_preprocess_seconds = self.metrics.histogram(
            "repro_service_preprocess_seconds", "Wall-clock building missing backends, per batch."
        )
        self._m_preprocess_rounds = self.metrics.counter(
            "repro_service_preprocess_rounds_total",
            "CONGEST preprocessing rounds, incurred vs reused.",
            labels=("kind",),
        )
        self._m_fused_batches = self.metrics.counter(
            "repro_service_fused_batches_total",
            "Same-fingerprint query groups routed through one fused kernel pass.",
            labels=("mode",),
        )
        # Per-backend children of the per-query families, resolved on first
        # use (see _backend_child).
        self._backend_children: dict[tuple[str, str], Any] = {}
        self._closed = False
        self._pending: list[RoutingQuery] = []
        self._next_query_id = 0
        # Graph canonicalization dominates fingerprint cost; memoize it per
        # Graph *object* (weakly, so dropped graphs free their payloads).  The
        # caller must not mutate a graph between submits — a mutated graph
        # should be a new object (``graph.copy()``), which re-canonicalizes.
        self._payload_memo: "weakref.WeakKeyDictionary[nx.Graph, str]" = (
            weakref.WeakKeyDictionary()
        )
        # Full cache keys are also memoized per graph object: hashing the
        # canonical payload costs tens of microseconds per call at a few
        # hundred vertices, which dominates sub-millisecond queries (the
        # planner path hashes twice per submit — planning key + final
        # fingerprint).  Keyed by (backend, canonical params); the planning
        # key lives under a reserved empty backend name.
        self._key_memo: "weakref.WeakKeyDictionary[nx.Graph, dict[tuple, str]]" = (
            weakref.WeakKeyDictionary()
        )
        # Query-ready runners memoized per fingerprint for the in-process path.
        # Rebuilding a backend from its artifact every warm batch costs more
        # than the routing itself for cheap queries; the fingerprint already
        # guarantees the runner matches the (graph, backend, params) content.
        # Batch accounting (cache hits, incurred/reused rounds) is computed
        # from the artifact cache exactly as before — the memo only skips
        # redundant reconstruction work, never changes what is reported.
        # An artifact-backed runner (info None) is kept only while the cache
        # holds its artifact, so the memo never serves what the cache evicted
        # or refused to admit; a runner without an artifact keeps the
        # PreprocessInfo a rebuild would report.
        self._runner_memo: OrderedDict[
            str, tuple[RoutingBackend, PreprocessInfo | None]
        ] = OrderedDict()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Reject every later batch.

        Idempotent.  Pending (unrouted) submissions are left queued so
        callers can inspect them.
        """
        self._closed = True

    def __enter__(self) -> "RoutingService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.close()
        return False

    # -- submission ----------------------------------------------------------

    def _runner_memo_get(
        self, fingerprint: str
    ) -> tuple[RoutingBackend, PreprocessInfo | None] | None:
        entry = self._runner_memo.get(fingerprint)
        if entry is not None:
            self._runner_memo.move_to_end(fingerprint)
        return entry

    def _runner_memo_put(
        self, fingerprint: str, runner: RoutingBackend, info: PreprocessInfo | None
    ) -> None:
        """Retain a query-ready runner (LRU, sized to the artifact cache)."""
        self._runner_memo[fingerprint] = (runner, info)
        self._runner_memo.move_to_end(fingerprint)
        cap = max(4, getattr(self.cache, "capacity", 4))
        while len(self._runner_memo) > cap:
            self._runner_memo.popitem(last=False)

    def _runner_memo_prune(self) -> None:
        """Drop artifact-backed runners whose artifact the cache no longer holds."""
        resident = set(self.cache.fingerprints())
        for fingerprint in [
            fingerprint
            for fingerprint, (_, info) in self._runner_memo.items()
            if info is None and fingerprint not in resident
        ]:
            del self._runner_memo[fingerprint]

    def _graph_payload(self, graph: nx.Graph) -> str:
        payload = self._payload_memo.get(graph)
        if payload is None:
            payload = graph_payload(graph)
            self._payload_memo[graph] = payload
        return payload

    @property
    def fingerprint_memo_size(self) -> int:
        """How many live graphs have a memoized canonical payload."""
        return len(self._payload_memo)

    def _service_parameters(self) -> dict[str, Hashable]:
        """The service-level parameters every cache key includes."""
        parameters: dict[str, Hashable] = {"epsilon": self.epsilon}
        if self.psi is not None:
            parameters["psi"] = self.psi
        if self.hierarchy_params is not None:
            parameters.update(
                (f"hierarchy.{key}", value)
                for key, value in sorted(vars(self.hierarchy_params).items())
            )
        return parameters

    def fingerprint(
        self,
        graph: nx.Graph,
        backend: str = DEFAULT_BACKEND,
        backend_params: Mapping[str, Any] | None = None,
    ) -> str:
        """The cache key this service uses for ``graph`` under ``backend``."""
        canonical = canonical_backend_params(backend_params)
        memo = self._key_memo.setdefault(graph, {})
        cached = memo.get(("backend", backend, canonical))
        if cached is not None:
            return cached
        parameters = self._service_parameters()
        parameters["backend"] = backend
        for key, value in canonical:
            parameters[f"backend.{key}"] = value
        fingerprint = graph_fingerprint(
            graph, parameters, precomputed_graph_payload=self._graph_payload(graph)
        )
        memo[("backend", backend, canonical)] = fingerprint
        return fingerprint

    def graph_key(self, graph: nx.Graph) -> str:
        """The backend-agnostic planning key (graph + service parameters).

        This is what the planner's plan cache keys on: the backend is the
        planner's *output*, so the planning key must not depend on it.  The
        per-backend artifact fingerprint is derived afterwards from the
        chosen plan.
        """
        memo = self._key_memo.setdefault(graph, {})
        cached = memo.get(("plan",))
        if cached is not None:
            return cached
        key = graph_fingerprint(
            graph,
            self._service_parameters(),
            precomputed_graph_payload=self._graph_payload(graph),
        )
        memo[("plan",)] = key
        return key

    def _plan_for(
        self,
        graph: nx.Graph,
        request_count: int,
        load: int | None,
        backend: str | None,
        backend_params: Mapping[str, Any] | None,
        workload: str,
    ) -> ExecutionPlan:
        """The plan a kwargs-style submission executes under.

        With a planner attached the decision is delegated (an explicitly
        named backend still pins a ``fixed`` plan); without one, the legacy
        kwargs are synthesized into a ``fixed`` plan that reproduces the
        pre-planner behaviour exactly.
        """
        if self.planner is not None:
            return self.planner.plan(
                self.graph_key(graph),
                graph.number_of_nodes(),
                request_count=request_count,
                load=load,
                workload=workload,
                backend=backend,
                backend_params=backend_params,
            )
        return ExecutionPlan(
            backend=backend if backend is not None else DEFAULT_BACKEND,
            backend_params=dict(backend_params or {}),
            kernel=active_kernel(),
            policy="fixed",
            reason="synthesized from service kwargs (no planner attached)",
        )

    def explain(
        self,
        graph: nx.Graph,
        requests: Sequence[RoutingRequest] | Workload,
        load: int | None = None,
        backend: str | None = None,
        backend_params: Mapping[str, Any] | None = None,
        workload: str = "",
    ):
        """The planner's EXPLAIN report for this submission, without routing it.

        Requires an attached planner (the fixed-kwargs path has nothing to
        explain); returns a :class:`~repro.planner.PlanExplanation`.
        """
        if self.planner is None:
            raise RuntimeError("explain() requires a service planner (policy=...)")
        if isinstance(requests, Workload):
            workload = requests.name
            if load is None:
                load = requests.load
            requests = requests.requests
        return self.planner.explain(
            self.graph_key(graph),
            graph.number_of_nodes(),
            request_count=len(requests),
            load=load,
            workload=workload,
            backend=backend,
            backend_params=backend_params,
        )

    def _make_query(
        self,
        graph: nx.Graph,
        requests: Sequence[RoutingRequest] | Workload,
        load: int | None,
        backend: str | None,
        backend_params: Mapping[str, Any] | None,
        workload: str = "",
        plan: ExecutionPlan | None = None,
        fingerprint: str | None = None,
    ) -> RoutingQuery:
        workload_name = workload
        if isinstance(requests, Workload):
            workload_name = requests.name
            if load is None:
                load = requests.load
            requests = requests.requests
        requests = tuple(requests)
        if plan is None:
            plan = self._plan_for(
                graph, len(requests), load, backend, backend_params, workload_name
            )
        query = RoutingQuery(
            query_id=self._next_query_id,
            fingerprint=(
                fingerprint
                if fingerprint is not None
                else self.fingerprint(
                    graph, backend=plan.backend, backend_params=plan.backend_params
                )
            ),
            graph=graph,
            requests=requests,
            load=load,
            backend=plan.backend,
            backend_params=dict(plan.backend_params),
            workload=workload_name,
            plan=plan,
        )
        self._next_query_id += 1
        self._backend_child(self._m_queries, plan.backend).inc()
        return query

    def _backend_child(self, family: MetricFamily, backend: str):
        """``family``'s child for ``backend``, resolved once per (family, backend)."""
        child = self._backend_children.get((family.name, backend))
        if child is None:
            child = self._backend_children[family.name, backend] = family.labels(backend=backend)
        return child

    def submit(
        self,
        graph: nx.Graph,
        requests: Sequence[RoutingRequest] | Workload,
        load: int | None = None,
        backend: str | None = None,
        backend_params: Mapping[str, Any] | None = None,
        workload: str = "",
        plan: ExecutionPlan | None = None,
        fingerprint: str | None = None,
    ) -> int:
        """Queue one routing query for the next batch; returns its query id.

        ``requests`` may be a plain request sequence or a
        :class:`~repro.workloads.Workload` (whose declared load bound is used
        when ``load`` is omitted).  ``workload`` labels a plain request
        sequence for reporting (a ``Workload``'s own name wins).

        Execution strategy resolves in precedence order: an explicit ``plan``
        wins outright; a named ``backend`` pins a fixed plan; otherwise the
        service's planner (when attached) chooses, falling back to the
        default backend under the service's own execution defaults.

        ``fingerprint`` is the query's cache key when the caller already
        holds it (a cluster shard gets it from the coordinator, which keys
        with the same parameters); the service computes it when omitted.
        """
        query = self._make_query(
            graph,
            requests,
            load,
            backend,
            backend_params,
            workload=workload,
            plan=plan,
            fingerprint=fingerprint,
        )
        self._pending.append(query)
        return query.query_id

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    # -- execution -----------------------------------------------------------

    def route_batch(self, queries: Sequence[RoutingQuery] | None = None) -> BatchReport:
        """Route a batch (the pending queue when ``queries`` is omitted).

        Grouping, backend resolution, and query execution are all per
        fingerprint: one preprocess per distinct cold (graph, backend) pair,
        then every query routed in-process on shared read-only backends.
        """
        if self._closed:
            # Before touching the pending queue: close() promises queued
            # submissions survive for inspection.
            raise RuntimeError("service is closed")
        if queries is None:
            queries, self._pending = self._pending, []
        else:
            queries = list(queries)
        report = BatchReport()
        if not queries:
            return report
        self._m_batches.inc()
        batch_start = time.perf_counter()

        by_fingerprint: dict[str, list[RoutingQuery]] = {}
        for query in queries:
            by_fingerprint.setdefault(query.fingerprint, []).append(query)
        report.distinct_graphs = len(by_fingerprint)
        self._route_batch_threads(by_fingerprint, report)

        # Submission order, regardless of grouping.
        report.results.sort(key=lambda result: result.query_id)
        report.cache_hits = sum(1 for result in report.results if result.cache_hit)
        report.cache_misses = len(report.results) - report.cache_hits
        report.wall_seconds = time.perf_counter() - batch_start
        if report.preprocess_rounds_incurred:
            self._m_preprocess_rounds.labels(kind="incurred").inc(report.preprocess_rounds_incurred)
        if report.preprocess_rounds_reused:
            self._m_preprocess_rounds.labels(kind="reused").inc(report.preprocess_rounds_reused)
        return report

    def route(
        self,
        graph: nx.Graph,
        requests: Sequence[RoutingRequest] | Workload,
        load: int | None = None,
        backend: str | None = None,
        backend_params: Mapping[str, Any] | None = None,
        plan: ExecutionPlan | None = None,
    ) -> RouteResult:
        """Route one instance immediately (a batch of one), returning its outcome.

        Queries queued via :meth:`submit` are left pending — this routes only
        the instance passed here.  Strategy resolution follows
        :meth:`submit` (explicit plan > named backend > planner > default).
        """
        query = self._make_query(graph, requests, load, backend, backend_params, plan=plan)
        report = self.route_batch([query])
        return report.results[0].outcome

    def compare_batch(
        self,
        graph: nx.Graph,
        workloads: Sequence[Workload | Sequence[RoutingRequest]],
        backends: Sequence[str] | None = None,
        backend_params: Mapping[str, Mapping[str, Any]] | None = None,
    ) -> ComparisonReport:
        """Route the same workloads through several backends, side by side.

        Args:
            graph: the graph every workload routes on.
            workloads: the request patterns to replay against every backend
                (:class:`~repro.workloads.Workload` objects or plain request
                sequences).
            backends: registry names to compare (default: every registered
                backend).
            backend_params: optional per-backend factory parameters, keyed by
                backend name.

        One :meth:`route_batch` runs per backend, so artifact caching and
        execution apply exactly as in normal serving — routing a
        workload through the comparison yields the same rounds as routing it
        through the backend directly.
        """
        if backends is None:
            backends = available_backends()
        self._m_comparisons.inc()
        comparison = ComparisonReport()
        for backend in backends:
            params = (backend_params or {}).get(backend)
            batch = [
                self._make_query(graph, workload, None, backend, params)
                for workload in workloads
            ]
            batch_report = self.route_batch(batch)
            comparison.batch_reports[backend] = batch_report
            ordered = sorted(batch_report.results, key=lambda result: result.query_id)
            for index, result in enumerate(ordered):
                comparison.entries.append(
                    ComparisonEntry(
                        backend=backend,
                        workload=result.workload or f"workload-{index}",
                        workload_index=index,
                        result=result.outcome,
                        cache_hit=result.cache_hit,
                        seconds=result.seconds,
                    )
                )
        return comparison

    # -- internals -----------------------------------------------------------

    def _route_batch_threads(
        self,
        by_fingerprint: dict[str, list[RoutingQuery]],
        report: BatchReport,
    ) -> None:
        """In-process execution on the calling thread, over shared backends."""
        # Phase 1: resolve a query-ready backend per distinct fingerprint
        # (artifact-cache lookups first, then the cold builds).
        runners: dict[str, RoutingBackend] = {}
        warm: dict[str, bool] = {}
        cold: dict[str, RoutingQuery] = {}
        for fingerprint, group in by_fingerprint.items():
            query = group[0]
            factory = backend_factory(query.backend)
            cached = (
                self.cache.get(fingerprint) if supports_artifacts(factory) else None
            )
            memo = self._runner_memo_get(fingerprint)
            if cached is not None:
                if memo is not None and memo[1] is None:
                    runners[fingerprint] = memo[0]
                else:
                    runners[fingerprint] = factory.from_artifact(query.graph, cached)
                    self._runner_memo_put(fingerprint, runners[fingerprint], None)
                warm[fingerprint] = True
                report.preprocess_rounds_reused += cached.preprocessing_rounds
            elif memo is not None and memo[1] is not None:
                # A runner without an artifact (the memo is its only cache):
                # serve it, and charge the batch exactly what a rebuild would
                # have reported — preprocessing is deterministic, so the
                # counts are byte-identical and only the redundant work is
                # skipped.
                runners[fingerprint] = memo[0]
                warm[fingerprint] = False
                report.preprocess_rounds_incurred += memo[1].rounds
            else:
                cold[fingerprint] = query
                warm[fingerprint] = False
        if cold:
            preprocess_start = time.perf_counter()
            for fingerprint, query in cold.items():
                runner, info, artifact, build_seconds = self._build_runner(query)
                runners[fingerprint] = runner
                if artifact is not None:
                    # A refused artifact still serves this batch, unmemoized.
                    if self.cache.put(fingerprint, artifact):
                        self._runner_memo_put(fingerprint, runner, None)
                    report.preprocess_rounds_incurred += artifact.preprocessing_rounds
                else:
                    self._runner_memo_put(fingerprint, runner, info)
                    report.preprocess_rounds_incurred += info.rounds
                self._record_preprocess(query, build_seconds)
            build_seconds_total = time.perf_counter() - preprocess_start
            report.preprocess_seconds += build_seconds_total
            self._m_preprocess_seconds.observe(build_seconds_total)
        # Admissions and disk promotions above may have evicted artifacts.
        self._runner_memo_prune()

        # Phase 2: route every group of the batch.
        route_start = time.perf_counter()
        for fingerprint, group in by_fingerprint.items():
            runner = runners[fingerprint]
            plan = group[0].plan
            if (
                plan is not None
                and plan.fused
                and len(group) >= 2
                and supports_fusion(runner)
            ):
                # The whole same-fingerprint group through one fused kernel
                # pass; per-group results are identical to routing each query
                # alone (the fused-equivalence tests assert this).
                routed = self._route_group_fused(runner, group)
                self._m_fused_batches.labels(mode="threads").inc()
            else:
                routed = [self._route_one(runner, query) for query in group]
            # One fingerprint, one backend: the group shares a histogram child.
            observe = self._backend_child(self._m_query_seconds, group[0].backend).observe
            for query, (outcome, seconds) in zip(group, routed):
                observe(seconds)
                self._record_query(query, seconds)
                report.results.append(
                    QueryResult(
                        query_id=query.query_id,
                        fingerprint=query.fingerprint,
                        backend=query.backend,
                        outcome=outcome,
                        cache_hit=warm[query.fingerprint],
                        seconds=seconds,
                        workload=query.workload,
                        plan=query.plan,
                    )
                )
        report.route_seconds += time.perf_counter() - route_start

    def _resolved_backend_params(self, query: RoutingQuery) -> dict[str, Any]:
        """Query parameters plus the service-level defaults the factory accepts.

        The service-level tradeoff parameters apply to every backend whose
        factory accepts them by name (epsilon reaches both the deterministic
        router and the rebuild-per-query comparator, so comparisons are
        apples to apples); explicit per-query params still win.
        """
        factory = backend_factory(query.backend)
        params = dict(query.backend_params)
        service_defaults: dict[str, Any] = {"epsilon": self.epsilon}
        if self.psi is not None:
            service_defaults["psi"] = self.psi
        if self.hierarchy_params is not None:
            service_defaults["hierarchy_params"] = self.hierarchy_params
        try:
            accepted = {
                name
                for name, parameter in inspect.signature(factory).parameters.items()
                if parameter.kind
                in (parameter.POSITIONAL_OR_KEYWORD, parameter.KEYWORD_ONLY)
            }
        except (TypeError, ValueError):
            accepted = set()
        for key, value in service_defaults.items():
            if key in accepted:
                params.setdefault(key, value)
        return params

    def _make_backend(self, query: RoutingQuery) -> RoutingBackend:
        factory = backend_factory(query.backend)
        return factory(query.graph, **self._resolved_backend_params(query))

    def _build_runner(
        self, query: RoutingQuery
    ) -> tuple[RoutingBackend, PreprocessInfo, PreprocessArtifact | None, float]:
        start = time.perf_counter()
        backend = self._make_backend(query)
        info = backend.preprocess()
        artifact = None
        # Capability is judged on the *factory* (exactly like the warm-lookup
        # path), so a function-style factory never fills a cache that the
        # lookup path would not read.
        if supports_artifacts(backend_factory(query.backend)) and supports_artifacts(backend):
            artifact = backend.export_artifact(fingerprint=query.fingerprint)
        return backend, info, artifact, time.perf_counter() - start

    @staticmethod
    def _route_one(runner: RoutingBackend, query: RoutingQuery) -> tuple[RouteResult, float]:
        start = time.perf_counter()
        outcome = runner.route(list(query.requests), load=query.load)
        return outcome, time.perf_counter() - start

    @staticmethod
    def _route_group_fused(
        runner: RoutingBackend, group: Sequence[RoutingQuery]
    ) -> list[tuple[RouteResult, float]]:
        """Route a same-fingerprint group through one fused kernel pass.

        The fused pass is one wall-clock measurement; each query is
        attributed an equal share so per-query latency series stay
        comparable with the sequential path.
        """
        request_groups = [query.requests for query in group]
        loads = [query.load for query in group]
        start = time.perf_counter()
        outcomes = runner.route_many(request_groups, loads)  # type: ignore[attr-defined]
        per_query = (time.perf_counter() - start) / max(1, len(group))
        return [(outcome, per_query) for outcome in outcomes]

    # -- planner feedback ----------------------------------------------------

    def _record_query(self, query: RoutingQuery, seconds: float) -> None:
        """Feed one observed routing wall-clock back into the cost model."""
        if self.planner is not None and query.plan is not None:
            self.planner.record_query(
                query.plan,
                query.graph.number_of_nodes(),
                seconds,
                workload=query.workload,
            )

    def _record_preprocess(self, query: RoutingQuery, seconds: float) -> None:
        """Feed one observed preprocess wall-clock back into the cost model."""
        if self.planner is not None and query.plan is not None:
            self.planner.record_preprocess(
                query.plan, query.graph.number_of_nodes(), seconds
            )
