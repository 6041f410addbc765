"""Per-layer instrumentation: which public functions are wrapped, and the metrics.

:class:`LayerProbe` wraps the public entry points of each layer named in
:data:`perfbench.spec.PER_LAYER` (from outside the program: nothing under
``src/`` is edited) and turns the recorded spans, call counts and
metric-registry deltas into the per-layer metric values.

Clocks: ``*_ms_p50`` metrics are wall-clock span durations, what a caller
waits.  ``*_ms_total`` and ``*_per_query`` times are CPU time on the calling
thread, what the layer computes, so concurrent shard threads waiting on the
interpreter lock do not inflate them; the exception is
``journal.append_ms_per_query``, whose cost is its write and flush, so it is
wall-clock.
"""

from __future__ import annotations

import statistics
import threading
from collections import deque
from typing import Mapping

from perfbench.spec import NOT_MEASURED, PER_LAYER
from perfbench.stats import median, tail
from perfbench.tracing import Patcher, Tracer

__all__ = ["LayerProbe", "CHILD_ONLY", "RegistryView", "compute_layer_metrics"]

#: Per-layer metrics whose layer runs only inside shard-server processes when
#: the cluster uses ``transport="tcp"``; the benchmark process cannot see them.
CHILD_ONLY = frozenset(
    {
        "service.route_batch_ms_p50",
        "service.cache_hit_ratio",
        "service.cache_evictions_total",
        "router.preprocess_ms_p50",
        "router.route_calls",
        "router.route_many_calls",
        "router.fused_width_mean",
        "router.route_ms_self_per_query",
        "task3.ms_self_per_query",
        "dispersion.ms_self_per_query",
        "leaf.ms_self_per_query",
        "kernels.plan_transfers_batched_ms_per_query",
        "kernels.disperse_many_numpy_ms_per_query",
        "kernels.active_kernel_calls_per_query",
        "hierarchy.locate_best_rank_calls_per_query",
        "hierarchy.build_ms_p50",
        "cutmatching.play_ms_total",
    }
)

#: Registry counters read before and after the traced phase:
#: ``key -> (family, required labels)``.
COUNTERS: dict[str, tuple[str, dict[str, str]]] = {
    "cache_hits": ("repro_cache_lookups_total", {"result": "hit"}),
    "cache_disk_hits": ("repro_cache_lookups_total", {"result": "disk_hit"}),
    "cache_lookups": ("repro_cache_lookups_total", {}),
    "cache_evictions": ("repro_cache_evictions_total", {"tier": "memory"}),
    "bytes_client_sent": ("repro_net_bytes_total", {"role": "client", "direction": "sent"}),
    "bytes_gateway_sent": ("repro_net_bytes_total", {"role": "gateway", "direction": "sent"}),
    "bytes_coordinator": ("repro_net_bytes_total", {"role": "coordinator"}),
    "client_retries": ("repro_client_retries_total", {}),
    "gateway_deduped": ("repro_net_payloads_deduped_total", {"role": "gateway"}),
    "gateway_uploads": ("repro_net_graph_uploads_total", {"role": "gateway"}),
    "gateway_need_graph": ("repro_net_need_graph_total", {"role": "gateway"}),
    "journal_records": ("repro_journal_records_total", {}),
    "journal_bytes": ("repro_journal_bytes_total", {}),
}


class RegistryView:
    """Sums of counter families in one :class:`~repro.metrics.MetricsRegistry`."""

    def __init__(self, registry) -> None:
        self.registry = registry

    def total(self, family_name: str, labels: Mapping[str, str]) -> float:
        family = self.registry.get(family_name)
        if family is None:
            return 0.0
        names = tuple(family.label_names)
        value = 0.0
        for key, child in family.children():
            bound = dict(zip(names, key))
            if all(bound.get(label) == wanted for label, wanted in labels.items()):
                value += child.value
        return value

    def snapshot(self) -> dict[str, float]:
        return {key: self.total(name, labels) for key, (name, labels) in COUNTERS.items()}


class LayerProbe:
    """Wraps each layer's public functions while installed."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self._patcher = Patcher("repro")
        self._lock = threading.Lock()
        self._admitted: deque[float] = deque()
        self.queue_waits: list[float] = []
        self.hops: list[float] = []
        self.fused_widths: list[int] = []
        self.window_sizes: list[int] = []

    # -- observers: read a call's arguments or result after its span closes --

    def _on_submit(self, args, kwargs, decision, span) -> None:
        if getattr(decision, "accepted", False):
            with self._lock:
                self._admitted.append(span.end)

    def _on_drain(self, args, kwargs, slices, span) -> None:
        drained = sum(len(items) for items in slices.values())
        with self._lock:
            for _ in range(min(drained, len(self._admitted))):
                self.queue_waits.append(span.start - self._admitted.popleft())

    def _on_process_shard(self, args, kwargs, report, span) -> None:
        self.hops.append(span.seconds - report.wall_seconds)

    def _on_route_many(self, args, kwargs, outcomes, span) -> None:
        self.fused_widths.append(len(outcomes))

    def _on_submit_many(self, args, kwargs, outcomes, span) -> None:
        self.window_sizes.append(len(outcomes))

    # -- lifecycle --

    def install(self) -> None:
        from repro.cluster.coordinator import ClusterCoordinator
        from repro.core.router import ExpanderRouter
        from repro.cutmatching.game import CutMatchingGame
        from repro.durability.journal import WriteAheadJournal
        from repro.net.client import ClusterClient
        from repro.service.service import RoutingService

        tracer, patch = self.tracer, self._patcher

        def timed(name, observe=None):
            return lambda fn: tracer.timed(name, fn, observe)

        patch.method(ClusterCoordinator, "submit", timed("cluster.submit", self._on_submit))
        patch.method(ClusterCoordinator, "plan", timed("planner.plan"))
        patch.method(ClusterCoordinator, "drain_slices", timed("cluster.drain", self._on_drain))
        patch.method(
            ClusterCoordinator,
            "process_shard",
            timed("cluster.process_shard", self._on_process_shard),
        )
        patch.method(
            ClusterCoordinator, "submit_many", timed("gateway.admit", self._on_submit_many)
        )
        patch.method(RoutingService, "route_batch", timed("service.route_batch"))
        patch.method(RoutingService, "fingerprint", timed("service.fingerprint"))
        patch.method(RoutingService, "graph_key", timed("service.fingerprint"))
        patch.method(ExpanderRouter, "preprocess", timed("router.preprocess"))
        patch.method(ExpanderRouter, "route", timed("router.route"))
        patch.method(ExpanderRouter, "route_many", timed("router.route_many", self._on_route_many))
        patch.method(CutMatchingGame, "play", timed("cutmatching.play"))
        patch.method(ClusterClient, "submit", timed("client.submit"))
        patch.method(ClusterClient, "dispatch", timed("client.dispatch"))
        patch.method(WriteAheadJournal, "append", timed("journal.append"))
        patch.method(WriteAheadJournal, "append_group", timed("journal.append"))
        for module, attr, name in (
            ("repro.core.merge", "solve_task3", "task3"),
            ("repro.core.merge", "solve_task3_many", "task3"),
            ("repro.core.dispersion", "disperse", "dispersion"),
            ("repro.core.dispersion", "disperse_many", "dispersion"),
            ("repro.core.leaf", "route_in_leaf", "leaf"),
            ("repro.kernels.batched", "plan_transfers_batched", "kernels.plan_transfers_batched"),
            ("repro.kernels.batched", "disperse_many_numpy", "kernels.disperse_many_numpy"),
            ("repro.hierarchy.builder", "build_hierarchy", "hierarchy.build"),
            ("repro.wire.codec", "encode_payload", "wire.encode"),
            ("repro.wire.codec", "decode_payload", "wire.decode"),
        ):
            patch.function(module, attr, timed(name))
        patch.function(
            "repro.kernels", "active_kernel", lambda fn: tracer.counted("kernels.active_kernel", fn)
        )
        patch.function(
            "repro.hierarchy.best",
            "locate_best_rank",
            lambda fn: tracer.counted("hierarchy.locate_best_rank", fn),
        )

    def restore(self) -> None:
        self._patcher.restore()


def compute_layer_metrics(
    probe: LayerProbe,
    *,
    queries: int,
    counters_before: Mapping[str, float],
    counters_after: Mapping[str, float],
    admission_delta: Mapping[str, float],
    transport: str,
    preprocess_builds: int,
    lags_ms: list[float],
    overhead_ratio: float,
) -> dict[str, float]:
    """Every per-layer metric of one traced phase (``NOT_MEASURED`` where unseen).

    ``queries`` is the number of queries the traced phase completed; the
    ``*_per_query`` metrics divide by it.  ``preprocess_builds`` counts the
    cold builds the shard reports announced, which is how preprocessing is
    counted when it runs in shard-server processes.
    """
    spans = probe.tracer.by_name()
    counts = probe.tracer.counts()
    delta = {key: counters_after[key] - counters_before[key] for key in counters_after}

    def ms_p50(name: str) -> float:
        found = spans.get(name)
        return median([span.seconds * 1e3 for span in found]) if found else NOT_MEASURED

    def ms_total(name: str) -> float:
        return sum(span.cpu_seconds for span in spans.get(name, ())) * 1e3

    def ms_self(*names: str) -> float:
        return sum(span.self_cpu_seconds for name in names for span in spans.get(name, ())) * 1e3

    def per_query(value: float) -> float:
        return value / queries if queries else NOT_MEASURED

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else NOT_MEASURED

    def calls(name: str) -> int:
        return len(spans.get(name, ()))

    journal_writes = calls("journal.append")
    values: dict[str, float] = {
        "cluster.submit_ms_p50": ms_p50("cluster.submit"),
        "cluster.queue_wait_ms_p50": (
            median([wait * 1e3 for wait in probe.queue_waits])
            if probe.queue_waits
            else NOT_MEASURED
        ),
        "cluster.process_shard_ms_p50": ms_p50("cluster.process_shard"),
        "cluster.hop_ms_p50": (
            median([hop * 1e3 for hop in probe.hops]) if probe.hops else NOT_MEASURED
        ),
        "cluster.rejected_total": admission_delta["rejected"],
        "cluster.shed_total": admission_delta["shed"],
        "cluster.lost_total": admission_delta["lost"],
        "planner.plan_ms_total": ms_total("planner.plan"),
        "service.route_batch_ms_p50": ms_p50("service.route_batch"),
        "service.cache_hit_ratio": ratio(
            delta["cache_hits"] + delta["cache_disk_hits"], delta["cache_lookups"]
        ),
        "service.cache_evictions_total": delta["cache_evictions"],
        "service.fingerprint_ms_total": ms_total("service.fingerprint"),
        "router.preprocess_calls": (
            calls("router.preprocess") if transport == "local" else preprocess_builds
        ),
        "router.preprocess_ms_p50": ms_p50("router.preprocess"),
        "router.route_calls": calls("router.route"),
        "router.route_many_calls": calls("router.route_many"),
        "router.fused_width_mean": (
            statistics.fmean(probe.fused_widths) if probe.fused_widths else NOT_MEASURED
        ),
        "router.route_ms_self_per_query": per_query(ms_self("router.route", "router.route_many")),
        "task3.ms_self_per_query": per_query(ms_self("task3")),
        "dispersion.ms_self_per_query": per_query(ms_self("dispersion")),
        "leaf.ms_self_per_query": per_query(ms_self("leaf")),
        "kernels.plan_transfers_batched_ms_per_query": per_query(
            ms_self("kernels.plan_transfers_batched")
        ),
        "kernels.disperse_many_numpy_ms_per_query": per_query(
            ms_self("kernels.disperse_many_numpy")
        ),
        "kernels.active_kernel_calls_per_query": per_query(
            counts.get("kernels.active_kernel", 0)
        ),
        "hierarchy.locate_best_rank_calls_per_query": per_query(
            counts.get("hierarchy.locate_best_rank", 0)
        ),
        "hierarchy.build_ms_p50": ms_p50("hierarchy.build"),
        "cutmatching.play_ms_total": ms_total("cutmatching.play"),
        "wire.encode_ms_per_query": per_query(ms_total("wire.encode")),
        "wire.decode_ms_per_query": per_query(ms_total("wire.decode")),
        "wire.bytes_per_query": per_query(
            delta["bytes_client_sent"] + delta["bytes_gateway_sent"] + delta["bytes_coordinator"]
        ),
        "client.submit_ms_p50": ms_p50("client.submit"),
        "client.dispatch_ms_p50": ms_p50("client.dispatch"),
        "client.retries_total": delta["client_retries"],
        "gateway.admit_ms_p50": ms_p50("gateway.admit"),
        "gateway.submits_per_window": (
            statistics.fmean(probe.window_sizes) if probe.window_sizes else NOT_MEASURED
        ),
        "gateway.payload_dedup_ratio": ratio(
            delta["gateway_deduped"], delta["gateway_deduped"] + delta["gateway_uploads"]
        ),
        "gateway.need_graph_total": delta["gateway_need_graph"],
        "journal.append_ms_per_query": per_query(
            sum(span.seconds for span in spans.get("journal.append", ())) * 1e3
        ),
        "journal.records_per_write": ratio(delta["journal_records"], journal_writes),
        "journal.bytes_per_query": per_query(delta["journal_bytes"]),
        "loadgen.lag_ms_tail": tail(lags_ms)[1] if lags_ms else NOT_MEASURED,
        "trace.overhead_ratio": overhead_ratio,
    }
    if transport != "local":
        for name in CHILD_ONLY:
            values[name] = NOT_MEASURED
    missing = {metric.name for metric in PER_LAYER} ^ set(values)
    if missing:
        raise RuntimeError(f"per-layer metrics out of sync with the spec: {sorted(missing)}")
    return {name: float(value) for name, value in values.items()}
