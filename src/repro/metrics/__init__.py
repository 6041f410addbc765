"""Observability for the serving stack: counters, gauges, latency histograms.

``repro.metrics`` is the measurement substrate the ROADMAP's production story
needs: the serving layer (:mod:`repro.service`), the backend adapters
(:mod:`repro.backends.adapters`), and the sharded cluster tier
(:mod:`repro.cluster`) all record into a :class:`MetricsRegistry` — by default
the process-wide one from :func:`default_registry`, or any registry injected
per service/cluster for isolated accounting.  One exception: the
``repro_backend_*`` families always land in the process-wide registry (the
adapters are built by registry factories with no injection point); use
:func:`set_default_registry` to isolate them.

The instrumented families (all prefixed ``repro_``):

==========================================      =========  =======================================
name                                            kind       labels
==========================================      =========  =======================================
``repro_service_queries_total``                 counter    ``backend``
``repro_service_batches_total``                 counter    —
``repro_service_comparisons_total``             counter    —
``repro_service_query_seconds``                 histogram  ``backend``
``repro_service_preprocess_seconds``            histogram  —
``repro_service_preprocess_rounds_total``       counter    ``kind`` (``incurred``/``reused``)
``repro_cache_lookups_total``                   counter    ``result`` (hit / disk_hit / miss)
``repro_cache_stores_total``                    counter    —
``repro_cache_evictions_total``                 counter    ``tier`` (``memory``/``disk``)
``repro_cache_admissions_total``                counter    ``result`` (``admitted``/``rejected``)
``repro_backend_route_seconds``                 histogram  ``backend``
``repro_backend_route_rounds_total``            counter    ``backend``
``repro_backend_preprocess_rounds_total``       counter    ``backend``
``repro_cluster_queries_total``                 counter    ``shard``
``repro_cluster_admission_total``               counter    ``shard``, ``decision``
``repro_cluster_queue_depth``                   gauge      ``shard``
``repro_cluster_query_seconds``                 histogram  ``shard``
``repro_cluster_dispatch_seconds``              histogram  —
``repro_cluster_warm_handoffs_total``           counter    ``result`` (``adopted``/``refused``/``missing``)
``repro_cluster_requeued_batches_total``        counter    ``reason`` (``rebalance``/``failover``)
``repro_cluster_lost_batches_total``            counter    —
``repro_cluster_failovers_total``               counter    ``shard``
``repro_cluster_heartbeat_failures_total``      counter    ``shard``
``repro_cluster_autoscaler_events_total``       counter    ``direction`` (``up``/``down``)
``repro_cluster_autoscaler_shards``             gauge      —
==========================================      =========  =======================================

Histograms expose p50/p95/p99 via :meth:`Histogram.summary`;
:meth:`MetricsRegistry.render_text` produces the Prometheus-style text
exposition shown in the README.

The hot-path rule: instrumentation on a per-query path resolves each label
child outside the per-query loop (``MetricFamily.labels`` validates and
locks on every call), and looks up a default-registry family once per call,
not once per query and not at construction, so that
:func:`set_default_registry` still takes effect on the next call.  Children
are resolved on first use, never eagerly, so a snapshot lists exactly the
label sets that were recorded.
"""

from repro.metrics.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    default_registry,
    quantile,
    set_default_registry,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "default_registry",
    "quantile",
    "set_default_registry",
]
