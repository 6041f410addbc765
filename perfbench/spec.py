"""Every workload and metric name the benchmark reports, with units and bounds.

``BENCHMARK.json`` at the repository root mirrors these tables; the
benchmark's tests check that the two agree and that every name is valid.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "Metric",
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "NOT_MEASURED",
    "TAIL_LADDER",
    "NAME_PATTERN",
    "UNIT_PATTERN",
]

#: Valid metric and workload names: a letter or digit, then up to 63 more of
#: letters, digits, ``_``, ``.`` and ``-``.
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Valid units: up to 16 of letters, digits, ``_``, ``/``, ``%``, ``.``, ``-``.
UNIT_PATTERN = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: The value a per-layer metric reads when this process could not observe it
#: on the workload: the layer runs only inside a shard-server child, or it
#: produced no sample to take a median or ratio of.
NOT_MEASURED = -1.0

#: Tail percentiles, highest first.  A run reports the highest one that
#: leaves at least ten samples beyond it (see :func:`perfbench.stats.tail`).
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


#: Workload name -> why it was chosen (one line each).
WORKLOADS: dict[str, str] = {
    "warm-fused": (
        "kernel-bound closed loop: fused route_many over resident n=128 expanders on a "
        "local 2-shard cluster; net, wire and journal are bypassed"
    ),
    "tcp-serving": (
        "stack-bound open loop: Poisson submits of 1-4 requests on tiny resident graphs "
        "through client, gateway, journal and 2 shard-server processes"
    ),
    "cold-churn": (
        "preprocess-bound closed loop: skewed draws over 3x more mixed-size expanders "
        "than cache slots, so most queries pay preprocessing and an eviction"
    ),
}

END_TO_END: tuple[Metric, ...] = (
    Metric("queries_per_s", "1/s", "higher", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("latency_tail_ms", "ms", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("completed_fraction", "ratio", "higher", 0.01),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
    Metric("query_rounds_mean", "rounds", "lower", 0.05),
    Metric("preprocess_rounds_mean", "rounds", "lower", 0.05),
)

PER_LAYER: tuple[Metric, ...] = (
    # cluster: placement, admission, scatter/gather
    Metric("cluster.submit_ms_p50", "ms", "lower"),
    Metric("cluster.queue_wait_ms_p50", "ms", "lower"),
    Metric("cluster.process_shard_ms_p50", "ms", "lower"),
    Metric("cluster.hop_ms_p50", "ms", "lower"),
    Metric("cluster.rejected_total", "count", "lower"),
    Metric("cluster.shed_total", "count", "lower"),
    Metric("cluster.lost_total", "count", "lower"),
    # planner
    Metric("planner.plan_ms_total", "ms", "lower"),
    # service: batching, artifact cache, fingerprinting
    Metric("service.route_batch_ms_p50", "ms", "lower"),
    Metric("service.cache_hit_ratio", "ratio", "higher"),
    Metric("service.cache_evictions_total", "count", "lower"),
    Metric("service.fingerprint_ms_total", "ms", "lower"),
    # core: the router and its Task 1/2/3 phases
    Metric("router.preprocess_calls", "count", "lower"),
    Metric("router.preprocess_ms_p50", "ms", "lower"),
    Metric("router.route_calls", "count", "lower"),
    Metric("router.route_many_calls", "count", "lower"),
    Metric("router.fused_width_mean", "queries", "higher"),
    Metric("router.route_ms_self_per_query", "ms", "lower"),
    Metric("task3.ms_self_per_query", "ms", "lower"),
    Metric("dispersion.ms_self_per_query", "ms", "lower"),
    Metric("leaf.ms_self_per_query", "ms", "lower"),
    # kernels, hierarchy, cut-matching
    Metric("kernels.plan_transfers_batched_ms_per_query", "ms", "lower"),
    Metric("kernels.disperse_many_numpy_ms_per_query", "ms", "lower"),
    Metric("kernels.active_kernel_calls_per_query", "count", "lower"),
    Metric("hierarchy.locate_best_rank_calls_per_query", "count", "lower"),
    Metric("hierarchy.build_ms_p50", "ms", "lower"),
    Metric("cutmatching.play_ms_total", "ms", "lower"),
    # wire codec
    Metric("wire.encode_ms_per_query", "ms", "lower"),
    Metric("wire.decode_ms_per_query", "ms", "lower"),
    Metric("wire.bytes_per_query", "bytes", "lower"),
    # net: client and gateway
    Metric("client.submit_ms_p50", "ms", "lower"),
    Metric("client.dispatch_ms_p50", "ms", "lower"),
    Metric("client.retries_total", "count", "lower"),
    Metric("gateway.admit_ms_p50", "ms", "lower"),
    Metric("gateway.submits_per_window", "count", "higher"),
    Metric("gateway.payload_dedup_ratio", "ratio", "higher"),
    Metric("gateway.need_graph_total", "count", "lower"),
    # durability
    Metric("journal.append_ms_per_query", "ms", "lower"),
    Metric("journal.records_per_write", "count", "higher"),
    Metric("journal.bytes_per_query", "bytes", "lower"),
    # the benchmark's own self-checks
    Metric("loadgen.lag_ms_tail", "ms", "lower"),
    Metric("trace.overhead_ratio", "ratio", "higher"),
)
