"""E8: the cost-model planner's adaptive policy vs every fixed backend.

Portfolio-style strategy selection (no single solver wins every track) is the
planner's whole argument, and this benchmark measures it end to end: a mixed
workload suite — permutation, hotspot, broadcast, adversarial-bipartite —
over three graph sizes routes through

* every **fixed** backend (one service per backend, warmed, timed), and
* the **adaptive** policy (one service with ``policy="adaptive"``, calibrated
  by an untimed exploration phase, then timed identically),

writing one JSON row per (strategy, n, workload) plus per-workload summary
ratios to ``bench-planner.json`` (uploaded as a CI artifact by the
bench-smoke job).

Full-mode acceptance (the ISSUE 5 bar, asserted when not in quick mode):

* adaptive total seconds per workload within 10% of the best fixed backend
  on **every** workload, and
* adaptive strictly beats the worst fixed backend by >= 1.5x on at least
  two workloads.

Quick mode runs the same pipeline at trimmed sizes and only sanity-checks
delivery plus the planner's convergence (a calibrated, non-exploring final
plan), since micro-timings at quick sizes are noise.
"""

import json
import time
from pathlib import Path

from conftest import QUICK, quick_sizes

from repro.analysis.reporting import format_table
from repro.backends import available_backends
from repro.graphs.generators import random_regular_expander
from repro.metrics import MetricsRegistry
from repro.service import RoutingService
from repro.workloads import make_workload

BENCH_SIZES = quick_sizes([64, 128, 256])
REPEATS = 4 if QUICK else 7
#: Queries per timed batch: raises each measurement well above the scheduler
#: noise floor for the sub-millisecond workloads and exercises real batches
#: (including the planner's fusion decision) instead of batches-of-one.
BATCH_QUERIES = 4
WORKLOAD_SPECS = [
    ("permutation", {"shift": 3}),
    ("hotspot", {"load": 2, "seed": 1}),
    ("broadcast", {"fanout": 8}),
    ("adversarial-bipartite", {"seed": 2}),
]
RESULTS_PATH = Path(__file__).resolve().parent.parent / "bench-planner.json"


def _graph_and_workloads(n: int):
    graph = random_regular_expander(n, degree=8, seed=7)
    workloads = [make_workload(name, graph, **params) for name, params in WORKLOAD_SPECS]
    return graph, workloads


def _timed_pass(service, graph, workloads, seconds_by_workload, backend=None):
    """One timed repeat: each workload routed as its own batch, wall-clocked.

    Wall-clock around submit+route charges the adaptive strategy for its own
    planning overhead (plan cache, cost-model lookups) — the comparison
    against fixed backends is end to end, not routing-only.  Per workload the
    *minimum* over repeats is kept (the standard noise-robust estimator the
    perf harness also uses — any larger sample merely caught scheduler or GC
    noise, on either side of the comparison).
    """
    for workload in workloads:
        start = time.perf_counter()
        for _ in range(BATCH_QUERIES):
            service.submit(graph, workload, backend=backend)
        report = service.route_batch()
        elapsed = time.perf_counter() - start
        assert report.all_delivered
        seconds_by_workload[workload.name] = min(
            seconds_by_workload.get(workload.name, float("inf")), elapsed
        )


def test_adaptive_policy_vs_fixed_backends():
    backends = available_backends()
    rows = []
    # strategy -> workload -> accumulated seconds (across sizes and repeats)
    totals: dict[str, dict[str, float]] = {}

    for n in BENCH_SIZES:
        graph, workloads = _graph_and_workloads(n)

        # One service per strategy, all alive at once so the timed repeats
        # can interleave round-robin: CPU-state drift (frequency scaling,
        # allocator growth) then lands on every strategy equally instead of
        # biasing whichever block ran first.
        services = {
            f"fixed:{backend}": (
                RoutingService(epsilon=0.5, metrics=MetricsRegistry()),
                backend,
            )
            for backend in backends
        }
        adaptive_service = RoutingService(
            epsilon=0.5, policy="adaptive", metrics=MetricsRegistry()
        )
        services["adaptive"] = (adaptive_service, None)
        try:
            for strategy, (service, backend) in services.items():
                if backend is not None:
                    for workload in workloads:  # warm-up: artifacts + pool
                        service.route(graph, workload, backend=backend)
            # Adaptive calibration (untimed): the policy probes every
            # candidate twice per workload class (the first cold measurement
            # is provisional), plus one extra pass so the timed phase starts
            # on the converged choice.
            for _ in range(2 * len(backends) + 1):
                for workload in workloads:
                    adaptive_service.route(graph, workload)
            explanation = adaptive_service.explain(graph, workloads[0])
            assert explanation.plan.policy == "adaptive"
            assert "exploring" not in explanation.plan.reason, (
                f"adaptive policy still exploring after calibration: "
                f"{explanation.plan.reason}"
            )

            per_strategy: dict[str, dict[str, float]] = {s: {} for s in services}
            for _ in range(REPEATS):
                for strategy, (service, backend) in services.items():
                    _timed_pass(
                        service, graph, workloads, per_strategy[strategy], backend=backend
                    )
            chosen = {
                workload.name: adaptive_service.explain(graph, workload).plan.backend
                for workload in workloads
            }
        finally:
            for service, _ in services.values():
                service.close()

        for strategy, per_workload in per_strategy.items():
            _fold(totals, strategy, per_workload)
            for row in _rows(strategy, n, per_workload):
                if strategy == "adaptive":
                    row["chosen_backend"] = chosen[row["workload"]]
                rows.append(row)

    summary = _summarize(totals, backends)
    RESULTS_PATH.write_text(
        json.dumps(
            {"meta": {"quick": QUICK, "sizes": BENCH_SIZES, "repeats": REPEATS},
             "rows": rows, "summary": summary},
            indent=2,
        )
        + "\n"
    )
    print(f"\n[E8] planner adaptive vs fixed over n={BENCH_SIZES} (seconds, lower wins)")
    print(format_table(summary))
    print(f"wrote {len(rows)} rows to {RESULTS_PATH.name}")

    if QUICK:
        return  # timings at quick sizes are noise; delivery + convergence checked above

    # ISSUE 5 acceptance: adaptive within 10% of the best fixed backend on
    # every workload...
    for entry in summary:
        assert entry["adaptive_vs_best"] <= 1.10, (
            f"adaptive {entry['adaptive_seconds']:.3f}s on {entry['workload']} "
            f"misses 10% of best fixed {entry['best_fixed']} "
            f"({entry['best_seconds']:.3f}s)"
        )
    # ... and strictly beats the worst fixed backend by >= 1.5x on at least
    # two workloads.
    big_wins = [entry for entry in summary if entry["worst_vs_adaptive"] >= 1.5]
    assert len(big_wins) >= 2, (
        "adaptive beat the worst fixed backend by >=1.5x on only "
        f"{len(big_wins)} workloads: {summary}"
    )


def _fold(totals, strategy, per_workload):
    bucket = totals.setdefault(strategy, {})
    for name, seconds in per_workload.items():
        bucket[name] = bucket.get(name, 0.0) + seconds


def _rows(strategy, n, per_workload):
    return [
        {"strategy": strategy, "n": n, "workload": name, "seconds": seconds,
         "quick": QUICK}
        for name, seconds in sorted(per_workload.items())
    ]


def _summarize(totals, backends):
    """Per-workload ratios: adaptive vs the best and worst fixed backend."""
    summary = []
    for name, _ in WORKLOAD_SPECS:
        fixed = {
            backend: totals[f"fixed:{backend}"][name]
            for backend in backends
        }
        best_backend = min(fixed, key=lambda b: (fixed[b], b))
        worst_backend = max(fixed, key=lambda b: (fixed[b], b))
        adaptive = totals["adaptive"][name]
        summary.append(
            {
                "workload": name,
                "adaptive_seconds": round(adaptive, 4),
                "best_fixed": best_backend,
                "best_seconds": round(fixed[best_backend], 4),
                "worst_fixed": worst_backend,
                "worst_seconds": round(fixed[worst_backend], 4),
                "adaptive_vs_best": round(adaptive / fixed[best_backend], 3),
                "worst_vs_adaptive": round(fixed[worst_backend] / adaptive, 3),
            }
        )
    return summary
