"""E8: elasticity — a bursty scale-out/in cycle under chaos.

An open-loop bursty arrival process drives a queue-depth autoscaler between
2 and 6 shards while a seeded :class:`~repro.elastic.FaultPlan` kills and
rejoins a shard mid-run.  The headline assertions are the acceptance bar:
the scaler both grows to its ceiling and returns to its floor (2 → 6 → 2),
and the kill/rejoin cycle loses **zero** batches — every admitted batch is
served exactly once.  The row lands in ``bench-elastic.json``.
"""

import json
from pathlib import Path

from conftest import QUICK

from repro.analysis.reporting import format_table
from repro.cluster import ClusterCoordinator, OpenLoopLoadGenerator
from repro.elastic import Autoscaler, AutoscalerConfig, FaultPlan
from repro.graphs.generators import random_regular_expander
from repro.metrics import MetricsRegistry
from repro.planner import ExecutionPlan

BENCH_N = 48 if QUICK else 64
BURST_RATE = 240.0 if QUICK else 360.0
BURST_DURATION = 1.2 if QUICK else 2.0
PLAN = ExecutionPlan(backend="deterministic", max_workers=2)
RESULTS_PATH = Path(__file__).resolve().parent.parent / "bench-elastic.json"


def _graphs():
    return [random_regular_expander(BENCH_N, degree=6, seed=seed) for seed in range(3)]


def _bursty_chaos_row():
    graphs = _graphs()
    coordinator = ClusterCoordinator(
        shard_count=2,
        cache_capacity=8,
        default_plan=PLAN,
        metrics=MetricsRegistry(),
    )
    generator = OpenLoopLoadGenerator(
        graphs,
        rate=BURST_RATE,
        duration=BURST_DURATION,
        arrival="bursty",
        burst_factor=3.0,
        burst_period=0.4,
        burst_fraction=0.3,
        dispatch_interval=0.05,
        seed=11,
    )
    autoscaler = Autoscaler(
        coordinator,
        AutoscalerConfig(
            policy="queue-depth",
            min_shards=2,
            max_shards=6,
            scale_up_depth=2.5,
            scale_down_depth=1.0,
            evaluate_interval=0.05,
            cooldown=0.05,
            scale_step=2,
        ),
    )
    plan = FaultPlan.kill_and_rejoin(
        "shard-1", kill_at=BURST_DURATION * 0.4, rejoin_at=BURST_DURATION * 0.7
    )
    with coordinator:
        report = generator.run(coordinator, fault_plan=plan, autoscaler=autoscaler)
        final_shards = coordinator.shard_count
    peak = max((event["to_shards"] for event in report.scale_events), default=2)
    floor = min((event["to_shards"] for event in report.scale_events), default=2)
    return report, {
        "experiment": "bursty-autoscale-chaos",
        "n": BENCH_N,
        "offered": report.offered,
        "admitted": report.admitted,
        "completed": report.completed,
        "lost_batches": report.lost_batches,
        "requeued_batches": report.requeued_batches,
        "failovers": report.failovers,
        "scale_events": len(report.scale_events),
        "peak_shards": peak,
        "floor_shards": floor,
        "final_shards": final_shards,
        "p99_seconds": report.latency_quantile(0.99),
        "clean_p99_seconds": report.clean_latency_quantile(0.99),
        "failover_p99_seconds": report.failover_latency_quantile(0.99),
        "quick": QUICK,
    }


def test_elastic_cluster(benchmark):
    rows = []

    def sweep():
        report, chaos_row = _bursty_chaos_row()
        rows.append(chaos_row)
        return report

    report = benchmark.pedantic(sweep, rounds=1, iterations=1)
    RESULTS_PATH.write_text(json.dumps(rows, indent=2, default=str) + "\n")

    print(f"\n[E8] elastic cluster on n={BENCH_N} (quick={QUICK})")
    print(format_table(rows))
    print(f"wrote {len(rows)} rows to {RESULTS_PATH.name}")

    chaos = rows[0]
    # Zero-lost-batch failover under a bursty autoscaling run with a real
    # kill/rejoin cycle: every admitted batch served, exactly once.
    assert chaos["lost_batches"] == 0
    assert chaos["completed"] == chaos["admitted"]
    assert chaos["failovers"] >= 1
    assert report.all_delivered
    # The 2 -> 6 -> 2 elasticity cycle actually happened.
    assert chaos["peak_shards"] == 6
    assert chaos["final_shards"] == 2

